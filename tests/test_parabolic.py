import itertools
import math
import operator
import sys
import tracemalloc
from collections import Counter, deque

import pytest

from quadrics import parabolic
from quadrics.parabolic import (
    NotSpecialError,
    SimpleSubset,
    _coset_rep_search,
    _leaf_tables,
    _lex_chains,
    _special_members,
    enumerate_special,
    is_minimal_rep,
    longest_element,
    minimal_coset_rep_count,
    minimal_coset_rep_images,
    minimal_coset_reps,
    r_references,
    special_count,
)
from quadrics.symmetric_group import Permutation, identity

from oracles import comparison_hits, enumerate_permutations, parabolic_subgroup, three_value_leaf_search


def all_subsets(n):
    for r in range(n):
        yield from itertools.combinations(range(1, n), r)


def test_constructor_validation():
    with pytest.raises(ValueError, match=r"^member 3 out of range \[1, 2\]$"):
        SimpleSubset(3, (3,))
    with pytest.raises(ValueError, match=r"^member 0 out of range \[1, 2\]$"):
        SimpleSubset(3, (0,))
    with pytest.raises(ValueError, match="^duplicate member 2$"):
        SimpleSubset(4, (2, 2))
    # a duplicate is reported before a member out of range
    with pytest.raises(ValueError, match="^duplicate member 2$"):
        SimpleSubset(4, (7, 2, 0, 2))
    # the first member out of range in increasing order is the one named
    with pytest.raises(ValueError, match=r"^member 5 out of range \[1, 3\]$"):
        SimpleSubset(4, (6, 1, 5))
    assert SimpleSubset(4, (3, 1)).members == (1, 3)


def test_is_special_examples():
    assert SimpleSubset(4, ()).is_special()
    assert SimpleSubset(4, (1, 3)).is_special()
    for a in range(1, 6):
        assert not SimpleSubset(8, (a, a + 1)).is_special()


def test_enumerate_special_small_cases():
    assert [s.members for s in enumerate_special(1)] == [()]
    assert [s.members for s in enumerate_special(3)] == [(), (1,), (2,)]
    assert [s.members for s in enumerate_special(4)] == [
        (),
        (1,),
        (1, 3),
        (2,),
        (3,),
    ]


def test_enumerate_special_is_exhaustive_and_lexicographic():
    for n in range(1, 9):
        found = [s.members for s in enumerate_special(n)]
        expected = sorted(
            members
            for members in all_subsets(n)
            if SimpleSubset(n, members).is_special()
        )
        assert found == expected


def test_special_counts_follow_fibonacci():
    # c(m) = c(m-1) + c(m-2), c(0) = 1, c(1) = 2, where m = n - 1
    counts = {}
    for n in range(1, 21):
        counts[n - 1] = len(enumerate_special(n))
        assert special_count(n) == counts[n - 1], n
    assert counts[0] == 1
    assert counts[1] == 2
    for m in range(2, 20):
        assert counts[m] == counts[m - 1] + counts[m - 2]
    assert counts[7] == 34
    with pytest.raises(ValueError):
        special_count(0)


def test_subsets_of_special_are_special():
    for n in range(1, 11):
        for i_set in enumerate_special(n):
            for k in i_set.subsets():
                assert k.is_special()


def test_subsets_iterates_in_lex_order():
    i_set = SimpleSubset(6, (1, 3, 5))
    listed = [k.members for k in i_set.subsets()]
    assert listed == [
        (),
        (1,),
        (1, 3),
        (1, 3, 5),
        (1, 5),
        (3,),
        (3, 5),
        (5,),
    ]
    assert listed == sorted(listed)
    members = (1, 3, 5, 7, 9, 11)
    listed = [k.members for k in SimpleSubset(12, members).subsets()]
    assert listed == sorted(
        chosen for size in range(7) for chosen in itertools.combinations(members, size)
    )


def test_long_subset_listings_do_not_recurse():
    # 1,500 members deep; the recursive generators overflowed the stack
    # near the 1,000th member
    odd = tuple(range(1, 3000, 2))
    chains = [odd[:size] for size in range(len(odd) + 1)]
    for listing in (
        (members for members, _, _ in _special_members(3001)),
        (k.members for k in SimpleSubset(3001, odd).subsets()),
    ):
        items = list(itertools.islice(listing, 2000))
        assert len(items) == len(set(items)) == 2000
        assert items[: len(chains)] == chains
        assert items == sorted(items)
        assert all(b - a >= 2 for members in items for a, b in zip(members, members[1:]))


@pytest.mark.parametrize("gap", [1, 2])
def test_lex_chains_label_each_chain(gap):
    def special(members):
        return SimpleSubset(members[-1] + 1 if members else 1, members).is_special()

    for n in range(1, 15):
        items = tuple(range(1, n))
        walk = list(_lex_chains(items, gap))
        chains = [m for m, _, _ in walk]
        # every chain of members at least gap apart, in lexicographic order
        assert chains == sorted(
            chosen
            for size in range(n)
            for chosen in itertools.combinations(items, size)
            if all(b - a >= gap for a, b in zip(chosen, chosen[1:]))
        ), n
        assert walk == [(m, ",".join(map(str, m)), special(m)) for m in chains], n
    # items that are not consecutive integers: (5, 7) is special, (11, 12)
    # and every chain holding both are not
    items = (1, 3, 5, 7, 11, 12, 13)
    walk = list(_lex_chains(items, 1, ";"))
    assert walk == [(m, ";".join(map(str, m)), special(m)) for m, _, _ in _lex_chains(items, 1)]
    assert {m: s for m, _, s in walk}[(5, 7)] is True
    assert {m: s for m, _, s in walk}[(1, 11, 12)] is False
    # the 16 subsets of (1, 3, 5, 7), each joined with one of the 5 special
    # subsets of (11, 12, 13)
    assert sum(s for _, _, s in walk) == 16 * 5


def test_trusted_subset_equals_the_checked_one():
    for n in range(1, 11):
        for members in all_subsets(n):
            checked = SimpleSubset(n, members)
            trusted = SimpleSubset._trusted(n, members, checked.is_special())
            assert trusted == checked and hash(trusted) == hash(checked)
            assert trusted.n == checked.n and trusted.members == checked.members
            assert trusted.is_special() == checked.is_special()
            assert str(trusted) == str(checked) and trusted.mask == checked.mask
            assert list(trusted.subsets()) == list(checked.subsets())
            for k, checked_k in zip(checked.subsets(), (SimpleSubset(n, m) for m, _, _ in _lex_chains(members, 1))):
                assert k == checked_k and k.is_special() == checked_k.is_special()


@pytest.mark.parametrize(
    "n, members, message",
    [
        (4, [1.5], r"member 1\.5 is not an int"),
        (4, [1.0, 3], r"member 1\.0 is not an int"),
        (4.0, (), r"rank 4\.0 is not an int"),
        (4, [True], "member True is not an int"),
    ],
)
def test_subset_refuses_non_integers(n, members, message):
    # each was accepted: {1.5} counted 4! coset reps, as if K were empty,
    # and {1.0,3} printed but raised TypeError in .mask
    with pytest.raises(ValueError, match=message):
        SimpleSubset(n, members)


def test_membership_is_false_for_non_integers():
    # 1.0 and True were members of {1}, as equal to 1
    subset = SimpleSubset(4, (1,))
    assert 1 in subset and 2 not in subset
    assert 1.0 not in subset and True not in subset


def test_longest_element():
    assert longest_element(SimpleSubset(3, ())) == identity(3)
    assert longest_element(SimpleSubset(3, (1,))) == Permutation((2, 1, 3))
    assert longest_element(SimpleSubset(4, (1, 3))) == Permutation((2, 1, 4, 3))
    with pytest.raises(NotSpecialError):
        longest_element(SimpleSubset(4, (2, 3)))


def test_longest_element_is_longest_in_parabolic():
    for n in range(2, 7):
        for k in enumerate_special(n):
            w0 = longest_element(k)
            group = parabolic_subgroup(k)
            assert len(group) == 2 ** len(k)
            assert w0 in group
            assert all(x.length <= w0.length for x in group)
            assert w0.length == len(k)


def test_minimal_coset_reps_examples():
    reps = list(minimal_coset_reps(SimpleSubset(3, (1,))))
    assert [w.images for w in reps] == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert [w.length for w in reps] == [0, 1, 2]
    reps = list(minimal_coset_reps(SimpleSubset(3, (2,))))
    assert [w.images for w in reps] == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert [w.length for w in reps] == [0, 1, 2]
    assert len(list(minimal_coset_reps(SimpleSubset(3, ())))) == 6
    with pytest.raises(NotSpecialError):
        minimal_coset_reps(SimpleSubset(4, (1, 2)))  # before iterating
    with pytest.raises(NotSpecialError):
        minimal_coset_rep_images(SimpleSubset(4, (1, 2)))  # before iterating


def filtered_coset_rep_images(n, members):
    """Oracle for the depth-first search: filter all n! permutations, in
    lexicographic order, by their ascents at the members of K."""
    positions = tuple(i - 1 for i in members)
    for images in itertools.permutations(range(1, n + 1)):
        if all(images[p] < images[p + 1] for p in positions):
            yield images


def assert_matches_filtered_oracle(k, generated):
    """generated, a list of (images, length, hits), is W^K in the oracle's
    order with every length equal to the inversion count."""
    assert [images for images, _, _ in generated] == list(
        filtered_coset_rep_images(k.n, k.members)
    ), k
    for images, length, _ in generated:
        assert length == Permutation(images).length, (k, images, length)


def test_search_matches_filtered_enumeration():
    for n in range(1, 9):
        for k in enumerate_special(n):
            assert_matches_filtered_oracle(k, list(minimal_coset_rep_images(k)))


@pytest.mark.parametrize("members", [(), (2,), (1, 3)])
def test_oracle_comparison_catches_a_wrong_length(members):
    k = SimpleSubset(4, members)
    generated = list(minimal_coset_rep_images(k))
    for index, (images, length, hits) in enumerate(generated):
        mutated = list(generated)
        mutated[index] = (images, length + 1, hits)
        with pytest.raises(AssertionError):
            assert_matches_filtered_oracle(k, mutated)


def test_search_hits_match_the_comparisons_of_each_row():
    # R_K(w) is read off the finished row by the comparisons r_references lists
    for n in range(1, 9):
        for k in enumerate_special(n):
            references = r_references(n, k.members)
            for images, _, hits in minimal_coset_rep_images(k):
                assert hits == tuple(comparison_hits(images, references)), (k, images)


def in_form(k, i, p):
    """Whether (i, p) is a reference of one of the two forms the search
    reads off Lehmer digits: p = i - 1, or p = i - 2 with i - 1 in K."""
    return p == i - 1 or p == i - 2 and i - 1 in k.members


def test_r_references_take_the_two_forms():
    # the search reads a hit off Lehmer digits only for these forms
    for n in range(1, 13):
        for k in enumerate_special(n):
            references = r_references(n, k.members)
            assert [i for i, _ in references] == list(k.complement()), k
            assert all(in_form(k, i, p) for i, p in references), (k, references)


def test_search_text_is_the_joined_images():
    # the separator changes only the first slot: each text item is the tuple
    # item's images joined, with the same length and hits
    for n in range(1, 9):
        names = list(map(str, range(n + 1)))  # str(v), looked up rather than converted
        for k in enumerate_special(n):
            images, *rest = zip(*minimal_coset_rep_images(k))
            for separator in "", "-", ",\n        ":
                texts, *text_rest = zip(*_coset_rep_search(n, k.members, separator))
                assert text_rest == rest, (k, separator)
                joined = [separator.join(map(names.__getitem__, w)) for w in images]
                assert list(texts) == joined, k


def test_search_hits_against_the_index_before_are_the_right_descents():
    # at each i outside K with i - 1 outside K the search compares w(i+1)
    # with w(i), so its hits there are the right descents: the descent
    # check reads them on I - K, where i - 1 lies outside the special I
    for n in range(1, 9):
        for k in enumerate_special(n):
            free = [i for i in range(1, n) if i not in k and i - 1 not in k]
            for images, _, hits in minimal_coset_rep_images(k):
                descents = Permutation(images).right_descents
                assert [i for i in free if i in hits] == [i for i in free if i in descents], (k, images)


# tuple mode, then the separators of the csv, the rank-10 and the JSON
# listings; a text item starts with the root the caller gives
SEPARATORS = (None, "", "-", ",\n        ")


def oracle_cases(n):
    """(K, separator) compared with the three-value-leaf oracle at rank n:
    every special K up to n = 8, and K = {} and {1, 3, 5, 7} at n = 9,
    each with every separator."""
    ks = enumerate_special(n) if n <= 8 else [SimpleSubset(n, ()), SimpleSubset(n, (1, 3, 5, 7))]
    return itertools.product(ks, SEPARATORS)


@pytest.mark.parametrize("n", range(1, 10))
def test_search_equals_the_three_value_leaf_oracle(n):
    # n <= 4 is one leaf with no floor; from n = 5 on the leaves sit below
    # a prefix. The oracle compares against r_references, as the search
    # does. The items are compared as they come, so nothing is held
    for k, separator in oracle_cases(n):
        root = "" if separator is None else f"K={k} w="
        expected = three_value_leaf_search(n, k.members, r_references(n, k.members), separator)
        if root:
            expected = ((root + text, length, hits) for text, length, hits in expected)
        generated = _coset_rep_search(n, k.members, separator, root)
        assert all(itertools.starmap(operator.eq, itertools.zip_longest(generated, expected))), (k, separator)


def leaf_table_builds(monkeypatch, n, ks, take):
    """The arguments of each leaf table built while take runs the search at
    rank n over each K of ks, read off `parabolic._leaf_rows`, which builds
    one table per call. The memo of patterns is held to its bound after
    every search."""
    built = []
    build = parabolic._leaf_rows

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(parabolic, "_leaf_rows", counted)
    for k in ks:
        take(_coset_rep_search(n, k.members, None))
        info = _leaf_tables.cache_info()
        assert info.currsize <= info.maxsize, info
    return built


def drain(items):
    deque(items, maxlen=0)


@pytest.mark.parametrize("n", [6, 8])
def test_leaf_tables_are_built_once_per_pattern(monkeypatch, n):
    # the search over every special K: tables built per K would number 65
    # at n = 6 and 170 at n = 8, while the 8 leaf patterns of every rank
    # n >= 5 hold 40 keys
    _leaf_tables.cache_clear()
    built = leaf_table_builds(monkeypatch, n, enumerate_special(n), drain)
    assert len(built) == len(set(built)) == 40
    assert len({args[:3] for args in built}) == _leaf_tables.cache_info().misses == 8


def test_leaf_tables_stay_within_their_bound(monkeypatch):
    # the first item of the search over every special K at n = 5..16, the
    # memo kept from rank to rank: 96 patterns, 8 per rank, pass through
    # its 64 places, and no table is built twice. No listing is drained
    _leaf_tables.cache_clear()
    for n in range(5, 17):
        built = leaf_table_builds(monkeypatch, n, enumerate_special(n), next)
        assert len(built) == len(set(built)) == 8, n
    info = _leaf_tables.cache_info()
    assert info.misses == 96 > info.maxsize, info


def test_minimal_coset_reps_are_valid_permutations():
    # the reps skip the bijection check; each equals the validated one
    for n in range(1, 8):
        for k in enumerate_special(n):
            for w in minimal_coset_reps(k):
                assert w == Permutation(w.images), (k, w)
                assert type(w) is Permutation and type(w.images) is tuple


def test_minimal_coset_reps_cardinality():
    for n in range(1, 8):
        for k in enumerate_special(n):
            expected = math.factorial(n) // 2 ** len(k)
            assert minimal_coset_rep_count(k) == expected
            assert len(list(minimal_coset_reps(k))) == expected


def enumerated_coset_rep_counts(n):
    """Oracle for minimal_coset_rep_count: filter all n! permutations once
    by their ascent sets and count, for each special K, those ascending
    at every member of K."""
    ascent_masks = Counter(
        sum(1 << i for i in range(n - 1) if images[i] < images[i + 1])
        for images in itertools.permutations(range(1, n + 1))
    )
    return {
        k: sum(c for mask, c in ascent_masks.items() if mask & k.mask == k.mask)
        for k in enumerate_special(n)
    }


def test_recursive_count_matches_enumeration_oracle():
    for n in range(1, 9):
        for k, expected in enumerated_coset_rep_counts(n).items():
            assert minimal_coset_rep_count(k) == expected, k


def test_recursive_count_matches_formula_past_the_enumeration():
    for n in range(9, 17):
        for k in enumerate_special(n):
            assert minimal_coset_rep_count(k) == math.factorial(n) // 2 ** len(k)


def test_recursive_count_passes_the_recursion_limit():
    n = sys.getrecursionlimit() + 200
    assert minimal_coset_rep_count(SimpleSubset(n, ())) == math.factorial(n)
    assert minimal_coset_rep_count(SimpleSubset(n, (1,))) == math.factorial(n) // 2


def test_minimal_coset_reps_in_lexicographic_order():
    # the listing digests depend on this order
    for n in range(1, 6):
        for k in enumerate_special(n):
            images = [w.images for w in minimal_coset_reps(k)]
            assert images == sorted(
                p for p in itertools.permutations(range(1, n + 1))
                if is_minimal_rep(k, Permutation(p))
            )


def test_counting_coset_reps_stores_nothing():
    for k in SimpleSubset(8, ()), SimpleSubset(30, range(1, 30, 2)):
        tracemalloc.start()
        try:
            count = minimal_coset_rep_count(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == math.factorial(k.n) // 2 ** len(k), k
        assert peak < 1_000_000, k


def test_coset_factorization_is_unique_with_additive_length():
    # every w = u * x with u in W^K, x in W_K, uniquely, and lengths add
    for n in range(2, 6):
        for k in enumerate_special(n):
            reps = set(minimal_coset_reps(k))
            group = parabolic_subgroup(k)
            for w in enumerate_permutations(n):
                factorizations = [
                    (w * x.inverse(), x)
                    for x in group
                    if (w * x.inverse()) in reps
                ]
                assert len(factorizations) == 1
                u, x = factorizations[0]
                assert u * x == w
                assert u.length + x.length == w.length


def test_is_minimal_rep():
    k = SimpleSubset(3, (1,))
    assert is_minimal_rep(k, Permutation((2, 3, 1)))
    assert not is_minimal_rep(k, Permutation((3, 2, 1)))
    with pytest.raises(ValueError):
        is_minimal_rep(k, Permutation((1, 2)))


def test_complement_difference_mask():
    i_set = SimpleSubset(6, (1, 4))
    assert i_set.complement() == (2, 3, 5)
    assert i_set.difference(SimpleSubset(6, (4,))) == (1,)
    assert i_set.mask == 0b01001
    assert SimpleSubset(6, (4,)).issubset(i_set)
    assert not i_set.issubset(SimpleSubset(6, (4,)))
    with pytest.raises(ValueError):
        i_set.issubset(SimpleSubset(5, (4,)))
