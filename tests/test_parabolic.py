import itertools
import math
import tracemalloc
from collections import Counter

import pytest

from quadrics.parabolic import (
    NotSpecialError,
    SimpleSubset,
    enumerate_special,
    is_minimal_rep,
    longest_element,
    minimal_coset_rep_count,
    minimal_coset_rep_images,
    minimal_coset_reps,
    parabolic_subgroup,
    special_count,
)
from quadrics.symmetric_group import Permutation, enumerate_permutations, identity


def all_subsets(n):
    for r in range(n):
        yield from itertools.combinations(range(1, n), r)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SimpleSubset(3, (3,))
    with pytest.raises(ValueError):
        SimpleSubset(3, (0,))
    with pytest.raises(ValueError):
        SimpleSubset(4, (2, 2))
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
    reps = minimal_coset_reps(SimpleSubset(3, (1,)))
    assert [w.images for w in reps] == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert [w.length for w in reps] == [0, 1, 2]
    reps = minimal_coset_reps(SimpleSubset(3, (2,)))
    assert [w.images for w in reps] == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
    assert [w.length for w in reps] == [0, 1, 2]
    assert len(minimal_coset_reps(SimpleSubset(3, ()))) == 6
    with pytest.raises(NotSpecialError):
        minimal_coset_reps(SimpleSubset(4, (1, 2)))
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
    """generated, a list of (images, length), is W^K in the oracle's order
    with every length equal to the inversion count."""
    assert [images for images, _ in generated] == list(
        filtered_coset_rep_images(k.n, k.members)
    ), k
    for images, length in generated:
        assert length == Permutation(images).length, (k, images, length)


def test_search_matches_filtered_enumeration():
    for n in range(1, 9):
        for k in enumerate_special(n):
            assert_matches_filtered_oracle(k, list(minimal_coset_rep_images(k)))


@pytest.mark.parametrize("members", [(), (2,), (1, 3)])
def test_oracle_comparison_catches_a_wrong_length(members):
    k = SimpleSubset(4, members)
    generated = list(minimal_coset_rep_images(k))
    for index, (images, length) in enumerate(generated):
        mutated = list(generated)
        mutated[index] = (images, length + 1)
        with pytest.raises(AssertionError):
            assert_matches_filtered_oracle(k, mutated)


def test_minimal_coset_reps_cardinality():
    for n in range(1, 8):
        for k in enumerate_special(n):
            expected = math.factorial(n) // 2 ** len(k)
            assert minimal_coset_rep_count(k) == expected
            assert len(minimal_coset_reps(k)) == expected


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
    minimal_coset_rep_count.cache_clear()
    for n in range(1, 9):
        for k, expected in enumerated_coset_rep_counts(n).items():
            assert minimal_coset_rep_count(k) == expected, k


def test_recursive_count_matches_formula_past_the_enumeration():
    for n in range(9, 17):
        for k in enumerate_special(n):
            assert minimal_coset_rep_count(k) == math.factorial(n) // 2 ** len(k)


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
    minimal_coset_rep_count.cache_clear()
    tracemalloc.start()
    try:
        count = minimal_coset_rep_count(SimpleSubset(8, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == math.factorial(8)
    assert peak < 1_000_000


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
