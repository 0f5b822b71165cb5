import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quadrics import nilfix
from quadrics.nilfix import (
    FixedQuadricSpace,
    NotSymmetricError,
    RegularityResult,
    RegularityWitness,
    fixed_quadric_space,
    fixed_system_rows,
    infinitesimal_fixed_condition,
    nullspace_basis,
    regular_nilpotent,
    regularity_classifier,
    row_echelon_rank,
)
from quadrics.parabolic import NotSpecialError, SimpleSubset, enumerate_special

from oracles import (
    PrimeTooSmallError,
    block_sizes,
    fixed_flag,
    fixed_flag_uniqueness_oracle,
    rational_nullspace,
    rational_rank,
)


def identity(m):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def is_zero(mat):
    return not any(map(any, mat))


def test_int_matrix_basics():
    e = regular_nilpotent(2)
    assert e == ((0, 1), (0, 0)) and all(type(x) is int for row in e for x in row)
    assert nilfix._int_det([[1, 2], [3, 4]]) == -2
    assert infinitesimal_fixed_condition(e, ((1, 5), (5, 2))) == ((0, 1), (1, 10))
    # lists of rows are read as the tuples they stand for
    assert infinitesimal_fixed_condition([[0, 1], [0, 0]], [[1, 5], [5, 2]]) == ((0, 1), (1, 10))
    with pytest.raises(NotSymmetricError):
        infinitesimal_fixed_condition(e, ((1, 2), (3, 4)))
    for bad_e, bad_a in (
        (e, ((1, 2, 3),)),  # not square
        (e, ((1,), (2, 3))),  # ragged
        (((0, 1),), ((1, 5), (5, 2))),  # e not square
        (((0, 1, 0), (0, 0)), identity(2)),  # e ragged
        ((), ()),  # empty
    ):
        with pytest.raises(ValueError):
            infinitesimal_fixed_condition(bad_e, bad_a)


small_ints = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def nilpotent_and_quadric(draw):
    """A random int e and a random symmetric int A of the same size."""
    m = draw(st.integers(1, 5))
    e = tuple(tuple(draw(small_ints) for _ in range(m)) for _ in range(m))
    upper = {(i, j): draw(small_ints) for i in range(m) for j in range(i, m)}
    a = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(m)) for i in range(m))
    return e, a


@given(nilpotent_and_quadric())
def test_product_matches_the_definition(pair):
    e, a = pair
    m = len(a)
    expected = tuple(
        tuple(sum(e[k][i] * a[k][j] + a[i][k] * e[k][j] for k in range(m)) for j in range(m))
        for i in range(m)
    )
    got = infinitesimal_fixed_condition(e, a)
    assert got == expected
    assert all(type(x) is int for row in got for x in row)


@st.composite
def integer_matrices(draw):
    """Integer combinations of a few random rows, so low ranks and
    non-unit pivots are common."""
    ncols = draw(st.integers(1, 7))
    small = st.integers(-4, 4)
    base = [[draw(small) for _ in range(ncols)] for _ in range(draw(st.integers(1, 4)))]
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        coeffs = [draw(small) for _ in base]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(ncols)])
    return ncols, rows


@given(integer_matrices())
def test_fraction_free_rank_equals_fraction_rank(matrix):
    ncols, rows = matrix
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    for order in (None, range(ncols - 1, -1, -1)):
        expected = rational_rank(as_fractions, column_order=order)
        assert row_echelon_rank(sparse, column_order=order) == expected


def test_integer_rows_take_the_fraction_free_path():
    assert row_echelon_rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    assert row_echelon_rank([{0: 2, 1: 4}, {0: 1, 1: 3}]) == 2
    assert row_echelon_rank([]) == 0
    # explicit zeros and empty rows count for nothing
    assert row_echelon_rank([{0: 0, 1: 3}, {}, {1: 0}]) == 1
    # rows of anything but ints are refused, not eliminated
    with pytest.raises(TypeError):
        row_echelon_rank([{0: Fraction(2), 1: 4}, {0: 1, 1: 2}])


def test_regular_nilpotent():
    assert regular_nilpotent(1) == ((0,),)
    assert regular_nilpotent(3) == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    for m in range(1, 7):
        e = regular_nilpotent(m)
        assert row_echelon_rank([dict(enumerate(row)) for row in e]) == m - 1


def test_infinitesimal_fixed_condition():
    e3 = regular_nilpotent(3)
    family_member = ((0, 0, 5), (0, -5, 0), (5, 0, 7))
    assert is_zero(infinitesimal_fixed_condition(e3, family_member))
    e2 = regular_nilpotent(2)
    assert not is_zero(infinitesimal_fixed_condition(e2, identity(2)))
    zero = ((0,) * 3,) * 3
    assert is_zero(infinitesimal_fixed_condition(zero, identity(3)))
    with pytest.raises(NotSymmetricError):
        infinitesimal_fixed_condition(e2, ((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        infinitesimal_fixed_condition(e3, identity(2))


def test_fixed_quadric_space_m2_is_exactly_the_degenerate_quadric():
    space = fixed_quadric_space(2)
    assert space.dimension == 1
    assert space.basis == (((0, 0), (0, 1)),)
    assert space.has_nondegenerate is False


def test_fixed_quadric_space_m3_is_the_two_parameter_family():
    space = fixed_quadric_space(3)
    assert space.dimension == 2
    c_part = ((0, 0, 1), (0, -1, 0), (1, 0, 0))
    f_part = ((0, 0, 0), (0, 0, 0), (0, 0, 1))
    assert space.basis == (c_part, f_part)
    # det of the c-component alone is c^3, so nondegenerate members exist
    assert nilfix._int_det([list(row) for row in c_part]) == 1
    assert space.has_nondegenerate is True


def test_fixed_quadric_space_m1():
    space = fixed_quadric_space(1)
    assert space.dimension == 1
    assert space.has_nondegenerate is True


def test_fixed_quadric_space_basis_satisfies_condition():
    for m in range(1, 9):
        space = fixed_quadric_space(m)
        e = regular_nilpotent(m)
        for mat in space.basis:
            assert mat == tuple(zip(*mat))
            assert is_zero(infinitesimal_fixed_condition(e, mat))


def test_fixed_quadric_basis_entries_are_plain_ints_of_size_at_most_one():
    for m in range(1, 31):
        for mat in fixed_quadric_space(m).basis:
            assert len(mat) == m and all(len(row) == m for row in mat)
            for row in mat:
                assert all(type(x) is int and x in (-1, 0, 1) for x in row), (m, row)


def test_fixed_quadric_space_dimension_against_reversed_elimination():
    for m in range(1, 21):
        rows = fixed_system_rows(m)
        ncols = m * (m + 1) // 2
        forward = row_echelon_rank(rows)
        backward = row_echelon_rank(rows, column_order=range(ncols - 1, -1, -1))
        assert forward == backward
        assert fixed_quadric_space(m).dimension == ncols - forward


def test_nondegenerate_exists_only_in_odd_blocks():
    # even-size blocks never carry a fixed nondegenerate quadric; odd ones do
    for m in range(1, 17):
        assert fixed_quadric_space(m).has_nondegenerate == (m % 2 == 1)


def grid_has_nondegenerate(space: FixedQuadricSpace) -> bool:
    """Brute-force oracle for has_nondegenerate. det(sum t_b B_b) is a
    polynomial of degree at most m in each t_b, so it vanishes identically
    on the span exactly when it vanishes at every point of the grid
    {0, ..., m}^dim; the grid is swept with early exit on the first
    non-zero determinant."""
    m = space.block_size
    int_basis = space.basis
    for point in itertools.product(range(m + 1), repeat=len(int_basis)):
        if not any(point):
            continue
        candidate = [
            [sum(t * b[i][j] for t, b in zip(point, int_basis)) for j in range(m)]
            for i in range(m)
        ]
        if nilfix._int_det(candidate) != 0:
            return True
    return False


@pytest.fixture
def fresh_fixed_quadric_cache():
    """Empty the fixed-quadric cache and the classifier's memos built on it
    before and after the test; the test may call the yielded function to
    empty them again, e.g. after patching the solve."""

    def clear():
        fixed_quadric_space.cache_clear()
        nilfix._witness.cache_clear()

    clear()
    yield clear
    clear()


def test_certificate_matches_grid_oracle():
    for m in range(1, 9):
        space = fixed_quadric_space(m)
        assert space.has_nondegenerate == grid_has_nondegenerate(space)


def test_fixed_quadric_space_computes_no_determinant(monkeypatch, fresh_fixed_quadric_cache):
    def refuse(a):
        raise AssertionError("fixed_quadric_space evaluated a determinant")

    monkeypatch.setattr(nilfix, "_int_det", refuse)
    for m in range(1, 10):
        assert fixed_quadric_space(m).has_nondegenerate == (m % 2 == 1)


def test_certificate_rejects_entry_above_anti_diagonal(monkeypatch, fresh_fixed_quadric_cache):
    # a one-vector "basis" with a single non-zero upper-triangle coordinate
    # (i, j) must trip the guard exactly when i + j < m - 1; otherwise it
    # leaves some anti-diagonal entry zero, so it is degenerate
    for m in (3, 4, 6):
        for t, (i, j) in enumerate(nilfix._sym_pairs(m)):
            unit = tuple(int(s == t) for s in range(m * (m + 1) // 2))
            monkeypatch.setattr(nilfix, "nullspace_basis", lambda rows, ncols: [unit])
            fixed_quadric_space.cache_clear()
            if i + j < m - 1:
                with pytest.raises(RuntimeError):
                    fixed_quadric_space(m)
            else:
                space = fixed_quadric_space(m)
                assert space.dimension == 1
                assert space.has_nondegenerate is grid_has_nondegenerate(space) is False


def test_cleared_caches_leave_no_stale_witness(monkeypatch, fresh_fixed_quadric_cache):
    # the classifier remembers its block test and witnesses; once the
    # caches are cleared, a witness must carry the family solved now, not
    # one built from the solve in place before
    solve = nilfix.nullspace_basis
    before = regularity_classifier(SimpleSubset(4, (1, 2))).witness.family
    assert before is fixed_quadric_space(3)
    monkeypatch.setattr(
        nilfix,
        "nullspace_basis",
        lambda rows, ncols: [tuple(2 * x for x in vec) for vec in solve(rows, ncols)],
    )
    fresh_fixed_quadric_cache()
    witness = regularity_classifier(SimpleSubset(4, (1, 2))).witness
    assert witness.family is fixed_quadric_space(3)
    assert witness.family != before


def test_nullspace_basis_equals_the_dense_solve():
    # same vectors, same order, same signs as the dense Gauss-Jordan oracle
    for m in range(1, 21):
        ncols = m * (m + 1) // 2
        rows = fixed_system_rows(m)
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert nullspace_basis(rows, ncols) == rational_nullspace(dense, ncols), m


def test_fixed_quadric_basis_is_one_alternating_vector_per_even_anti_diagonal():
    for m in range(1, 12):
        expected = []
        for s in range(m - 1, 2 * m - 1):
            if s % 2:
                continue
            mat = [[0] * m for _ in range(m)]
            for t in range(s - m + 1, s // 2 + 1):
                mat[t][s - t] = mat[s - t][t] = (-1) ** (t - s + m - 1)
            expected.append(tuple(map(tuple, mat)))
        assert fixed_quadric_space(m).basis == tuple(expected), m


def test_nullspace_basis_small_system():
    # x + y = 0, y + z = 0 inside Q^3, and no equation inside Q^2: the
    # oracle on dense rows, then the solve on the same rows made sparse
    for dense, ncols, expected in (
        ([[1, 1, 0], [0, 1, 1]], 3, [(1, -1, 1)]),
        ([], 2, [(1, 0), (0, 1)]),
    ):
        basis = rational_nullspace(dense, ncols)
        assert basis == [tuple(map(Fraction, vec)) for vec in expected]
        sparse = [{c: x for c, x in enumerate(row) if x} for row in dense]
        assert nullspace_basis(sparse, ncols) == expected


def test_nullspace_basis_pins_and_free_columns():
    # a chain x + y = 0, y + z = 0 pinned by 2 z = 0 has no solution but 0
    assert nullspace_basis([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 2}], 3) == []
    # a column that no equation touches is free, its vector a unit vector
    assert nullspace_basis([{0: 1, 2: 1}], 3) == [(0, 1, 0), (1, 0, -1)]
    # 2 x + 3 y = 0 with y = 1 has no integral solution: refused, not floored
    with pytest.raises(RuntimeError):
        nullspace_basis([{0: 2, 1: 3}], 2)
    # leads of 3 and -1 divide their rows exactly
    assert nullspace_basis([{0: 3, 1: 3}], 2) == [(1, -1)]
    assert nullspace_basis([{0: -1, 1: 2}], 2) == [(2, 1)]


@given(integer_matrices())
def test_sparse_solve_is_the_rational_solve_when_integral(matrix):
    # the reduced row echelon form is unique, so the solve returns the
    # oracle's basis exactly when that basis is integral, and refuses it
    # otherwise
    ncols, rows = matrix
    expected = rational_nullspace(rows, ncols)
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    if all(x.denominator == 1 for vec in expected for x in vec):
        assert nullspace_basis(sparse, ncols) == expected
    else:
        with pytest.raises(RuntimeError):
            nullspace_basis(sparse, ncols)


def test_fixed_flag():
    assert fixed_flag(SimpleSubset(3, ())) == [1, 2, 3]
    assert fixed_flag(SimpleSubset(3, (1,))) == [2, 3]
    assert fixed_flag(SimpleSubset(6, (2, 5))) == [1, 3, 4, 6]
    with pytest.raises(NotSpecialError):
        fixed_flag(SimpleSubset(4, (2, 3)))
    # the blocks the classifier reads off block_sizes are the quotients of
    # this flag
    for n in range(1, 8):
        for k in enumerate_special(n):
            dims = [0] + fixed_flag(k)
            assert block_sizes(n, k.members) == tuple(b - a for a, b in zip(dims, dims[1:]))


def test_fixed_flag_uniqueness_oracle():
    assert fixed_flag_uniqueness_oracle(2, SimpleSubset(2, ()), 3) == 1
    assert fixed_flag_uniqueness_oracle(3, SimpleSubset(3, ()), 5) == 1
    assert fixed_flag_uniqueness_oracle(3, SimpleSubset(3, (1,)), 5) == 1
    assert fixed_flag_uniqueness_oracle(3, SimpleSubset(3, (2,)), 7) == 1
    assert fixed_flag_uniqueness_oracle(4, SimpleSubset(4, ()), 5) == 1
    assert fixed_flag_uniqueness_oracle(4, SimpleSubset(4, (2,)), 7) == 1
    assert fixed_flag_uniqueness_oracle(4, SimpleSubset(4, (1, 3)), 5) == 1
    with pytest.raises(PrimeTooSmallError):
        fixed_flag_uniqueness_oracle(3, SimpleSubset(3, ()), 3)
    with pytest.raises(ValueError):
        fixed_flag_uniqueness_oracle(3, SimpleSubset(3, ()), 6)
    with pytest.raises(ValueError):
        fixed_flag_uniqueness_oracle(5, SimpleSubset(5, ()), 7)


def test_block_sizes():
    assert block_sizes(3, ()) == (1, 1, 1)
    assert block_sizes(3, (1,)) == (2, 1)
    assert block_sizes(3, (1, 2)) == (3,)
    assert block_sizes(6, (2, 4)) == (1, 2, 2, 1)
    assert block_sizes(7, (1, 2, 5)) == (3, 1, 2, 1)
    assert block_sizes(7, (1, 2, 4, 5)) == (3, 3, 1)


def test_regularity_classifier_examples():
    assert regularity_classifier(SimpleSubset(3, (1,))).regular
    assert regularity_classifier(SimpleSubset(5, (2, 4))).regular
    result = regularity_classifier(SimpleSubset(3, (1, 2)))
    assert not result.regular
    witness = result.witness
    assert witness is not None
    assert witness.k == SimpleSubset(3, (1, 2))
    assert witness.block_start == 1
    assert witness.block_size == 3
    assert witness.family == fixed_quadric_space(3)
    assert witness.family.basis == (
        ((0, 0, 1), (0, -1, 0), (1, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    )


def test_regularity_classifier_agrees_with_specialness():
    import itertools

    for n in range(1, 7):
        for r in range(n):
            for members in itertools.combinations(range(1, n), r):
                i_set = SimpleSubset(n, members)
                result = regularity_classifier(i_set)
                assert result.regular == i_set.is_special()
                if not result.regular:
                    assert result.witness is not None
                    assert set(result.witness.k.members) <= set(members)
                    assert result.witness.family.has_nondegenerate


def enumeration_classifier(i_set):
    """Oracle for regularity_classifier: walk every K inside I in the order
    of I.subsets() and report the first non-empty K whose blocks all carry
    a nondegenerate fixed quadric, with the first of its blocks whose
    family has dimension at least 2, else its first block of size at least
    2. It reads the spaces through the module, so a test that patches
    nilfix.fixed_quadric_space patches the oracle too."""
    n = i_set.n
    space = nilfix.fixed_quadric_space
    for k in i_set.subsets():
        if not k.members:
            continue
        sizes = block_sizes(n, k.members)
        if all(space(m).has_nondegenerate for m in sizes):
            start = 1
            chosen = None
            for m in sizes:
                if space(m).dimension >= 2:
                    chosen = (start, m)
                    break
                start += m
            if chosen is None:
                start = 1
                for m in sizes:
                    if m >= 2:
                        chosen = (start, m)
                        break
                    start += m
            block_start, block_size = chosen
            return RegularityResult(
                False, RegularityWitness(k, block_start, block_size, space(block_size))
            )
    return RegularityResult(True, None)


def every_subset(n):
    for r in range(n):
        for members in itertools.combinations(range(1, n), r):
            yield SimpleSubset(n, members)


def test_classifier_matches_enumeration_oracle():
    for n in range(1, 12):
        for i_set in every_subset(n):
            got = regularity_classifier(i_set)
            expected = enumeration_classifier(i_set)
            assert got.regular == expected.regular, i_set
            if expected.witness is None:
                assert got.witness is None, i_set
                continue
            for field in ("k", "block_start", "block_size", "family"):
                assert getattr(got.witness, field) == getattr(expected.witness, field), (i_set, field)


def test_witness_search_matches_enumeration_for_any_block_rule(monkeypatch, fresh_fixed_quadric_cache):
    # the classifier must not lean on which block sizes happen to pass: for
    # every rule on the sizes 1..n with n <= 7, and for random rules up to
    # n = 10, it finds the same first witness as walking the subsets; a
    # rule that rejects blocks of size 1 leaves no base point and is refused
    def check(n, allowed, member_sets):
        fresh_fixed_quadric_cache()
        # the real families, but nondegenerate exactly at the allowed sizes
        spaces = {
            m: fixed_quadric_space(m)._replace(has_nondegenerate=m in allowed) for m in range(1, n + 1)
        }
        monkeypatch.setattr(nilfix, "fixed_quadric_space", spaces.__getitem__)
        for members in member_sets:
            i_set = SimpleSubset(n, members)
            if 1 not in allowed:
                with pytest.raises(RuntimeError):
                    regularity_classifier(i_set)
                continue
            got = regularity_classifier(i_set)
            expected = enumeration_classifier(i_set)
            assert got.regular == expected.regular, (i_set, allowed)
            if expected.witness is None:
                assert got.witness is None, (i_set, allowed)
                continue
            assert got.witness[:3] == expected.witness[:3], (i_set, allowed)

    for n in range(1, 8):
        member_sets = [i_set.members for i_set in every_subset(n)]
        for rule in range(1 << n):
            check(n, {m for m in range(1, n + 1) if rule >> (m - 1) & 1}, member_sets)
    rng = random.Random(11)
    for _ in range(400):
        allowed = {m for m in range(1, 12) if rng.random() < 0.5}
        n = rng.randint(1, 10)
        check(n, allowed, [tuple(sorted(rng.sample(range(1, n), rng.randint(0, n - 1))))])


def test_classifier_tests_each_block_size_once(monkeypatch, fresh_fixed_quadric_cache):
    # a size is tested when a stretch of members first reaches it, so one
    # run of 1999 members costs at most 2n size tests, and runs that never
    # grow past 2 cost the tests of the sizes 1, 2 and 3 alone; the stand-in
    # spaces carry no basis, since solving m = 2000 would be wasted work
    n = 2000
    calls = 0

    def classify(members, allowed):
        nonlocal calls
        calls = 0

        def space(m):
            nonlocal calls
            calls += 1
            return FixedQuadricSpace(m, (), m in allowed)

        monkeypatch.setattr(nilfix, "fixed_quadric_space", space)
        fresh_fixed_quadric_cache()
        return regularity_classifier(SimpleSubset(n, members))

    assert classify(range(1, n), {1}) == RegularityResult(True, None)
    assert calls <= 2 * n
    result = classify(range(1, n), {1, n})
    assert result.witness[:3] == (SimpleSubset(n, range(1, n)), 1, n)
    assert calls <= 2 * n
    assert classify([i for i in range(1, n) if i % 3], {1}) == RegularityResult(True, None)
    assert calls == 3


def test_classifier_does_not_list_subsets(monkeypatch):
    def refuse(self):
        raise AssertionError("regularity_classifier listed the subsets of I")

    special = SimpleSubset(16, range(1, 16, 2))
    non_special = SimpleSubset(16, (2, 5, 9, 11, 12, 15))
    expected = enumeration_classifier(non_special)
    monkeypatch.setattr(SimpleSubset, "subsets", refuse)
    assert regularity_classifier(special) == RegularityResult(True, None)
    assert regularity_classifier(non_special) == expected
    assert expected.witness.k == SimpleSubset(16, (11, 12))
    # n = 2000 is far beyond the oracle, so these expectations are by hand
    assert regularity_classifier(SimpleSubset(2000, range(1, 2000))) == RegularityResult(
        False, RegularityWitness(SimpleSubset(2000, (1, 2)), 1, 3, fixed_quadric_space(3))
    )
    assert regularity_classifier(SimpleSubset(2000, range(1, 2000, 2))) == RegularityResult(True, None)


def test_fixed_quadric_space_is_cached_value_object():
    assert fixed_quadric_space(3) is fixed_quadric_space(3)
    assert isinstance(fixed_quadric_space(4), FixedQuadricSpace)


def test_result_classes_are_immutable_named_tuples():
    assert FixedQuadricSpace._fields == ("block_size", "basis", "has_nondegenerate")
    assert RegularityWitness._fields == ("k", "block_start", "block_size", "family")
    assert RegularityResult._fields == ("regular", "witness")
    assert RegularityResult(True) == (True, None)
    regular, witness = regularity_classifier(SimpleSubset(4, (1, 2)))
    assert not regular
    assert witness.family.dimension == len(witness.family.basis)
    for obj, field in ((witness.family, "basis"), (witness, "k")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
