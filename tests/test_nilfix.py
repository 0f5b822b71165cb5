import itertools
import math
import random
from fractions import Fraction

import pytest

from quadrics import nilfix
from quadrics.nilfix import (
    FixedQuadricSpace,
    NotSymmetricError,
    PrimeTooSmallError,
    RationalMatrix,
    RegularityResult,
    RegularityWitness,
    block_sizes,
    diagonal_h,
    fixed_flag,
    fixed_flag_uniqueness_oracle,
    fixed_quadric_space,
    fixed_system_rows,
    infinitesimal_fixed_condition,
    nullspace_basis,
    regular_nilpotent,
    regularity_classifier,
    row_echelon_rank,
)
from quadrics.parabolic import NotSpecialError, SimpleSubset


def test_rational_matrix_basics():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a[0, 1] == 2
    assert a.transpose() == RationalMatrix([[1, 3], [2, 4]])
    assert (a - a).is_zero()
    assert a * RationalMatrix.identity(2) == a
    assert nilfix._int_det([[1, 2], [3, 4]]) == -2
    assert RationalMatrix([[Fraction(1, 2)]]).scale(2) == RationalMatrix([[1]])
    assert not a.is_symmetric()
    assert RationalMatrix([[1, 5], [5, 2]]).is_symmetric()
    with pytest.raises(ValueError):
        a * RationalMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        RationalMatrix([[1], [2, 3]])


def test_regular_nilpotent():
    assert regular_nilpotent(1) == RationalMatrix([[0]])
    assert regular_nilpotent(3) == RationalMatrix(
        [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    )
    for m in range(1, 7):
        e = regular_nilpotent(m)
        assert row_echelon_rank(e.entries) == m - 1


def test_sl2_triple_bracket():
    for m in range(1, 7):
        e = regular_nilpotent(m)
        h = diagonal_h(m)
        assert h * e - e * h == e.scale(2)


def test_infinitesimal_fixed_condition():
    e3 = regular_nilpotent(3)
    family_member = RationalMatrix([[0, 0, 5], [0, -5, 0], [5, 0, 7]])
    assert infinitesimal_fixed_condition(e3, family_member).is_zero()
    e2 = regular_nilpotent(2)
    assert not infinitesimal_fixed_condition(e2, RationalMatrix.identity(2)).is_zero()
    zero = RationalMatrix.zeros(3, 3)
    assert infinitesimal_fixed_condition(zero, RationalMatrix.identity(3)).is_zero()
    with pytest.raises(NotSymmetricError):
        infinitesimal_fixed_condition(e2, RationalMatrix([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        infinitesimal_fixed_condition(e3, RationalMatrix.identity(2))


def test_fixed_quadric_space_m2_is_exactly_the_degenerate_quadric():
    space = fixed_quadric_space(2)
    assert space.dimension == 1
    assert space.basis == (RationalMatrix([[0, 0], [0, 1]]),)
    assert space.has_nondegenerate is False


def test_fixed_quadric_space_m3_is_the_two_parameter_family():
    space = fixed_quadric_space(3)
    assert space.dimension == 2
    c_part = RationalMatrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    f_part = RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert space.basis == (c_part, f_part)
    # det of the c-component alone is c^3, so nondegenerate members exist
    assert nilfix._int_det([[int(x) for x in row] for row in c_part.entries]) == 1
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
            assert mat.is_symmetric()
            assert infinitesimal_fixed_condition(e, mat).is_zero()


def test_fixed_quadric_space_dimension_against_reversed_elimination():
    for m in range(1, 9):
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
    int_basis = []
    for mat in space.basis:
        scale = math.lcm(*(x.denominator for row in mat.entries for x in row))
        int_basis.append([[int(x * scale) for x in row] for row in mat.entries])
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
    fixed_quadric_space.cache_clear()
    yield
    fixed_quadric_space.cache_clear()


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
    for m in (3, 4):
        for t, (i, j) in enumerate(nilfix._sym_pairs(m)):
            unit = tuple(Fraction(int(s == t)) for s in range(m * (m + 1) // 2))
            monkeypatch.setattr(nilfix, "nullspace_basis", lambda rows, ncols: [unit])
            fixed_quadric_space.cache_clear()
            if i + j < m - 1:
                with pytest.raises(RuntimeError):
                    fixed_quadric_space(m)
            else:
                space = fixed_quadric_space(m)
                assert space.dimension == 1
                assert space.has_nondegenerate is grid_has_nondegenerate(space) is False


def test_nullspace_basis_small_system():
    # x + y = 0, y + z = 0 inside Q^3
    basis = nullspace_basis([[1, 1, 0], [0, 1, 1]], 3)
    assert basis == [(Fraction(1), Fraction(-1), Fraction(1))]
    assert nullspace_basis([], 2) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]


def test_fixed_flag():
    assert fixed_flag(SimpleSubset(3, ())) == [1, 2, 3]
    assert fixed_flag(SimpleSubset(3, (1,))) == [2, 3]
    assert fixed_flag(SimpleSubset(6, (2, 5))) == [1, 3, 4, 6]
    with pytest.raises(NotSpecialError):
        fixed_flag(SimpleSubset(4, (2, 3)))


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
        RationalMatrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
        RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
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
    a nondegenerate fixed quadric."""
    n = i_set.n
    for k in i_set.subsets():
        if not k.members:
            continue
        sizes = block_sizes(n, k.members)
        if all(fixed_quadric_space(m).has_nondegenerate for m in sizes):
            start = 1
            chosen = None
            for m in sizes:
                if fixed_quadric_space(m).dimension >= 2:
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
                False,
                RegularityWitness(k, block_start, block_size, fixed_quadric_space(block_size)),
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


def test_witness_search_matches_enumeration_for_any_block_rule():
    # the search must not lean on which block sizes happen to pass: for
    # random rules, including ones that reject blocks of size 1, it finds
    # the same first K as walking the subsets
    rng = random.Random(11)
    for _ in range(400):
        allowed = {m for m in range(1, 12) if rng.random() < 0.5}
        n = rng.randint(1, 10)
        members = tuple(sorted(rng.sample(range(1, n), rng.randint(0, n - 1))))
        expected = next(
            (
                k.members
                for k in SimpleSubset(n, members).subsets()
                if k.members and all(m in allowed for m in block_sizes(n, k.members))
            ),
            None,
        )
        assert nilfix._first_witness_members(n, members, allowed.__contains__) == expected


def test_witness_search_remembers_failed_states():
    # only blocks of size 2 allowed: the one candidate K = {1, 3, ..., 39}
    # needs 39, which is missing, so every branch fails; without the memo
    # of failed states the search would revisit Fibonacci-many prefixes
    calls = 0

    def only_pairs(m):
        nonlocal calls
        calls += 1
        assert calls < 100_000, "the witness search re-explores failed states"
        return m == 2

    assert nilfix._first_witness_members(40, tuple(range(1, 39)), only_pairs) is None
    assert nilfix._first_witness_members(40, tuple(range(1, 40)), only_pairs) == tuple(range(1, 40, 2))


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
