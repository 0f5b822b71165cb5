import itertools
import math
from fractions import Fraction

import pytest

from quadrics import nilfix
from quadrics.nilfix import (
    FixedQuadricSpace,
    NotSymmetricError,
    PrimeTooSmallError,
    RationalMatrix,
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


def test_fixed_quadric_space_is_cached_value_object():
    assert fixed_quadric_space(3) is fixed_quadric_space(3)
    assert isinstance(fixed_quadric_space(4), FixedQuadricSpace)
