import itertools

import pytest
from hypothesis import given, strategies as st

from quadrics.symmetric_group import Permutation, WeightVector, identity, simple_root

from oracles import descents_by_comparison, enumerate_permutations, simple_reflection


def brute_inversions(images):
    """Independent inversion counter used as the oracle for length."""
    count = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                count += 1
    return count


@st.composite
def permutations(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    images = list(range(1, n + 1))
    return Permutation(draw(st.permutations(images)))


def test_constructor_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize("images, message", [((1.0, 2), r"image 1\.0 is not an int"), ((2, True), "image True")])
def test_constructor_refuses_non_integers(images, message):
    # (1.0, 2) was accepted and printed as 1.02
    with pytest.raises(ValueError, match=message):
        Permutation(images)


@pytest.mark.parametrize("index, message", [(1.0, r"index 1\.0 is not an int"), (True, "index True is not an int")])
def test_call_refuses_non_integers(index, message):
    # w(1.0) raised TypeError from the tuple index, and w(True) returned w(1)
    w = Permutation((2, 1))
    assert w(1) == 2
    with pytest.raises(ValueError, match=message):
        w(index)


def test_length_examples():
    assert identity(5).length == 0
    assert Permutation((3, 2, 1)).length == 3
    assert Permutation((2, 3, 1)).length == 2


def test_length_matches_brute_force_exhaustively():
    for w in enumerate_permutations(4):
        assert w.length == brute_inversions(w.images)


def test_right_descents_examples():
    assert identity(4).right_descents == ()
    assert Permutation((2, 1, 3)).right_descents == (1,)
    assert Permutation((3, 2, 1)).right_descents == (1, 2)


def test_right_descents_match_the_comparison_oracle():
    for n in range(1, 7):
        for w in enumerate_permutations(n):
            assert w.right_descents == descents_by_comparison(w), w


def test_descents_are_length_drops():
    # right_descents(w) = {i : length(w s_i) = length(w) - 1}, exhaustively
    for n in range(1, 7):
        for w in enumerate_permutations(n):
            drops = tuple(
                i
                for i in range(1, n)
                if (w * simple_reflection(i, n)).length == w.length - 1
            )
            assert w.right_descents == drops


def test_compose_convention_and_inverse():
    u = Permutation((2, 1, 3))
    v = Permutation((1, 3, 2))
    # (u * v)(i) = u(v(i))
    assert (u * v).images == tuple(u(v(i)) for i in (1, 2, 3))
    for w in enumerate_permutations(4):
        assert w * w.inverse() == identity(4)
        assert w.inverse() * w == identity(4)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 2)) * Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        Permutation((1, 2)).act(WeightVector((1, 0, 0)))


def test_enumerate_is_lexicographic_and_complete():
    perms = list(enumerate_permutations(3))
    assert len(perms) == 6
    assert perms[0] == identity(3)
    assert perms[-1] == Permutation((3, 2, 1))
    assert perms == sorted(perms)
    for n in range(1, 6):
        seen = set(enumerate_permutations(n))
        assert len(seen) == len(list(enumerate_permutations(n)))


def test_simple_reflection():
    assert simple_reflection(1, 3) == Permutation((2, 1, 3))
    with pytest.raises(ValueError):
        simple_reflection(3, 3)
    with pytest.raises(ValueError):
        simple_reflection(0, 3)


@given(permutations())
def test_length_subadditive_and_inverse_invariant(w):
    assert w.inverse().length == w.length
    for u in itertools.islice(enumerate_permutations(w.n), 8):
        assert (u * w).length <= u.length + w.length


def test_act_example():
    w = Permutation((2, 3, 1))
    v = WeightVector((1, 1, -2))
    assert w.act(v) == WeightVector((-2, 1, 1))
    assert identity(3).act(v) == v


@st.composite
def action_triples(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    base = list(range(1, n + 1))
    u = Permutation(draw(st.permutations(base)))
    v = Permutation(draw(st.permutations(base)))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return u, v, WeightVector(coeffs)


@given(action_triples())
def test_act_is_a_left_action(triple):
    u, v, x = triple
    assert u.act(v.act(x)) == (u * v).act(x)
    assert sorted(u.act(x).coeffs) == sorted(x.coeffs)
    assert v.inverse().act(v.act(x)) == x


def test_sign_examples():
    assert WeightVector((0, 0, 0)).sign() == 0
    assert WeightVector((1, -2, 1)).sign() == 1
    assert WeightVector((-2, 1, 1)).sign() == -1


@pytest.mark.parametrize("coeffs", [(True, -1), (1, False), (1.0, -1)])
def test_weight_vector_refuses_bools(coeffs):
    # WeightVector((True, -1)).coeffs was (True, -1)
    with pytest.raises(TypeError, match="^coefficients must be integers$"):
        WeightVector(coeffs)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
def test_sign_is_odd(coeffs):
    v = WeightVector(coeffs)
    assert (-v).sign() == -v.sign()
    assert v.sign() in (-1, 0, 1)


def test_simple_root_and_height():
    assert simple_root(1, 3) == WeightVector((1, -1, 0))
    assert simple_root(2, 3) == WeightVector((0, 1, -1))
    with pytest.raises(ValueError):
        simple_root(3, 3)
    # the root eps_i - eps_j has height j - i: it is the sum of the simple
    # roots alpha_i, ..., alpha_{j-1}
    n = 6
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            total = simple_root(i, n)
            for k in range(i + 1, j):
                total = total + simple_root(k, n)
            assert total.coeffs == tuple(
                1 if m == i else -1 if m == j else 0 for m in range(1, n + 1)
            )


def test_sign_of_acted_simple_root_detects_descents():
    # the convention that makes every R-set computation work: applying w to
    # alpha_i goes negative exactly at the right descents of w
    for n in range(2, 7):
        for w in enumerate_permutations(n):
            descents = set(w.right_descents)
            for i in range(1, n):
                negative = w.act(simple_root(i, n)).sign() < 0
                assert negative == (i in descents)
