import random

import pytest
from fractions import Fraction

from qtorus.elements import TwistedElement, cocycle, commutator_units, support
from qtorus.harness import gen_random
from qtorus.pairing import MultiparameterMatrix, PairingError, pairing_of
from qtorus.valuegroup import ValueGroup


def bq():
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(2, g, {(1, 2): g.generator("q")})


def random_context(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    k = rng.randint(0, 2)
    m = rng.choice((1, 1, 3, 4))
    return gen_random(n, k, m, 2, seed=seed), rng, n


def test_cocycle_trivial_on_zero():
    assert cocycle(bq(), (3, -2), (0, 0)).is_identity()
    assert cocycle(bq(), (0, 0), (3, -2)).is_identity()


def test_cocycle_reorder_cost():
    # X2 * X1 = q^-1 X1 X2, so the reorder cost of (e2, e1) is -q.
    assert cocycle(bq(), (0, 1), (1, 0)).free == (-1,)
    assert cocycle(bq(), (1, 0), (0, 1)).is_identity()


def test_cocycle_identity_random():
    for seed in range(60):
        mat, rng, n = random_context(seed)
        for _ in range(20):
            a, b, c = ([rng.randint(-3, 3) for _ in range(n)] for _ in range(3))
            ab = [x + y for x, y in zip(a, b)]
            bc = [x + y for x, y in zip(b, c)]
            lhs = cocycle(mat, a, b) + cocycle(mat, ab, c)
            rhs = cocycle(mat, b, c) + cocycle(mat, a, bc)
            assert lhs == rhs


def test_multiply_unit():
    mat = bq()
    one = TwistedElement.one(mat)
    alpha = TwistedElement.monomial(mat, (2, -1), Fraction(3, 2)) + one
    assert (alpha * one - alpha).is_zero()
    assert (one * alpha - alpha).is_zero()


def test_multiply_generators_differ_by_scalar():
    mat = bq()
    x1 = TwistedElement.monomial(mat, (1, 0))
    x2 = TwistedElement.monomial(mat, (0, 1))
    forward = x1 * x2
    backward = x2 * x1
    ((a_f, v_f, t_f), c_f) = next(iter(forward.terms.items()))
    ((a_b, v_b, t_b), c_b) = next(iter(backward.terms.items()))
    assert a_f == a_b == (1, 1) and c_f == c_b == 1
    # X1 X2 = q * (X2 X1): scalar parts differ by exactly one power of q
    assert v_f[0] - v_b[0] == 1


def test_multiply_binomials():
    mat = bq()
    one = TwistedElement.one(mat)
    x1 = TwistedElement.monomial(mat, (1, 0))
    prod = (one + x1) * (one - x1)
    expected = one - TwistedElement.monomial(mat, (2, 0))
    assert (prod - expected).is_zero()


def test_multiply_associative_random():
    for seed in range(40):
        mat, rng, n = random_context(seed)
        def rand_elem():
            total = TwistedElement.zero(mat)
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(-2, 2) for _ in range(n))
                total = total + TwistedElement.monomial(
                    mat, exps, Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                )
            return total
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_context_mismatch_rejected():
    g = ValueGroup(("q",), 1)
    other = MultiparameterMatrix.from_upper(2, g, {(1, 2): g.element((2,))})
    with pytest.raises(PairingError):
        TwistedElement.one(bq()) * TwistedElement.one(other)


def test_monomials_are_units():
    for seed in range(30):
        mat, rng, n = random_context(seed)
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        xa = TwistedElement.monomial(mat, exps, Fraction(5, 3))
        assert (xa * xa.inverse_monomial() - TwistedElement.one(mat)).is_zero()


def test_support_examples():
    mat = bq()
    assert support(TwistedElement.zero(mat)) == set()
    one = TwistedElement.one(mat)
    x1 = TwistedElement.monomial(mat, (1, 0))
    assert support(one + x1) == {(0, 0), (1, 0)}


def test_support_minkowski():
    for seed in range(20):
        mat, rng, n = random_context(seed)
        def rand_elem():
            total = TwistedElement.zero(mat)
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(-2, 2) for _ in range(n))
                total = total + TwistedElement.monomial(mat, exps, rng.randint(1, 4))
            return total
        a, b = rand_elem(), rand_elem()
        sums = {tuple(x + y for x, y in zip(u, v)) for u in support(a) for v in support(b)}
        assert support(a * b) <= sums


def test_commutator_units_examples():
    mat = bq()
    assert commutator_units(mat, (2, 3), (2, 3)).is_identity()
    assert commutator_units(mat, (1, 0), (0, 1)).free == (1,)


def test_commutator_units_matches_pairing():
    for seed in range(50):
        mat, rng, n = random_context(seed)
        p = pairing_of(mat)
        for _ in range(20):
            a = [rng.randint(-3, 3) for _ in range(n)]
            b = [rng.randint(-3, 3) for _ in range(n)]
            assert commutator_units(mat, a, b) == p.commutator(a, b)


def test_commutator_units_multiplicative_identities():
    for seed in range(30):
        mat, rng, n = random_context(seed)
        for _ in range(10):
            a, b, c = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(3))
            ab = [x + y for x, y in zip(a, b)]
            bc = [x + y for x, y in zip(b, c)]
            com = lambda u, v: commutator_units(mat, u, v)
            assert com(ab, c) == com(a, c) + com(b, c)
            assert com(a, bc) == com(a, b) + com(a, c)
            assert com(a, [-x for x in b]) == -com(a, b)
            assert com([-x for x in a], b) == -com(a, b)


def test_render():
    mat = bq()
    x = TwistedElement.monomial(mat, (1, 2), Fraction(-3, 2), mat.value_group.element((1,)))
    assert x.render() == "-3/2 * q^1 * X1^1 * X2^2"
    assert TwistedElement.zero(mat).render() == "0"
    assert TwistedElement.one(mat).render() == "1"


def test_non_integer_exponents_are_refused():
    # never truncated to an integer
    mat = bq()
    with pytest.raises(PairingError, match="got 0.5$"):
        TwistedElement.monomial(mat, [0.5, 1])
    with pytest.raises(PairingError, match="got 1.5$"):
        TwistedElement(mat, {((0, 1), (1.5,), 0): 1})
    with pytest.raises(PairingError, match="got 2.0$"):
        TwistedElement(mat, {((0, 1), (1,), 2.0): 1})
