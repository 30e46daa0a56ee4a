import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus.harness import gen_independent, gen_random, gen_transpose_pair
from qtorus.lattice import Sublattice, identity
from qtorus.pairing import (
    DimensionResult,
    MultiparameterMatrix,
    PairingError,
    center_is_trivial,
    is_commutative,
    pairing_of,
    radical,
    restrict,
    restrict_matrix,
    tensor,
    transpose,
)
from qtorus.valuegroup import ValueGroup


def bq(q_exponent=1):
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(2, g, {(1, 2): g.element((q_exponent,))})


def test_validation_rejects_bad_matrices():
    g = ValueGroup(("q",), 1)
    q = g.generator("q")
    ident = g.identity()
    with pytest.raises(PairingError):
        MultiparameterMatrix(2, g, ((q, q), (-q, ident)))  # bad diagonal
    with pytest.raises(PairingError):
        MultiparameterMatrix(2, g, ((ident, q), (q, ident)))  # not antisymmetric


def test_validation_checks_free_and_torsion_parts_apart():
    inverse = "entries \\(1,2\\) and \\(2,1\\) are not inverse"
    g3 = ValueGroup(("q",), 3)
    t1 = g3.element((0,), 1)
    ident = g3.identity()
    with pytest.raises(PairingError, match=inverse):  # residues 1 + 1 = 2 mod 3
        MultiparameterMatrix(2, g3, ((ident, t1), (t1, ident)))
    # the torsion cancels (1 + 2 = 0 mod 3), the free parts do not
    a = g3.element((1,), 1)
    with pytest.raises(PairingError, match=inverse):
        MultiparameterMatrix(2, g3, ((ident, a), (g3.element((1,), 2), ident)))
    MultiparameterMatrix(2, g3, ((ident, a), (g3.element((-1,), 2), ident)))
    other = ValueGroup(("p",), 3)
    with pytest.raises(PairingError, match="entry belongs to a different value group"):
        MultiparameterMatrix(2, g3, ((ident, t1), (other.element((0,), 2), ident)))


def test_pairing_of_bq():
    p = pairing_of(bq())
    assert p.free_forms[0] == ((0, 1), (-1, 0))


def test_pairing_of_commutative():
    g = ValueGroup((), 1)
    mat = MultiparameterMatrix.from_upper(3, g, {})
    p = pairing_of(mat)
    assert p.free_forms == ()
    assert p.torsion_form == ((0, 0, 0),) * 3


def test_pairing_of_independent_elementary_forms():
    mat = gen_independent(3)
    p = pairing_of(mat)
    expected = {
        0: [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],  # q_1_2
        1: [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],  # q_1_3
        2: [[0, 0, 0], [0, 0, 1], [0, -1, 0]],  # q_2_3
    }
    for idx, M in enumerate(p.free_forms):
        assert [list(row) for row in M] == expected[idx]


def test_commutator_basis_values_and_scaling():
    p = pairing_of(bq())
    assert p.commutator([1, 0], [0, 1]).free == (1,)
    assert p.commutator([2, 0], [0, 1]).free == (2,)
    assert p.commutator([1, 1], [1, 1]).is_identity()


@given(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
    st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None)
def test_commutator_biadditive_alternating(a, b, c, seed):
    mat = gen_random(3, 2, 3, 2, seed=seed)
    p = pairing_of(mat)
    ab = [x + y for x, y in zip(a, b)]
    assert p.commutator(ab, c) == p.commutator(a, c) + p.commutator(b, c)
    assert p.commutator(a, [-x for x in b]) == -p.commutator(a, b)
    assert p.commutator(a, a).is_identity()
    assert p.commutator(a, b) == -p.commutator(b, a)


def test_is_commutative():
    p = pairing_of(bq())
    assert is_commutative(p, Sublattice.span(2, [[1, 0]]))
    assert not is_commutative(p, Sublattice.full(2))


def test_is_commutative_diagonal_of_transpose_pair():
    lam, lam_t = gen_transpose_pair(3)
    p = pairing_of(tensor(lam, lam_t, "shared"))
    diag = Sublattice.span(6, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]])
    assert is_commutative(p, diag)


def test_radical_examples():
    g = ValueGroup((), 1)
    assert radical(pairing_of(MultiparameterMatrix.from_upper(3, g, {}))) == Sublattice.full(3)
    gq = ValueGroup(("q",), 1)
    mat = MultiparameterMatrix.from_upper(3, gq, {(1, 2): gq.generator("q")})
    assert radical(pairing_of(mat)).rows == ((0, 0, 1),)
    assert radical(pairing_of(gen_independent(2))).rank == 0


def test_center_examples():
    g = ValueGroup((), 1)
    assert not center_is_trivial(pairing_of(MultiparameterMatrix.from_upper(2, g, {})))
    assert center_is_trivial(pairing_of(bq()))
    gq = ValueGroup(("q",), 1)
    sympl4 = MultiparameterMatrix.from_upper(
        4, gq, {(1, 2): gq.generator("q"), (3, 4): gq.generator("q")}
    )
    assert center_is_trivial(pairing_of(sympl4))


def test_tensor_blocks_commute():
    rng = random.Random(5)
    lam1 = gen_random(3, 2, 1, 2, seed=1)
    lam2 = gen_random(2, 2, 1, 2, seed=2)
    t = tensor(lam1, lam2, "shared")
    p = pairing_of(t)
    for _ in range(50):
        a = [rng.randint(-3, 3) for _ in range(3)] + [0, 0]
        b = [0, 0, 0] + [rng.randint(-3, 3) for _ in range(2)]
        assert p.commutator(a, b).is_identity()


def test_tensor_commutative_factors():
    g = ValueGroup((), 1)
    c2 = MultiparameterMatrix.from_upper(2, g, {})
    c3 = MultiparameterMatrix.from_upper(3, g, {})
    t = tensor(c2, c3, "shared")
    assert t.rank == 5 and t.is_commutative_matrix()


def test_tensor_disjoint_renames():
    t = tensor(bq(), bq(), "disjoint")
    assert t.value_group.free_names == ("q", "q'")
    assert t.entry(1, 2).free == (1, 0)
    assert t.entry(3, 4).free == (0, 1)


def _block_reference(group, n1, n2, upper1, upper2):
    """The tensor of two factors, from its upper entries over the merged group."""
    upper = dict(upper1)
    upper.update({(n1 + i, n1 + j): e for (i, j), e in upper2.items()})
    return MultiparameterMatrix.from_upper(n1 + n2, group, upper)


def test_shared_tensor_embeds_permuted_scalars():
    # The second factor names the same scalars in another order, so its
    # entries must be embedded into the merged group, not taken as they are.
    g_ab, g_ba = ValueGroup(("a", "b"), 1), ValueGroup(("b", "a"), 1)
    upper1 = {(1, 2): g_ab.element((1, 2)), (1, 3): g_ab.element((0, -1))}
    m1 = MultiparameterMatrix.from_upper(3, g_ab, upper1)
    m2 = MultiparameterMatrix.from_upper(2, g_ba, {(1, 2): g_ba.element((1, -2))})
    t = tensor(m1, m2, "shared")
    assert t.value_group == g_ab
    assert t == _block_reference(g_ab, 3, 2, upper1, {(1, 2): g_ab.element((-2, 1))})


def test_shared_tensor_embeds_into_the_larger_torsion():
    g1, g3 = ValueGroup(("q",), 1), ValueGroup(("q",), 3)
    upper3 = {(1, 2): g3.element((1,), 1), (2, 3): g3.element((0,), 2)}
    m1 = MultiparameterMatrix.from_upper(2, g1, {(1, 2): g1.element((2,))})
    m3 = MultiparameterMatrix.from_upper(3, g3, upper3)
    # m1's residues scale by 3 / 1: they stay 0 in the merged group of torsion 3
    upper1 = {(1, 2): g3.element((2,))}
    t = tensor(m1, m3, "shared")
    assert t.value_group == g3
    assert t == _block_reference(g3, 2, 3, upper1, upper3)
    assert tensor(m3, m1, "shared") == _block_reference(g3, 3, 2, upper3, upper1)


def test_tensor_incompatible_torsion_rejected():
    g2, g3 = ValueGroup((), 2), ValueGroup((), 3)
    m2 = MultiparameterMatrix.from_upper(2, g2, {(1, 2): g2.element((), 1)})
    m3 = MultiparameterMatrix.from_upper(2, g3, {(1, 2): g3.element((), 1)})
    with pytest.raises(PairingError):
        tensor(m2, m3, "shared")
    assert tensor(m2, m3, "disjoint").value_group.torsion_order == 6


def test_restrict_rank_zero_rejected():
    with pytest.raises(PairingError):
        restrict(pairing_of(bq()), Sublattice.span(2, []))


def test_transpose_inverts_entries():
    mat = bq()
    assert transpose(mat).entry(1, 2).free == (-1,)
    again = transpose(transpose(mat))
    assert again.entries == mat.entries


def test_transpose_commutative_fixed():
    g = ValueGroup((), 1)
    c = MultiparameterMatrix.from_upper(3, g, {})
    assert transpose(c).entries == c.entries


def test_restrict_scales_form():
    p = pairing_of(bq())
    sub = Sublattice.span(2, [[2, 0], [0, 1]])
    r = restrict(p, sub)
    assert r.free_forms[0] == ((0, 2), (-2, 0))


def test_restrict_full_identity_is_same():
    p = pairing_of(gen_independent(3))
    r = restrict(p, Sublattice.full(3))
    assert r.free_forms == p.free_forms


def test_restrict_to_commutative_witness_gives_zero():
    lam, lam_t = gen_transpose_pair(2)
    p = pairing_of(tensor(lam, lam_t, "shared"))
    diag = Sublattice.span(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    r = restrict(p, diag)
    assert all(not any(map(any, M)) for M in r.free_forms)


def test_restrict_matrix_matches_pairing_restrict():
    mat = gen_random(3, 2, 3, 2, seed=9)
    sub = Sublattice.span(3, [[1, 2, 0], [0, 1, 1]])
    rmat = restrict_matrix(mat, sub)
    assert rmat.rank == 2
    p = restrict(pairing_of(mat), sub)
    q = pairing_of(rmat)
    assert p.free_forms == q.free_forms
    assert p.torsion_form == q.torsion_form
    assert any(map(any, p.torsion_form))


def test_wrong_ambient_rank_rejected():
    mat = gen_random(3, 2, 3, 2, seed=9)
    p = pairing_of(mat)
    for n in (2, 4):
        units = identity(n)
        for sub in (Sublattice.span(n, units[:2]), Sublattice.span(n, units[:1])):
            with pytest.raises(PairingError):
                restrict(p, sub)
            with pytest.raises(PairingError):
                restrict_matrix(mat, sub)
            with pytest.raises(PairingError):
                is_commutative(p, sub)


def test_restriction_matches_pairwise_commutators():
    """``is_commutative`` and ``restrict_matrix`` agree with the pairwise definition."""
    rng = random.Random(21)
    verdicts = {True: 0, False: 0}
    torsion_only = 0  # non-commuting through the torsion residues alone
    for seed in range(300):
        n = rng.randint(2, 6)
        m = rng.choice((1, 2, 3, 6))
        mat = gen_random(n, rng.randint(0, 2), m, 2, seed=seed)
        p = pairing_of(mat)
        scale = rng.choice((1, m))
        gens = [[scale * rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        sub = Sublattice.span(n, gens)
        if sub.rank == 0:
            continue
        rows = sub.rows
        values = [p.commutator(rows[s], rows[t]) for s in range(len(rows)) for t in range(s)]
        pairwise = all(v.is_identity() for v in values)
        assert is_commutative(p, sub) == pairwise
        verdicts[pairwise] += 1
        torsion_only += not pairwise and not any(x for v in values for x in v.free)
        rmat = restrict_matrix(mat, sub)
        for s, a in enumerate(rows):
            for t, b in enumerate(rows):
                assert rmat.entry(s + 1, t + 1) == p.commutator(a, b)
    assert verdicts[True] > 0 and verdicts[False] > 0 and torsion_only > 0


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_center_invariant_under_finite_index(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    mat = gen_random(n, rng.randint(0, 2), 1, 2, seed=seed)
    U = identity(n)
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    for i in range(n):
        d = rng.randint(1, 3)
        U[i] = [d * a for a in U[i]]
    sub = Sublattice.span(n, U)
    assert sub.rank == n
    assert center_is_trivial(pairing_of(mat)) == center_is_trivial(
        pairing_of(restrict_matrix(mat, sub))
    )


def test_dimension_result_invariants():
    with pytest.raises(PairingError):
        DimensionResult(2, 1, False, Sublattice.span(2, [[1, 0], [0, 1]]))
    with pytest.raises(PairingError):
        DimensionResult(1, 1, True, Sublattice.span(2, [[1, 0], [0, 1]]))
    ok = DimensionResult(1, 2, False, Sublattice.span(2, [[1, 0]]))
    assert ok.to_json() == {
        "lower": 1,
        "upper": 2,
        "exact": False,
        "witness": [[1, 0]],
    }
