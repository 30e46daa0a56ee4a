import itertools
import random
import sys
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtorus import solver
from qtorus.elements import commutator_units
from qtorus.harness import (
    CampaignConfig,
    _trial_pair,
    diagonal_sublattice,
    gen_commutative,
    gen_independent,
    gen_random,
    gen_transpose_pair,
)
from qtorus import lattice
from qtorus.lattice import Sublattice, congruence, kernel_with_complement, matmul, rank, saturate
from qtorus.pairing import (
    MultiparameterMatrix,
    Pairing,
    is_commutative,
    pairing_of,
    restrict_matrix,
    tensor,
    transpose,
)
from qtorus.solver import (
    _BYTE_SAFE,
    InexactDimensionError,
    ResourceLimitError,
    SolverOptions,
    _brute_candidates,
    _candidate_stream,
    _commutation_table,
    _components,
    _fold,
    _form_coords,
    _interval,
    _level,
    _Search,
    _sliced,
    _span_basis,
    brute_force_dimension,
    codimension,
    dimension,
)
from qtorus.valuegroup import ValueGroup


def sympl4():
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(
        4, g, {(1, 2): g.generator("q"), (3, 4): g.generator("q")}
    )


def alternating(n, upper_entries):
    M = [[0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = upper_entries[pos]
            M[j][i] = -upper_entries[pos]
            pos += 1
    return M


# ---------------------------------------------------------------------------
# the solver reads the free forms only


def test_free_forms_drop_torsion():
    g = ValueGroup((), 5)
    mat = MultiparameterMatrix.from_upper(3, g, {(1, 2): g.element((), 3)})
    assert pairing_of(mat).free_forms == ()
    assert dimension(mat).to_json()["lower"] == 3


def test_free_forms_keep_free_scalars():
    mat = gen_independent(2)
    forms = pairing_of(mat).free_forms
    assert forms == (((0, 1), (-1, 0)),)
    g = ValueGroup(("q",), 2)
    mixed = MultiparameterMatrix.from_upper(2, g, {(1, 2): g.element((1,), 1)})
    assert len(pairing_of(mixed).free_forms) == 1


# ---------------------------------------------------------------------------
# independent forms and their restriction


def _rank_span_basis(forms, n):
    # reference: keep a form when it raises the rank of the kept coordinates
    kept, coords = [], []
    for M in forms:
        c = _form_coords(M, n)
        if rank(coords + [c]) > len(kept):
            kept.append(M)
            coords.append(c)
    return kept


@st.composite
def form_lists(draw):
    """Alternating integer forms on Z^n, n = 2..8, with planted dependencies.

    Besides random forms, a form may be zero, or a rational combination of
    the forms before it: an integer combination divided by its content.
    """
    n = draw(st.integers(2, 8))
    pairs = n * (n - 1) // 2
    uppers = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("random", "random", "combination", "zero")))
        if kind == "combination" and uppers:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(uppers), max_size=len(uppers)))
            upper = [sum(a * u[t] for a, u in zip(coeffs, uppers)) for t in range(pairs)]
            g = gcd(*upper)
            upper = [x // g for x in upper] if g else upper
        elif kind == "zero":
            upper = [0] * pairs
        else:
            entries = st.sampled_from((0, 0, 1, -1, 2, -3))
            upper = draw(st.lists(entries, min_size=pairs, max_size=pairs))
        uppers.append(upper)
    return n, [tuple(map(tuple, alternating(n, upper))) for upper in uppers]


@given(form_lists())
@settings(max_examples=200, deadline=None)
def test_span_basis_keeps_what_the_rank_test_keeps(args):
    n, forms = args
    # the same form objects, in the same order
    assert list(map(id, _span_basis(forms, n))) == list(map(id, _rank_span_basis(forms, n)))


def _level_inputs():
    for n, k, m, seed in itertools.product((4, 5, 6), (2, 3), (1, 3), (1, 2)):
        yield pytest.param(gen_random(n, k, m, 2, seed=seed), id=f"random-{n}-{k}-{m}-{seed}")
    for mode, top in (("shared", 7), ("disjoint", 5)):
        for n in range(2, top):
            lam, lam_t = gen_transpose_pair(n)
            yield pytest.param(tensor(lam, lam_t, mode), id=f"{mode}-{n}")


@pytest.mark.parametrize("mat", _level_inputs())
def test_level_qforms_are_independent(mat, monkeypatch):
    # ``_level`` takes no second elimination: its restrictions stay independent
    # at the top and at every search level of a solve.
    calls = []

    def recording_level(forms, n):
        out = _level(forms, n)
        calls.append((forms, out))
        return out

    monkeypatch.setattr(solver, "_level", recording_level)
    dimension(mat, SolverOptions(node_budget=300, time_budget=1e6))
    assert calls
    for forms, (_, C, qforms, _) in calls:
        assert len(qforms) == len(forms)
        assert rank([_form_coords(M, len(C)) for M in qforms]) == len(qforms)


def test_restrict_matches_congruence():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 8)
        C = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(rng.randint(0, n))]
        uppers = [
            [rng.choice((0, 0, 0, 1, -2, 5)) for _ in range(n * (n - 1) // 2)]
            for _ in range(rng.randint(0, 4))
        ]
        forms = [tuple(map(tuple, alternating(n, upper))) for upper in uppers]
        Ct = tuple(zip(*C))
        for M in forms:
            assert congruence(C, M) == matmul(matmul(C, M), Ct)
        # a form alternating only mod m: its residues match the full product's
        m = rng.randint(2, 6)
        T = [
            [a + m * rng.randint(-2, 2) for a in row]
            for row in alternating(n, [rng.randint(0, m - 1) for _ in range(n * (n - 1) // 2)])
        ]
        mod = lambda R: [[x % m for x in row] for row in R]
        assert mod(congruence(C, T)) == mod(matmul(matmul(C, T), Ct))


# ---------------------------------------------------------------------------
# single-form closed formula


def form_matrix(n, M):
    """Wrap one alternating form as a single-generator instance."""
    g = ValueGroup(("q",), 1)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j]:
                upper[(i + 1, j + 1)] = g.element((M[i][j],))
    return MultiparameterMatrix.from_upper(n, g, upper)


def single_form_result(M):
    """``dimension`` of one form: exact, with a commuting witness."""
    mat = form_matrix(len(M), M)
    res = dimension(mat)
    assert res.exact
    assert is_commutative(pairing_of(mat), res.witness)
    return res


def test_single_form_examples():
    res = single_form_result([[0] * 3] * 3)
    assert res.lower == 3 and res.witness == Sublattice.full(3)
    res = single_form_result([[0, 1], [-1, 0]])
    assert res.lower == 1 and res.witness.rank == 1
    res = single_form_result([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert res.lower == 2 and res.witness.rank == 2


@pytest.mark.parametrize("n", [2, 3])
def test_single_form_agrees_with_oracle_exhaustively(n):
    count = n * (n - 1) // 2
    for entries in itertools.product(range(-2, 3), repeat=count):
        M = alternating(n, entries)
        value = single_form_result(M).lower
        assert brute_force_dimension(form_matrix(n, M), 2) == value


# ---------------------------------------------------------------------------
# dimension


def test_dimension_commutative():
    res = dimension(gen_commutative(4))
    assert (res.lower, res.upper, res.exact) == (4, 4, True)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dimension_independent_parameters(n):
    res = dimension(gen_independent(n))
    assert (res.lower, res.upper, res.exact) == (1, 1, True)


@pytest.mark.parametrize("n", range(2, 10))
def test_dimension_transpose_tensor(n):
    lam, lam_t = gen_transpose_pair(n)
    res = dimension(tensor(lam, lam_t, "shared"))
    assert (res.lower, res.upper, res.exact) == (n, n, True)
    if n >= 3:
        assert res.witness == diagonal_sublattice(n)


def test_dimension_two_elementary_forms():
    # lambda_12 and lambda_23 independent, lambda_13 = 1: the pair (e1, e3)
    # commutes under both forms, and a pencil combination certifies <= 2.
    g = ValueGroup(("q1", "q2"), 1)
    mat = MultiparameterMatrix.from_upper(
        3, g, {(1, 2): g.generator("q1"), (2, 3): g.generator("q2")}
    )
    res = dimension(mat)
    assert (res.lower, res.upper, res.exact) == (2, 2, True)
    assert brute_force_dimension(mat, 2) == 2


def test_dimension_witness_contract():
    for seed in range(40):
        mat = gen_random(random.Random(seed).randint(1, 4), 2, 1, 2, seed=seed)
        res = dimension(mat)
        assert 1 <= res.lower <= res.upper <= mat.rank
        assert res.exact == (res.lower == res.upper)
        assert res.witness.rank == res.lower
        assert is_commutative(pairing_of(mat), res.witness)


def test_dimension_witness_commutative_with_torsion():
    mat = gen_random(3, 1, 4, 2, seed=12)
    res = dimension(mat)
    assert is_commutative(pairing_of(mat), res.witness)


def test_dimension_deterministic():
    mat = gen_random(4, 2, 1, 2, seed=3)
    a = dimension(mat).to_json()
    b = dimension(mat).to_json()
    assert a == b


def test_dimension_budget_exhaustion_degrades_to_interval():
    lam, lam_t = gen_transpose_pair(3)
    res = dimension(tensor(lam, lam_t, "shared"), SolverOptions(time_budget=0.0))
    assert not res.exact
    assert res.lower <= 3 <= res.upper


def test_oracle_agreement_on_random_instances():
    rng = random.Random(0)
    exact_hits = 0
    for trial in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        mat = gen_random(n, k, 1, 2, seed=trial)
        res = dimension(mat)
        oracle = brute_force_dimension(mat, 2)
        assert res.lower <= oracle <= res.upper
        if res.exact:
            assert oracle == res.lower
            exact_hits += 1
    assert exact_hits >= 54  # the small population is almost always exact


def test_dimension_invariant_under_finite_index():
    rng = random.Random(2)
    for trial in range(30):
        n = rng.randint(1, 3)
        mat = gen_random(n, rng.randint(0, 2), 1, 2, seed=100 + trial)
        base = dimension(mat)
        if not base.exact:
            continue
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randint(1, 3)
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-2, 2)
        sub = Sublattice.span(n, rows)
        res = dimension(restrict_matrix(mat, sub))
        if res.exact:
            assert res.lower == base.lower


# Answers of the search on fixed inputs.  The order in which candidates are
# ranked and tried decides every witness, so any change to it shows here.
GOLDEN = {
    ("shared", 2): {"lower": 2, "upper": 2, "exact": True, "witness": [[0, 1, 0, 0], [0, 0, 0, 1]]},
    ("shared", 3): {
        "lower": 3,
        "upper": 3,
        "exact": True,
        "witness": [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
    },
    ("shared", 4): {
        "lower": 4,
        "upper": 4,
        "exact": True,
        "witness": [[1 if j % 4 == i else 0 for j in range(8)] for i in range(4)],
    },
    ("shared", 5): {
        "lower": 5,
        "upper": 5,
        "exact": True,
        "witness": [[1 if j % 5 == i else 0 for j in range(10)] for i in range(5)],
    },
    # shared n >= 5 runs through levels whose forms span every alternating
    # form; ``_level`` closes them without a node, so small budgets suffice.
    ("shared", 6): {
        "lower": 6,
        "upper": 6,
        "exact": True,
        "witness": [[1 if j % 6 == i else 0 for j in range(12)] for i in range(6)],
    },
    ("shared", 5, 300): {
        "lower": 5,
        "upper": 5,
        "exact": True,
        "witness": [[1 if j % 5 == i else 0 for j in range(10)] for i in range(5)],
    },
    ("shared", 5, 2000): {
        "lower": 5,
        "upper": 5,
        "exact": True,
        "witness": [[1 if j % 5 == i else 0 for j in range(10)] for i in range(5)],
    },
    # independent scalars on each factor: the scalar-split rule closes it
    ("disjoint", 3): {
        "lower": 2,
        "upper": 2,
        "exact": True,
        "witness": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0]],
    },
    ("random", 5, 1): {
        "lower": 2,
        "upper": 3,
        "exact": False,
        "witness": [[2, 3, 0, 4, 7], [0, 4, 0, 5, 7]],
    },
    ("random", 5, 2): {
        "lower": 2,
        "upper": 3,
        "exact": False,
        "witness": [[1, 57, -36, 40, 57], [0, 289, -178, 204, 289]],
    },
    ("random", 6, 3): {
        "lower": 2,
        "upper": 3,
        "exact": False,
        "witness": [[2, 2, 4, 6, 0, -1], [0, 35, -319, -62, -200, 177]],
    },
    # the free-form witness is rescaled by the torsion order 3
    ("rescaled", 4, 3): {
        "lower": 2,
        "upper": 2,
        "exact": True,
        "witness": [[3, 3, 3, -3], [0, 6, 6, -3]],
    },
    # a nonzero common radical, with two forms left after restricting to its complement
    ("radical", 4, 1): {
        "lower": 3,
        "upper": 3,
        "exact": True,
        "witness": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    },
    # shared n = 3 over a torsion-3 group with lambda_14 = zeta: the blocks are
    # linked by torsion alone, so the split certificate, which reads the free
    # forms only, still applies
    ("torsion_link", 3): {
        "lower": 3,
        "upper": 3,
        "exact": True,
        "witness": [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
    },
}


def torsion_linked_transpose_pair(n):
    """Shared lambda (x) lambda^T over a torsion-3 group, with lambda_14 = zeta."""
    lam, lam_t = gen_transpose_pair(n)
    shared = tensor(lam, lam_t, "shared")
    g = ValueGroup(shared.value_group.free_names, 3)
    upper = {
        (i + 1, j + 1): g.element(shared.entries[i][j].free)
        for i in range(2 * n)
        for j in range(i + 1, 2 * n)
    }
    upper[(1, 4)] = g.element(torsion=1)
    return MultiparameterMatrix.from_upper(2 * n, g, upper)


@pytest.mark.parametrize("case", list(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_dimension_golden_answers(case):
    # node budget only: the wall clock must not decide a pinned answer
    opts = SolverOptions(time_budget=1e6)
    if case[0] == "random":
        _, n, seed = case
        mat = gen_random(n, 3, seed=seed)
    elif case[0] in ("rescaled", "radical"):
        _, n, m = case
        mat = gen_random(n, 2, m, exponent_bound=1, seed=0)
    elif case[0] == "torsion_link":
        mat = torsion_linked_transpose_pair(case[1])
    else:
        mode, n, *node_budget = case
        lam, lam_t = gen_transpose_pair(n)
        mat = tensor(lam, lam_t, mode)
        if node_budget:
            opts = replace(opts, node_budget=node_budget[0])
    res = dimension(mat, opts)
    assert res.to_json() == GOLDEN[case]
    for a, b in itertools.combinations(res.witness.rows, 2):
        assert commutator_units(mat, a, b).is_identity()


@pytest.mark.parametrize("n", [3, 4])
def test_all_forms_level_charges_the_scan(n):
    # Forms spanning every alternating form: the wedge count caps the level
    # at rank 1, so ``_level`` closes it and the search tries no candidate.
    pairs = n * (n - 1) // 2
    forms = [
        tuple(map(tuple, alternating(n, [int(t == s) for t in range(pairs)])))
        for s in range(pairs)
    ]
    K, C, qforms, closed = _level(forms, n)
    assert (len(K), len(C), len(qforms)) == (0, n, pairs)
    assert closed == [C[0]]
    opts = SolverOptions(time_budget=1e6)
    for node_budget in (1, opts.node_budget):
        search = _Search(replace(opts, node_budget=node_budget))
        assert search.solve(forms, n, n) == (1, closed, True)
        assert (search.nodes_left, search.exhausted) == (node_budget, False)


def test_torsion_link_split_matches_oracle():
    mat = torsion_linked_transpose_pair(3)
    res = dimension(mat)
    assert res.exact and res.lower == brute_force_dimension(mat, 1) == 3


def test_disjoint_transpose_pair_matches_oracle():
    lam, lam_t = gen_transpose_pair(3)
    mat = tensor(lam, lam_t, "disjoint")
    assert dimension(mat).upper == brute_force_dimension(mat, 1) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_disjoint_transpose_pair_closes_without_search(n):
    # one node would exhaust the budget, so an exact answer means no search ran
    lam, lam_t = gen_transpose_pair(n)
    res = dimension(tensor(lam, lam_t, "disjoint"), SolverOptions(node_budget=1, time_budget=1e6))
    assert (res.lower, res.upper, res.exact) == (2, 2, True)


def random_factor_pairs(mode, m, count, seed):
    """Seeded tensor products of random factors of rank 1-3 with k = 1-3 scalars.

    Half the second factors are the transpose of the first: on shared
    scalars their forms are negatives of each other, so the spans do not
    add up and the product can exceed the sum of the factors' dimensions.
    A third of the products take a commutative factor as well, up to rank 6.
    """
    rng = random.Random(seed)
    for _ in range(count):
        k1 = rng.randint(1, 3)
        k2 = rng.randint(1, 3) if mode == "disjoint" else k1
        a = gen_random(rng.randint(1, 3), k1, m, seed=rng.randrange(10**6))
        if rng.random() < 0.5:
            b = transpose(a)
        else:
            b = gen_random(rng.randint(1, 3), k2, m, seed=rng.randrange(10**6))
        mat = tensor(a, b, mode)
        if mat.rank < 6 and rng.random() < 1 / 3:
            mat = tensor(mat, gen_commutative(rng.randint(1, 6 - mat.rank)), mode)
        yield mat


def split_blocks(forms, comps, opts):
    """``_fold``'s input: each block's sliced forms with its ``_interval`` bounds."""
    blocks = []
    for comp in comps:
        sliced = tuple(_sliced(F, comp) for F in forms)
        lo, hi, _ = _interval(sliced, len(comp), _Search(opts))
        blocks.append((sliced, lo, hi))
    return blocks


@pytest.mark.parametrize("mode", ["shared", "disjoint"])
@pytest.mark.parametrize("m", [1, 3])
def test_split_certificate_never_below_oracle(mode, m):
    opts = SolverOptions(time_budget=1e6)
    for mat in random_factor_pairs(mode, m, 25, seed=f"{mode}-{m}"):
        forms = pairing_of(mat).free_forms
        comps = _components(forms, mat.rank)
        oracle = brute_force_dimension(mat, 1)
        if len(comps) >= 2:
            assert _fold(split_blocks(forms, comps, opts)) >= oracle
        assert dimension(mat, opts).upper >= oracle


def reference_fold(blocks):
    """The fold as a frozenset table that takes both bounds at every bipartition.

    Every bipartition contributes ``_pair_bound``, and also h1 + h2 where
    the spans of the restricted forms add.
    """
    coords = [[_form_coords(F, len(F)) for F in forms] for forms, _, _ in blocks]
    k = len(coords[0])

    def span(combo):
        return rank([sum((coords[i][l] for i in combo), []) for l in range(k)])

    table = {}
    for i, (forms, lo, hi) in enumerate(blocks):
        r = len(forms[0])
        table[frozenset([i])] = (lo, hi, r, rank([row for M in forms for row in M]) == r)
    for size in range(2, len(blocks) + 1):
        for combo in itertools.combinations(range(len(blocks)), size):
            fs = frozenset(combo)
            singles = [table[frozenset([i])] for i in combo]
            rk = sum(t[2] for t in singles)
            hi, d = rk, span(combo)
            for r in range(size - 1):
                for pick in itertools.combinations(combo[1:], r):
                    s1 = frozenset([combo[0], *pick])
                    a, b = table[s1], table[fs - s1]
                    hi = min(hi, solver._pair_bound(*a, *b))
                    if span(s1) + span(fs - s1) == d:
                        hi = min(hi, a[1] + b[1])
            lo = sum(t[0] for t in singles)
            if hi < lo:
                raise AssertionError("split upper bound fell below the blocks' lower bounds")
            table[fs] = (lo, hi, rk, all(t[3] for t in singles))
    return table[frozenset(range(len(blocks)))][1]


def random_products(mode, count, seed):
    """Seeded tensor products of 2-4 factors: random forms, transposes, commutative.

    ``mode`` "mixed" draws shared or disjoint for each tensor step.
    """
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice((1, 3))
        k = rng.randint(1, 3)
        factors = []
        for _ in range(rng.randint(2, 4)):
            pick = rng.random()
            if pick < 0.2:
                factors.append(gen_commutative(rng.randint(1, 3)))
            elif pick < 0.4 and factors:
                factors.append(transpose(factors[-1]))
            else:
                factors.append(gen_random(rng.randint(1, 3), k, m, seed=rng.randrange(10**6)))
        mat = factors[0]
        for f in factors[1:]:
            mat = tensor(mat, f, rng.choice(("shared", "disjoint")) if mode == "mixed" else mode)
        yield mat


def one_block_per_idle_generator(forms, comps):
    """``comps`` with the block that no form touches split into one block per generator."""
    out = []
    for comp in comps:
        if any(F[i][j] for F in forms for i in comp for j in comp):
            out.append(comp)
        else:
            out.extend((i,) for i in comp)
    return out


@pytest.mark.parametrize("mode", ["shared", "disjoint", "mixed"])
def test_fold_matches_reference(mode):
    # The one-rule bitmask fold equals the fold that takes both bounds at
    # every bipartition, on the blocks of ``_components`` and on the same
    # blocks with every idle generator a block of its own.
    opts = SolverOptions(time_budget=1e6)
    compared = 0
    for mat in random_products(mode, 60, seed=f"fold-{mode}"):
        forms = pairing_of(mat).free_forms
        if not forms:
            continue
        comps = _components(forms, mat.rank)
        if len(comps) < 2:
            continue
        blocks = split_blocks(forms, comps, opts)
        value = _fold(blocks)
        assert value == reference_fold(blocks)
        compared += 1
        apart = one_block_per_idle_generator(forms, comps)
        if len(apart) != len(comps) and len(apart) <= 9:
            assert value == reference_fold(split_blocks(forms, apart, opts))
            compared += 1
    assert compared >= 40


def random_blocks(rng):
    """2-6 blocks of rank 1-5 on k shared forms, each block on a random subset of them.

    A block's interval is any [lo, hi] with 1 <= lo <= hi <= its rank, so the
    two-factor bound's strict steps and center flags all come into play.
    """
    k = rng.randint(1, 3)
    blocks = []
    for _ in range(rng.randint(2, 6)):
        r = rng.randint(1, 5)
        on = [rng.random() < 0.6 for _ in range(k)]
        forms = []
        for l in range(k):
            forms.append(alternating(r, [rng.randint(-1, 1) * on[l] for _ in range(r * (r - 1) // 2)]))
        lo = rng.randint(1, r)
        blocks.append((tuple(forms), lo, rng.randint(lo, r)))
    return blocks


def test_fold_matches_reference_on_synthetic_blocks():
    rng = random.Random("fold-synthetic")
    for _ in range(400):
        blocks = random_blocks(rng)
        try:
            expected = reference_fold(blocks)
        except AssertionError:
            with pytest.raises(AssertionError, match="split upper bound"):
                _fold(blocks)
        else:
            assert _fold(blocks) == expected
    # a block whose lower bound exceeds its upper bound is a fault
    zero = ([[0, 0], [0, 0]],)
    with pytest.raises(AssertionError, match="split upper bound"):
        _fold([(zero, 3, 2), (zero, 2, 2)])


def disjoint_support_blocks(rng):
    """2-6 blocks of rank 1-5, each on forms of its own: the spans of all blocks add.

    Every block has up to two forms that no other block touches; its
    intervals are drawn as ``random_blocks`` draws them.
    """
    own = [rng.randint(0, 2) for _ in range(rng.randint(2, 6))]
    k = max(1, sum(own))
    blocks, start = [], 0
    for count in own:
        r = rng.randint(1, 5)
        pairs = r * (r - 1) // 2
        forms = [alternating(r, [0] * pairs) for _ in range(k)]
        for l in range(start, start + count):
            forms[l] = alternating(r, [rng.randint(-1, 1) for _ in range(pairs)])
        start += count
        lo = rng.randint(1, r)
        blocks.append((tuple(forms), lo, rng.randint(lo, r)))
    return blocks


def test_linear_fold_matches_reference(monkeypatch):
    # Where the spans of all blocks add, the fold is the sum of the blocks'
    # upper bounds, from b + 1 ranks and no table.
    rng = random.Random("fold-linear")
    draws = [disjoint_support_blocks(rng) for _ in range(300)]
    expected = [reference_fold(blocks) for blocks in draws]
    ranks = [0]

    def counted(rows):
        ranks[0] += 1
        return rank(rows)

    monkeypatch.setattr(solver, "rank", counted)
    for blocks, value in zip(draws, expected):
        ranks[0] = 0
        assert _fold(blocks) == value == sum(hi for _, _, hi in blocks)
        assert ranks[0] == len(blocks) + 1
        # every block's lower bound above its upper bound is a fault here too
        with pytest.raises(AssertionError, match="split upper bound"):
            _fold([(forms, hi + 1, hi) for forms, _, hi in blocks])


def test_folding_by_classes_is_not_the_fold():
    # Split the blocks into the finest classes whose spans add, fold inside
    # each class and add: the sum can exceed the fold of all blocks, which
    # bounds pairs across the classes too.  Found in 3,000 ``random_blocks``
    # draws from random.Random(0); only where the spans of all blocks add is
    # the fold a sum (of the blocks' upper bounds).
    zero = [0] * 10
    spec = [  # rank, upper-triangle coordinates of the three forms, lo, hi
        (2, ([0], [-1], [0]), 2, 2),
        (5, ([-1, 0, 1, 1, -1, -1, 0, 0, 1, 0], zero, [0, 0, -1, 0, 1, -1, 0, 0, 1, 1]), 1, 2),
        (3, ([1, -1, 0], zero[:3], [0, 0, -1]), 1, 2),
        (2, ([0], [-1], [0]), 1, 2),
        (4, ([0, 0, -1, -1, -1, 1], zero[:6], [0, -1, -1, 1, 0, 1]), 1, 1),
    ]
    blocks = [(tuple(alternating(r, c) for c in coords), lo, hi) for r, coords, lo, hi in spec]
    classes = [(0, 3), (1, 2, 4)]

    def span_dim(idxs):
        coords = [[_form_coords(F, len(F)) for F in blocks[i][0]] for i in idxs]
        return rank([sum(rows, []) for rows in zip(*coords)])

    assert span_dim(range(5)) == sum(span_dim(c) for c in classes) < sum(span_dim([i]) for i in range(5))
    assert _fold(blocks) == reference_fold(blocks) == 10
    assert sum(_fold([blocks[i] for i in c]) for c in classes) == 11


@pytest.mark.parametrize("mode", ["shared", "disjoint", "mixed"])
def test_components_partition_the_generators(mode):
    for mat in random_products(mode, 40, seed=f"components-{mode}"):
        n = mat.rank
        forms = pairing_of(mat).free_forms
        comps = _components(forms, n)
        assert sorted(i for comp in comps for i in comp) == list(range(n))
        block = {i: b for b, comp in enumerate(comps) for i in comp}
        for F in forms:
            assert all(F[i][j] == 0 for i in range(n) for j in range(n) if block[i] != block[j])
        idle = [i for i in range(n) if not any(any(F[i]) for F in forms)]
        assert len({block[i] for i in idle}) <= 1


def counting_pair_bound(monkeypatch):
    """Patch ``solver._pair_bound`` to count its calls; returns the one-item counter."""
    calls = [0]
    pair_bound = solver._pair_bound

    def counted(*args):
        calls[0] += 1
        return pair_bound(*args)

    monkeypatch.setattr(solver, "_pair_bound", counted)
    return calls


@pytest.mark.parametrize("c", range(2, 10))
def test_central_generators_are_one_block(c, monkeypatch):
    # lambda (x) lambda^T (n = 4, shared) tensor F[X_1^+-1, ..., X_c^+-1]:
    # the c central generators are one block, so the fold has three blocks
    # and calls the two-factor bound only where the shared scalars keep the
    # spans from adding.  With one block per generator it made 86,526 calls
    # at c = 9.
    calls = counting_pair_bound(monkeypatch)
    lam, lam_t = gen_transpose_pair(4)
    res = dimension(tensor(tensor(lam, lam_t, "shared"), gen_commutative(c), "shared"))
    assert (res.lower, res.upper, res.exact) == (4 + c, 4 + c, True)
    assert calls[0] <= 3


@pytest.mark.parametrize("t", range(4, 12))
def test_disjoint_products_fold_by_scalar_split(t, monkeypatch):
    # Disjoint lambda_3^(x t): the spans of all t blocks add, so the fold is
    # the sum of their upper bounds and never calls the two-factor bound.
    # It runs before the pencil for every t.
    calls = counting_pair_bound(monkeypatch)
    lam = gen_transpose_pair(3)[0]
    mat = lam
    for _ in range(t - 1):
        mat = tensor(mat, lam, "disjoint")
    res = dimension(mat)
    assert (res.lower, res.upper, res.exact) == (t, t, True)
    assert calls[0] == 0


def iterated_product(k):
    """Disjoint B_q1 (x) ... (x) B_qk: k rank-2 factors with their own scalars."""
    mat = gen_independent(2)
    for _ in range(k - 1):
        mat = tensor(mat, gen_independent(2), "disjoint")
    return mat


def test_iterated_product_closes_without_pair_bound(monkeypatch):
    # The spans of the k blocks add, so the fold runs first, for every k,
    # and it is the sum of their upper bounds: the fold's table, and the
    # two-factor bound, never run.
    def refuse(*args):
        raise AssertionError("the two-factor bound ran on independent scalars")

    monkeypatch.setattr(solver, "_pair_bound", refuse)
    for k in range(2, 13):
        mat = iterated_product(k)
        res = dimension(mat)
        assert (res.lower, res.upper, res.exact) == (k, k, True)
        assert is_commutative(pairing_of(mat), res.witness)


def test_many_shared_blocks_close_on_the_pencil(monkeypatch):
    # Ten rank-2 factors on two shared scalars: 2^10 > combo_samples, so the
    # pencil runs before the fold, meets the joined block witnesses at 10,
    # and the fold (a 3^10 table here) never runs.
    def refuse(*args):
        raise AssertionError("the block fold ran on a closed interval")

    monkeypatch.setattr(solver, "_fold", refuse)
    mat = gen_random(2, 2, seed=1)
    for i in range(1, 10):
        mat = tensor(mat, gen_random(2, 2, seed=1 + 10 * i), "shared")
    res = dimension(mat)
    assert (res.lower, res.upper, res.exact) == (10, 10, True)


def counting_pencil_samples(monkeypatch):
    """Count the skew ranks made inside ``solver._pencil_upper``; returns the one-item counter."""
    calls, inside = [0], [False]
    skew_rank, pencil_upper = solver.skew_rank, solver._pencil_upper

    def counted(M):
        calls[0] += inside[0]
        return skew_rank(M)

    def traced(*args):
        inside[0] = True
        try:
            return pencil_upper(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(solver, "skew_rank", counted)
    monkeypatch.setattr(solver, "_pencil_upper", traced)
    return calls


@pytest.mark.parametrize(
    "mode, n",
    [("shared", n) for n in range(2, 10)]
    + [("disjoint", n) for n in range(2, 6)]
    + [("lambda3", t) for t in range(7, 12)]
    + [("bq", k) for k in range(7, 13)],
)
def test_pencil_skips_where_the_fold_reached_its_floor(mode, n, monkeypatch):
    # lambda (x) lambda^T has two blocks, so the fold runs first.  Shared, it
    # certifies n on rank 2n, where no pencil sample can go lower; disjoint,
    # it certifies 2, the joined block witnesses.  Disjoint lambda_3^(x t)
    # and B_q1 (x) ... (x) B_qk have more than six blocks, 2^b >
    # combo_samples, but the spans of all blocks add, so the fold still runs
    # first and meets the joined block witnesses.  The pencil samples nothing.
    calls = counting_pencil_samples(monkeypatch)
    if mode == "lambda3":
        lam = gen_transpose_pair(3)[0]
        mat = lam
        for _ in range(n - 1):
            mat = tensor(mat, lam, "disjoint")
    elif mode == "bq":
        mat = iterated_product(n)
    else:
        lam, lam_t = gen_transpose_pair(n)
        mat = tensor(lam, lam_t, mode)
    res = dimension(mat)
    truth = 2 if mode == "disjoint" else n
    assert (res.lower, res.upper, res.exact) == (truth, truth, True)
    assert calls[0] == 0


def strip_torsion(mat):
    """The same matrix over the torsion-free group on the same free scalars."""
    g = ValueGroup(mat.value_group.free_names, 1)
    n = mat.rank
    upper = {
        (i + 1, j + 1): g.element(mat.entries[i][j].free)
        for i in range(n)
        for j in range(i + 1, n)
    }
    return MultiparameterMatrix.from_upper(n, g, upper)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_torsion_rescales_the_witness_once(m):
    # Torsion never moves the interval, and the witness of the torsion-free
    # matrix W is rescaled at most once: the answer's witness is W or m*W.
    config = CampaignConfig(max_rank=4, max_free=2, exponent_bound=1, torsion=m)
    for trial in range(60):
        mat = tensor(*_trial_pair(config, trial), "shared")
        res, free = dimension(mat), dimension(strip_torsion(mat))
        assert (res.lower, res.upper) == (free.lower, free.upper)
        assert res.witness in (free.witness, free.witness.scaled(m))


def test_scalar_split_chain_with_open_middle_factor():
    # lambda (x) mid (x) lambda^T on disjoint scalars: the middle factor stays
    # open at [2, 3], so the chain is [1 + 2 + 1, 1 + 3 + 1]; the two-factor
    # bound alone leaves it at [4, 6]
    opts = SolverOptions(node_budget=2000, time_budget=1e6)
    lam, lam_t = gen_transpose_pair(3)
    mid = gen_random(5, 3, seed=1, names=("a1", "a2", "a3"))
    assert dimension(mid, opts).upper == 3
    res = dimension(tensor(tensor(lam, mid, "disjoint"), lam_t, "disjoint"), opts)
    assert (res.lower, res.upper, res.exact) == (4, 5, False)


def test_repeated_open_block_reuses_the_first_search(monkeypatch):
    # Disjoint mid (x) mid: its two blocks slice to the same open [2, 3]
    # subproblem.  A call's one search shares its memo across blocks, so the
    # second block's search is a memo hit: no candidate stream, no node.
    streams, spent = [0], []
    candidate_stream, interval = solver._candidate_stream, solver._interval

    def counted(*args):
        streams[0] += 1
        return candidate_stream(*args)

    def traced(forms, n, search):
        streams_before, nodes_before = streams[0], search.nodes_left
        result = interval(forms, n, search)
        spent.append((streams[0] - streams_before, nodes_before - search.nodes_left))
        return result

    monkeypatch.setattr(solver, "_candidate_stream", counted)
    monkeypatch.setattr(solver, "_interval", traced)
    mid = gen_random(5, 3, seed=1, names=("a1", "a2", "a3"))
    res = dimension(tensor(mid, mid, "disjoint"))
    assert (res.lower, res.upper) == (4, 6)
    first, second, _ = spent
    assert first[0] >= 1 and first[1] >= 1
    assert second == (0, 0)


def _tick(state):
    """One node charged to a (nodes_left, exhausted) budget, the way the scan counts."""
    left, exhausted = state
    if exhausted:
        return state, False
    left -= 1
    return (left, left <= 0), left > 0


@pytest.mark.parametrize("field", ["search_bound", "combo_samples", "node_budget"])
def test_solver_options_reject_negative_limits(field):
    with pytest.raises(ValueError, match=field):
        SolverOptions(**{field: -1})
    assert getattr(SolverOptions(**{field: 0}), field) == 0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", range(4, 9))
def test_search_witnesses_are_saturated(k, n):
    # the search spans its planes over Q only; ``_interval`` saturates what it adopts
    opts = SolverOptions(node_budget=2000, time_budget=1e6)
    for seed in range(6):
        w = dimension(gen_random(n, k, seed=seed), opts).witness
        assert saturate(w) == w


def test_search_builds_no_hermite_transform_per_candidate(monkeypatch):
    # a node's complement and the structured seeds come from ``annihilator``; the
    # Hermite transform serves only where a Z-complement matters
    callers = []
    original = lattice.kernel_with_complement

    def traced(M):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] != solver.__name__:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return original(M)

    monkeypatch.setattr(lattice, "kernel_with_complement", traced)
    monkeypatch.setattr(solver, "kernel_with_complement", traced)
    search = _Search(SolverOptions(node_budget=500, time_budget=1e6))
    _interval(pairing_of(gen_random(6, 3, seed=1)).free_forms, 6, search)
    assert search.nodes_left < 500
    assert "_level" in callers
    assert not {"solve", "_structured_candidates"} & set(callers)


def test_budget_spend_matches_ticks():
    # spend() charges one node exactly as the plain count-down of ``_tick``.
    for nodes in range(6):
        spent = _Search(SolverOptions(node_budget=nodes, time_budget=1e6))
        state = (nodes, False)
        for _ in range(nodes + 2):
            state, ok = _tick(state)
            assert spent.spend() == ok
            assert (spent.nodes_left, spent.exhausted) == state


@pytest.mark.parametrize("seed", range(8))
def test_candidate_stream_scores_complement_dimension(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    forms = [
        alternating(n, [rng.randint(-2, 2) for _ in range(n * (n - 1) // 2)])
        for _ in range(rng.randint(2, 3))
    ]
    dims = []
    for v, rows, dim in _candidate_stream(forms, n, 1):
        assert rows == [[sum(v[i] * M[i][j] for i in range(n)) for j in range(n)] for M in forms]
        comp, _ = kernel_with_complement(rows)
        assert dim == len(comp)
        assert all(sum(a * b for a, b in zip(c, r)) == 0 for c in comp for r in rows)
        dims.append(dim)
    assert dims


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_examples():
    assert brute_force_dimension(gen_commutative(2)) == 2
    g = ValueGroup(("q",), 1)
    bq = MultiparameterMatrix.from_upper(2, g, {(1, 2): g.generator("q")})
    assert brute_force_dimension(bq) == 1
    assert brute_force_dimension(gen_independent(3)) == 1


def test_brute_resource_refusal():
    with pytest.raises(ResourceLimitError):
        brute_force_dimension(gen_commutative(7))
    with pytest.raises(ResourceLimitError):
        brute_force_dimension(gen_commutative(2), entry_bound=4)
    with pytest.raises(ResourceLimitError):
        brute_force_dimension(gen_independent(4), node_limit=1)


def test_brute_refuses_oversized_candidate_pool():
    # Rank 6 at bound 3 passes the rank and bound guards but has 58,096
    # candidates; the refusal must come before any N x N table is built.
    with pytest.raises(ResourceLimitError, match="candidates"):
        brute_force_dimension(gen_commutative(6), entry_bound=3)


def test_brute_rejects_negative_node_limit():
    with pytest.raises(ValueError):
        brute_force_dimension(gen_commutative(2), node_limit=-1)
    with pytest.raises(ResourceLimitError):
        brute_force_dimension(gen_commutative(2), node_limit=0)


def test_brute_rejects_negative_entry_bound():
    with pytest.raises(ValueError):
        brute_force_dimension(gen_commutative(3), -1)
    assert brute_force_dimension(gen_commutative(3), 1) == 3


# (instance, entry bound, oracle value, search nodes), pinned from the
# echelon-based oracle the bitset search replaced.  Campaign products are
# the shared tensors of harness._trial_pair(CampaignConfig(seed, torsion),
# trial); random instances are gen_random(n, k, m, 1, seed).
_PINNED_ORACLE = [
    (("campaign", 1, 1, 0), 1, 2, 1675),
    (("campaign", 1, 1, 3), 1, 3, 1805),
    (("campaign", 1, 1, 8), 1, 4, 1026),
    (("campaign", 1, 1, 10), 1, 3, 38),
    (("campaign", 3, 1, 7), 1, 5, 1),
    (("campaign", 3, 1, 11), 1, 3, 1537),
    (("campaign", 5, 3, 0), 1, 2, 111),
    (("campaign", 5, 3, 1), 1, 6, 566),
    (("campaign", 5, 3, 2), 1, 2, 573),
    (("campaign", 7, 3, 0), 1, 6, 1304),
    (("campaign", 7, 3, 6), 1, 5, 378),
    (("random", 4, 1, 1, 1), 2, 2, 2821),
    (("random", 4, 1, 3, 2), 2, 3, 625),
    (("random", 4, 2, 1, 2), 2, 2, 420),
]


def _pinned_instance(spec):
    if spec[0] == "campaign":
        _, seed, torsion, trial = spec
        lam1, lam2 = _trial_pair(CampaignConfig(seed=seed, torsion=torsion), trial)
        return tensor(lam1, lam2, "shared")
    _, n, k, m, seed = spec
    return gen_random(n, k, m, 1, seed=seed)


@pytest.mark.parametrize("spec, bound, value, nodes", _PINNED_ORACLE)
def test_brute_search_tree_pinned(spec, bound, value, nodes):
    mat = _pinned_instance(spec)
    assert brute_force_dimension(mat, bound, node_limit=nodes) == value
    with pytest.raises(ResourceLimitError):
        brute_force_dimension(mat, bound, node_limit=nodes - 1)


def _byte_load(p, bound, centred=True) -> int:
    # bound^2 * sum |F| over the worst form the packed table checks; it checks
    # torsion residues centred, t - m for t > m/2
    m = p.value_group.torsion_order
    T = [[t - m if centred and 2 * t > m else t for t in row] for row in p.torsion_form]
    forms = [*p.free_forms, *([T] if m > 1 else [])]
    return max((bound * bound * sum(abs(x) for row in M for x in row) for M in forms), default=0)


def _pairwise_table(mat, bound) -> list[int]:
    p = pairing_of(mat)
    cands = _brute_candidates(mat.rank, bound)
    rows = [1 << i for i in range(len(cands))]
    for a, b in itertools.combinations(range(len(cands)), 2):
        if p.commutator(cands[a], cands[b]).is_identity():
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


# (rank, entry bound, free scalars, torsion, seed).  Every k = 0..3 and
# torsion 1, 3 at ranks 2-4 (bound 1) and 2-3 (bound 2); the larger tables
# (rank 5, 6 at bound 1, rank 4 at bound 2) get a few instances each, since
# the pairwise reference costs about 20 us a pair.
_PACKED_CASES = [
    *(
        (n, bound, k, m, 10 * n + k + m)
        for n, bound in ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2))
        for k in range(4)
        for m in (1, 3)
    ),
    (5, 1, 0, 3, 1),
    (5, 1, 3, 1, 2),
    (5, 1, 2, 3, 3),
    (6, 1, 3, 3, 4),
    (4, 2, 2, 3, 5),
]


@pytest.mark.parametrize("n, bound, k, m, seed", _PACKED_CASES)
def test_packed_table_matches_pairwise(n, bound, k, m, seed):
    mat = gen_random(n, k, m, 2 if bound == 1 else 1, seed=seed)
    assert _byte_load(pairing_of(mat), bound) <= _BYTE_SAFE
    assert _commutation_table(pairing_of(mat), bound) == _pairwise_table(mat, bound)


def test_packed_table_exact_at_the_byte_guard():
    # Centred residues of an alternating form come in pairs t, -t (or m/2,
    # m/2), so every load is even and 126 is the largest the guard admits.
    # One torsion pair of order 127 stores 64 and 63, centred -63 and 63, so
    # the load is 126, and (1, 0, -1) pairs with (1, 0, 1) to -126: byte 2.
    g = ValueGroup(("q",), 127)
    mat = MultiparameterMatrix.from_upper(
        3,
        g,
        {(1, 2): g.element((1,), 0), (1, 3): g.element((0,), 64), (2, 3): g.element((-1,), 0)},
    )
    p = pairing_of(mat)
    assert _byte_load(p, 1) == _BYTE_SAFE - 1
    T = [[t - 127 if 2 * t > 127 else t for t in row] for row in p.torsion_form]
    values = {
        sum(a[s] * T[s][t] * b[t] for s in range(3) for t in range(3))
        for a, b in itertools.product(_brute_candidates(3, 1), repeat=2)
    }
    assert {126, -126} <= values
    assert _commutation_table(p, 1) == _pairwise_table(mat, 1)


def _torsion_only(m, upper):
    g = ValueGroup((), m)
    return MultiparameterMatrix.from_upper(3, g, {ij: g.element((), t) for ij, t in upper.items()})


@pytest.mark.parametrize(
    "mat, bound",
    [
        pytest.param(gen_random(3, 2, 11, 1, seed=1), 2, id="random-3-11"),
        pytest.param(gen_random(4, 2, 7, 1, seed=0), 2, id="random-4-7"),
        # (1, 0, 0) pairs with (0, 1, 1) to 200 in stored residues, past a
        # byte, and to -54 in centred ones
        pytest.param(_torsion_only(127, {(1, 2): 100, (1, 3): 100}), 1, id="torsion-127"),
    ],
)
def test_packed_table_centres_torsion(mat, bound, monkeypatch):
    # Stored residues in [0, m) load these tables past the guard; centred
    # ones, congruent mod m, keep them on the packed path, which never calls
    # ``Pairing.commutator``.
    p = pairing_of(mat)
    assert _byte_load(p, bound, centred=False) > _BYTE_SAFE >= _byte_load(p, bound)
    expected = _pairwise_table(mat, bound)

    def per_pair(self, a, b):
        raise AssertionError("the table took the per-pair path")

    monkeypatch.setattr(Pairing, "commutator", per_pair)
    assert _commutation_table(p, bound) == expected


@pytest.mark.parametrize("n, k, seed, bound", [(4, 2, 0, 1), (4, 2, 3, 2), (5, 1, 0, 1)])
def test_brute_wide_entries_fallback(n, k, seed, bound):
    # Scaling the free forms by 2^18 keeps every commutator's vanishing set,
    # and pushes the table past the byte guard onto the per-pair path.
    mat = gen_random(n, k, 1, 2, seed=seed)
    g = mat.value_group
    wide = MultiparameterMatrix.from_upper(
        n,
        g,
        {
            (i + 1, j + 1): g.element(tuple(x << 18 for x in mat.entries[i][j].free))
            for i in range(n)
            for j in range(i + 1, n)
        },
    )
    assert _byte_load(pairing_of(wide), bound) > _BYTE_SAFE
    assert brute_force_dimension(wide, bound) == brute_force_dimension(mat, bound)


# ---------------------------------------------------------------------------
# codimension


def test_codimension_examples():
    assert codimension(gen_commutative(3)) == 0
    assert codimension(sympl4()) == 2
    assert codimension(gen_independent(3)) == 2


def test_codimension_refuses_inexact():
    lam, lam_t = gen_transpose_pair(3)
    with pytest.raises(InexactDimensionError):
        codimension(tensor(lam, lam_t, "shared"), SolverOptions(time_budget=0.0))


# ---------------------------------------------------------------------------
# acceptance-adjacent structure


def test_symplectic_pair_exact_in_both_modes():
    lam = sympl4()
    for mode in ("shared", "disjoint"):
        res = dimension(tensor(lam, lam, mode))
        assert (res.lower, res.upper, res.exact) == (4, 4, True)


def test_weyl_chain():
    def rank2(name):
        g = ValueGroup((name,), 1)
        return MultiparameterMatrix.from_upper(2, g, {(1, 2): g.generator(name)})

    chain = tensor(tensor(rank2("q1"), rank2("q2"), "disjoint"), rank2("q3"), "disjoint")
    res = dimension(chain)
    assert (res.lower, res.upper, res.exact) == (3, 3, True)
