"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qtorus.elements import cocycle, commutator_units
from qtorus.harness import (
    CampaignConfig,
    check_additivity,
    check_strict,
    check_upper_bound,
    diagonal_sublattice,
    gen_commutative,
    gen_independent,
    gen_random,
    gen_transpose_pair,
    run_campaign,
)
from qtorus.instances import dumps, parse, serialize
from qtorus.lattice import Sublattice, identity
from qtorus.pairing import (
    MultiparameterMatrix,
    center_is_trivial,
    is_commutative,
    pairing_of,
    restrict_matrix,
    tensor,
)
from qtorus.solver import brute_force_dimension, dimension
from qtorus.valuegroup import ValueGroup

SRC = str(Path(__file__).resolve().parent.parent / "src")


def announce(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {text}")
    assert ok, f"criterion {num}: {text}"


def start_cli(*args):
    """Start ``python -m qtorus`` with ``args``, its stdout and stderr piped as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "qtorus", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def campaign_report():
    return run_campaign(CampaignConfig(trials=500, seed=20260808))


def sympl4():
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(
        4, g, {(1, 2): g.generator("q"), (3, 4): g.generator("q")}
    )


def test_criterion_01_independent_parameters():
    ok = True
    for n in (2, 3, 4, 5):
        start = time.monotonic()
        res = dimension(gen_independent(n))
        elapsed = time.monotonic() - start
        ok = ok and res.exact and res.lower == 1 and elapsed < 1.0
    announce(1, ok, "independent multiparameters have exact dimension 1 in < 1 s (n = 2..5)")


def test_criterion_02_extremal_tensor():
    ok = True
    for n in (2, 3, 4, 5):
        lam, lam_t = gen_transpose_pair(n)
        start = time.monotonic()
        res = dimension(tensor(lam, lam_t, "shared"))
        elapsed = time.monotonic() - start
        ok = ok and res.exact and res.lower == n
        if n >= 4:
            ok = ok and elapsed < 10.0
        # a commutative rank-n witness containing every diagonal vector
        diag = diagonal_sublattice(n)
        product_pairing = pairing_of(tensor(lam, lam_t, "shared"))
        ok = ok and diag.rank == n and is_commutative(product_pairing, diag)
        for i in range(n):
            vec = [0] * (2 * n)
            vec[i] = vec[n + i] = 1
            ok = ok and diag.contains(vec)
        # the value meets the two-factor upper bound with d_i = 1
        d_i = dimension(lam).lower
        ok = ok and res.lower == min(d_i + n, d_i + n) - 1
        if n >= 3:
            ok = ok and all(res.witness.contains(r) for r in diag.rows)
    announce(2, ok, "transpose-pair tensor has exact dimension n with diagonal witness (n = 2..5)")


def test_criterion_03_superadditivity_campaign(campaign_report):
    tall = campaign_report.tallies["Superadditivity"]
    total = tall["holds"] + tall["violated"] + tall["inconclusive"]
    decisive = (tall["holds"] + tall["violated"]) / total
    ok = total == 500 and tall["violated"] == 0 and decisive >= 0.90
    announce(3, ok, f"superadditivity: 0 violations, {decisive:.1%} decisive over 500 pairs")


def test_criterion_04_upper_bound_campaign(campaign_report):
    tall = campaign_report.tallies["UpperBound"]
    ok = tall["violated"] == 0
    # the explicit hypothesis-failure instance: ranks 2/2, dims 2/1
    verdict = check_upper_bound(gen_commutative(2), bq_instance())
    ok = ok and verdict.statement == "WeakUpperBound"
    ok = ok and not verdict.hypotheses_met
    ok = ok and verdict.data["tensor"]["exact"] and verdict.data["tensor"]["lower"] == 3
    ok = ok and verdict.data["bound"] == 3 and verdict.conclusion == "holds"
    announce(4, ok, "upper bound: 0 violations when hypotheses hold; weak bound 3 <= 3 on the rank-2/2 dims-2/1 pair")


def bq_instance():
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(2, g, {(1, 2): g.generator("q")})


def test_criterion_05_strict_and_codim2_witness():
    start = time.monotonic()
    lam = sympl4()
    base = dimension(lam)
    ok = base.exact and base.lower == 2 and center_is_trivial(pairing_of(lam))
    for mode in ("shared", "disjoint"):
        res = dimension(tensor(lam, lam, mode))
        ok = ok and res.exact and res.lower == 4
    strict = check_strict(lam, lam)
    ok = ok and strict.hypotheses_met and strict.conclusion == "holds"
    ok = ok and strict.data["rhs"] - 1 == 5  # 4 < 5
    add = check_additivity(lam, lam)
    ok = ok and add.statement == "AdditivityCodim2" and add.conclusion == "holds"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    announce(5, ok, "rank-4 symplectic pair: exact 4 in both modes, 4 < 5 strict, 4 = 2+2 additive, < 30 s")


def test_criterion_06_weyl_chain():
    def rank2(name):
        g = ValueGroup((name,), 1)
        return MultiparameterMatrix.from_upper(2, g, {(1, 2): g.generator(name)})

    chain = tensor(tensor(rank2("q1"), rank2("q2"), "disjoint"), rank2("q3"), "disjoint")
    res = dimension(chain)
    parts = [dimension(rank2(f"q{j}")).lower for j in (1, 2, 3)]
    ok = res.exact and res.lower == 3 and res.lower == sum(parts)
    announce(6, ok, "chain of three rank-2 factors: exact total dimension 3 = 1+1+1")


# -- criterion 7 helpers ------------------------------------------------------

_PAIRS4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _signed_permutation_actions():
    """Action of every signed coordinate permutation on upper-entry 6-tuples.

    Both sides of the comparison are invariant under v -> (s_i v_perm(i)):
    the box of candidate vectors is symmetric, so the oracle's compatibility
    graph is carried to an isomorphic one, and the closed form only depends
    on the matrix rank.  Exhausting orbit representatives therefore covers
    all 5^6 matrices.
    """
    actions = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            entry_map = []
            for (i, j) in _PAIRS4:
                a, b = perm[i], perm[j]
                sign = signs[i] * signs[j]
                if a > b:
                    a, b = b, a
                    sign = -sign
                entry_map.append((_PAIRS4.index((a, b)), sign))
            actions.append(entry_map)
    return actions


def _apply(action, entries):
    return tuple(sign * entries[src] for src, sign in action)


def alternating(n, vals):
    M = [[0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = vals[pos]
            M[j][i] = -vals[pos]
            pos += 1
    return M


def form_instance(n, M):
    g = ValueGroup(("q",), 1)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j]:
                upper[(i + 1, j + 1)] = g.element((M[i][j],))
    return MultiparameterMatrix.from_upper(n, g, upper)


def test_criterion_07_oracle_equivalence():
    ok = True
    rng = random.Random(77)
    exact_checked = 0
    for trial in range(200):
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        mat = gen_random(n, k, 1, 2, seed=10_000 + trial)
        res = dimension(mat)
        oracle = brute_force_dimension(mat, 2)
        ok = ok and res.lower <= oracle <= res.upper
        if res.exact:
            ok = ok and oracle == res.lower
            exact_checked += 1
    ok = ok and exact_checked >= 180

    # every alternating 2x2 and 3x3 matrix with entries in [-2, 2]
    for n in (2, 3):
        for vals in itertools.product(range(-2, 3), repeat=n * (n - 1) // 2):
            inst = form_instance(n, alternating(n, vals))
            res = dimension(inst)
            ok = ok and res.exact and is_commutative(pairing_of(inst), res.witness)
            ok = ok and brute_force_dimension(inst, 2) == res.lower

    # every alternating 4x4 matrix, exhausted through the signed-permutation
    # symmetry that both sides provably respect
    actions = _signed_permutation_actions()
    seen = set()
    reps = []
    for vals in itertools.product(range(-2, 3), repeat=6):
        if vals in seen:
            continue
        reps.append(vals)
        for action in actions:
            seen.add(_apply(action, vals))
    for vals in reps:
        inst = form_instance(4, alternating(4, vals))
        res = dimension(inst)
        ok = ok and res.exact and is_commutative(pairing_of(inst), res.witness)
        ok = ok and brute_force_dimension(inst, 2) == res.lower
    # spot-check the symmetry argument itself on random orbit pairs
    for _ in range(10):
        vals = tuple(rng.randint(-2, 2) for _ in range(6))
        action = actions[rng.randrange(len(actions))]
        moved = _apply(action, vals)
        ok = ok and brute_force_dimension(
            form_instance(4, alternating(4, vals)), 2
        ) == brute_force_dimension(form_instance(4, alternating(4, moved)), 2)
    announce(
        7,
        ok,
        f"oracle agreement on 200 instances and all alternating n <= 4 forms ({len(reps)} orbit reps)",
    )


def test_criterion_08_commutator_oracle():
    ok = True
    rng = random.Random(88)
    contexts = [gen_random(rng.randint(1, 4), rng.randint(0, 2), rng.choice((1, 1, 3, 4)), 2, seed=s) for s in range(20)]
    pairings = [pairing_of(m) for m in contexts]
    for trial in range(1000):
        mat = contexts[trial % len(contexts)]
        p = pairings[trial % len(contexts)]
        n = mat.rank
        a = [rng.randint(-3, 3) for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        ok = ok and commutator_units(mat, a, b) == p.commutator(a, b)
    for trial in range(1000):
        mat = contexts[trial % len(contexts)]
        n = mat.rank
        a, b, c = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(3))
        ab = [x + y for x, y in zip(a, b)]
        bc = [x + y for x, y in zip(b, c)]
        lhs = cocycle(mat, a, b) + cocycle(mat, ab, c)
        rhs = cocycle(mat, b, c) + cocycle(mat, a, bc)
        ok = ok and lhs == rhs
    for trial in range(1000):
        mat = contexts[trial % len(contexts)]
        n = mat.rank
        a, b, c = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(3))
        ab = [x + y for x, y in zip(a, b)]
        bc = [x + y for x, y in zip(b, c)]
        com = lambda u, v: commutator_units(mat, u, v)
        ok = ok and com(ab, c) == com(a, c) + com(b, c)
        ok = ok and com(a, bc) == com(a, b) + com(a, c)
        ok = ok and com(a, [-x for x in b]) == -com(a, b)
        ok = ok and com([-x for x in a], b) == -com(a, b)
    announce(8, ok, "unit commutators match the pairing; cocycle and commutator identities hold (1000 each)")


def test_criterion_09_finite_index_invariance():
    ok = True
    rng = random.Random(99)
    compared = 0
    for trial in range(200):
        n = rng.randint(1, 3)
        mat = gen_random(n, rng.randint(0, 2), 1, 2, seed=20_000 + trial)
        base = dimension(mat)
        if not base.exact:
            continue
        U = identity(n)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        rows = []  # D·U for a diagonal D with entries in [1, 3]
        for row in U:
            d = rng.randint(1, 3)
            rows.append([d * a for a in row])
        sub = Sublattice.span(n, rows)
        ok = ok and sub.rank == n
        restricted = restrict_matrix(mat, sub)
        res = dimension(restricted)
        ok = ok and center_is_trivial(pairing_of(mat)) == center_is_trivial(
            pairing_of(restricted)
        )
        if res.exact:
            ok = ok and res.lower == base.lower
            compared += 1
    ok = ok and compared >= 150
    announce(9, ok, f"dimension and center invariant under finite-index restriction ({compared} exact comparisons)")


def test_criterion_10_cli_contract(tmp_path):
    ok = True
    # parse/serialize round-trip on 100 generated instances
    rng = random.Random(1010)
    for trial in range(100):
        kind = rng.choice(("random", "independent", "commutative"))
        if kind == "random":
            mat = gen_random(rng.randint(1, 4), rng.randint(0, 3), rng.choice((1, 2, 5)), 2, seed=trial)
        elif kind == "independent":
            mat = gen_independent(rng.randint(1, 4))
        else:
            mat = gen_commutative(rng.randint(1, 4))
        ok = ok and parse(serialize(mat)) == mat
        ok = ok and dumps(parse(dumps(mat))) == dumps(mat)

    # both runs start before either is read, so they can overlap
    runs = [start_cli("verify", "--trials", "500", "--seed", "7", "--json") for _ in range(2)]
    first, second = (run.communicate()[0] for run in runs)
    ok = ok and runs[0].returncode == 0
    doc = json.loads(first)
    ok = ok and doc["violations"] == [] and doc["anomalies"] == []
    ok = ok and second == first and runs[1].returncode == 0
    # any change to a campaign answer or to the report format moves this digest
    digest = hashlib.sha256(first.encode()).hexdigest()
    ok = ok and digest == "93d91f298b302dcca4db37c9c8292347d487dc6e122b5ac35b0aa1285db3ea02"
    announce(10, ok, "100 round-trips; verify --trials 500 --seed 7 exits 0, byte-identical, pinned reruns")
