import hashlib
import itertools
import json

import pytest

from qtorus import harness
from qtorus.harness import (
    CampaignConfig,
    PairAnalysis,
    _trial_pair,
    check_additivity,
    check_strict,
    check_superadditivity,
    check_upper_bound,
    diagonal_sublattice,
    gen_commutative,
    gen_independent,
    gen_random,
    gen_transpose_pair,
    run_campaign,
)
from qtorus.lattice import Sublattice
from qtorus.pairing import (
    MultiparameterMatrix,
    is_commutative,
    pairing_of,
    tensor,
)
from qtorus.solver import dimension
from qtorus.valuegroup import ValueGroup


def bq():
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(2, g, {(1, 2): g.generator("q")})


def sympl4():
    g = ValueGroup(("q",), 1)
    return MultiparameterMatrix.from_upper(
        4, g, {(1, 2): g.generator("q"), (3, 4): g.generator("q")}
    )


def test_gen_independent():
    assert dimension(gen_independent(1)).to_json()["lower"] == 1
    m2 = gen_independent(2)
    assert m2.value_group.free_rank == 1
    m3 = gen_independent(3)
    assert m3.value_group.free_rank == 3
    res = dimension(m3)
    assert (res.lower, res.upper) == (1, 1)


def test_gen_transpose_pair():
    lam, lam_t = gen_transpose_pair(3)
    assert lam.value_group == lam_t.value_group
    assert dimension(lam).to_json() == dimension(lam_t).to_json() | {
        "witness": dimension(lam_t).to_json()["witness"]
    }
    assert lam_t.entry(1, 2) == -lam.entry(1, 2)
    product = tensor(lam, lam_t, "shared")
    diag = diagonal_sublattice(3)
    assert diag.rank == 3
    assert is_commutative(pairing_of(product), diag)


def test_gen_random_determinism_and_invariants():
    a = gen_random(3, 2, 4, 2, seed=42)
    b = gen_random(3, 2, 4, 2, seed=42)
    assert a == b
    c = gen_random(3, 2, 4, 2, seed=43)
    assert a != c
    flat = gen_random(3, 2, 1, 0, seed=1)
    assert flat.is_commutative_matrix()


def test_gen_random_takes_one_name_per_scalar():
    mat = gen_random(3, 2, seed=1, names=("a", "b"))
    assert mat.value_group.free_names == ("a", "b")
    for names in (("a", "b"), ("a",), ("a", "b", "c", "d")):
        with pytest.raises(ValueError, match="one name per free scalar"):
            gen_random(3, 3, seed=1, names=names)


def test_superadditivity_trivial_and_transpose():
    c2, c3 = gen_commutative(2), gen_commutative(3)
    v = check_superadditivity(c2, c3)
    assert v.conclusion == "holds" and v.data["target"] == 5
    lam, lam_t = gen_transpose_pair(3)
    v = check_superadditivity(lam, lam_t)
    assert v.conclusion == "holds" and v.data["target"] == 2


def test_upper_bound_transpose_pair_attains():
    lam, lam_t = gen_transpose_pair(3)
    v = check_upper_bound(lam, lam_t)
    assert v.statement == "UpperBound"
    assert v.hypotheses_met and v.conclusion == "holds"
    assert v.data["bound"] == 3
    assert v.data["tensor"]["lower"] == 3  # equality: the bound is attained


def test_upper_bound_hypothesis_failure_weak_form():
    # ranks 2/2 with dims 2/1: the strengthened bound would be 2, the
    # product has dimension 3, and the weak bound 3 <= 3 still holds.
    v = check_upper_bound(gen_commutative(2), bq())
    assert v.statement == "WeakUpperBound"
    assert not v.hypotheses_met
    assert v.data["rhs"] == 3 and v.data["bound"] == 3
    assert v.data["tensor"] == {
        "lower": 3,
        "upper": 3,
        "exact": True,
        "witness": v.data["tensor"]["witness"],
    }
    assert v.conclusion == "holds"


def test_upper_bound_commutative_pair_weak_equality():
    v = check_upper_bound(gen_commutative(2), gen_commutative(3))
    assert v.statement == "WeakUpperBound" and v.conclusion == "holds"
    assert v.data["tensor"]["lower"] == v.data["bound"] == 5


def test_strict_gate_and_conclusion():
    v = check_strict(sympl4(), sympl4())
    assert v.hypotheses_met
    assert v.conclusion == "holds"
    assert v.data["rhs"] == 6  # 4 < 5 = rhs - 1
    gate = check_strict(gen_independent(3), sympl4())
    assert not gate.hypotheses_met and gate.conclusion == "inconclusive"


def test_additivity_cases():
    v = check_additivity(gen_commutative(2), bq())
    assert v.statement == "WeylAnalogue" and v.conclusion == "holds"
    v = check_additivity(gen_commutative(3), sympl4())
    assert v.statement == "AdditivityCodimLE1" and v.conclusion == "holds"
    v = check_additivity(sympl4(), sympl4())
    assert v.statement == "AdditivityCodim2" and v.conclusion == "holds"
    assert v.data["target"] == 4
    gate = check_additivity(gen_independent(3), gen_independent(3))
    assert not gate.hypotheses_met and gate.conclusion == "inconclusive"


def test_commutative_factor_adds_full_rank():
    # one commutative factor contributes exactly its rank
    for seed in range(12):
        other = gen_random(3, 2, 1, 2, seed=seed)
        d2 = dimension(other)
        if not d2.exact:
            continue
        for r1 in (1, 2):
            res = dimension(tensor(gen_commutative(r1), other, "shared"))
            assert res.exact and res.lower == r1 + d2.lower


def test_upper_bound_consistency_with_superadditivity():
    for seed in range(25):
        lam1 = gen_random(2, 1, 1, 2, seed=seed)
        lam2 = gen_random(3, 1, 1, 2, seed=1000 + seed)
        a = PairAnalysis(lam1, lam2)
        ub = check_upper_bound(lam1, lam2, analysis=a)
        sup = check_superadditivity(lam1, lam2, analysis=a)
        if ub.hypotheses_met and ub.conclusion == "holds":
            assert sup.conclusion == "holds"


def test_campaign_empty():
    rep = run_campaign(CampaignConfig(trials=0))
    assert rep.total_violations == 0
    assert all(sum(t.values()) == 0 for t in rep.tallies.values())


def test_campaign_deterministic_and_clean():
    cfg = CampaignConfig(trials=25, seed=11)
    r1 = run_campaign(cfg)
    r2 = run_campaign(cfg)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(r2.to_json(), sort_keys=True)
    assert r1.total_violations == 0
    sup = r1.tallies["Superadditivity"]
    assert sup["holds"] + sup["violated"] + sup["inconclusive"] == 25


def test_campaign_oracle_is_exercised():
    rep = run_campaign(CampaignConfig(trials=15, seed=2))
    assert rep.oracle_checked + rep.oracle_skipped == 15
    assert rep.oracle_checked > 0


def test_campaign_takes_no_oracle_where_upper_is_the_rank(monkeypatch):
    # Commutative factors: every product's certified upper bound is its rank,
    # and the oracle, a count of independent vectors, cannot exceed it.
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called on a trial whose upper bound is the rank")

    monkeypatch.setattr(harness, "brute_force_dimension", refuse)
    rep = run_campaign(CampaignConfig(trials=30, seed=1, max_free=0))
    assert (rep.oracle_checked, rep.oracle_skipped) == (30, 0)
    assert rep.total_violations == 0
    held = {s: t["holds"] for s, t in rep.tallies.items() if t["holds"]}
    assert held == {
        "Superadditivity": 30,
        "WeakUpperBound": 30,
        "AdditivityCodimLE1": 26,
        "WeylAnalogue": 4,
    }
    assert rep.tallies["StrictUpperBound"]["inconclusive"] == 30
    assert sum(t["violated"] + t["inconclusive"] for t in rep.tallies.values()) == 30


@pytest.mark.parametrize(
    "config",
    [
        CampaignConfig(seed=7),
        CampaignConfig(seed=3, max_rank=5, max_free=3),
        CampaignConfig(seed=11, max_rank=4, max_free=3, torsion=3),
    ],
    ids=["defaults-7", "rank5-3", "torsion3-11"],
)
def test_concatenated_factor_witnesses_commute(config):
    # Cross-block commutators vanish, so the factor witnesses side by side
    # commute in the product; the product's own lower bound already reaches
    # their rank, which is why the checkers read it alone.
    for trial in range(12):
        lam1, lam2 = _trial_pair(config, trial)
        n1, n2 = lam1.rank, lam2.rank
        d1, d2 = dimension(lam1, config.solver), dimension(lam2, config.solver)
        rows = [list(r) + [0] * n2 for r in d1.witness.rows]
        rows += [[0] * n1 + list(r) for r in d2.witness.rows]
        concat = Sublattice.span(n1 + n2, rows)
        assert concat.rank == d1.lower + d2.lower
        for mode in ("shared", "disjoint"):
            product = tensor(lam1, lam2, mode)
            assert is_commutative(pairing_of(product), concat)
            assert dimension(product, config.solver).lower >= concat.rank


# ---------------------------------------------------------------------------
# golden campaign bytes

GOLDEN_CAMPAIGNS = [
    (
        CampaignConfig(trials=60, seed=7),
        "488cd17bba9b289701d97b8303067af5d713d95f5389b2cb52cdd626c109ccce",
    ),
    (
        CampaignConfig(trials=40, seed=3, max_rank=5, max_free=3),
        "52c088b14659085fd9992666b9748811fdaf4ea7f4b8f66ac303dcb6b92fee42",
    ),
    (
        CampaignConfig(trials=40, seed=11, max_rank=4, max_free=3, torsion=3),
        "1a5d7dea96310d0e8d269f32daf45263af482cf2fe6847730fd34122ac893967",
    ),
]


@pytest.mark.parametrize(
    "config,digest", GOLDEN_CAMPAIGNS, ids=["defaults-7", "rank5-3", "torsion3-11"]
)
def test_campaign_report_bytes_are_pinned(config, digest):
    # The rank-5 campaign decides StrictUpperBound and AdditivityCodim2 five
    # times each and skips the oracle once, so every checker and both oracle
    # outcomes feed the pinned bytes.
    text = json.dumps(run_campaign(config).to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# every verdict, violated ones included, against reference comparison ladders
#
# No campaign reaches a violated verdict, since every statement is a
# theorem.  A stub analysis with chosen factor dims, ranks, center flag and
# tensor interval drives each checker through every interval instead, and
# the ladders below state each law as explicit threshold comparisons.


INEXACT = {"reason": "factor dims inexact"}


def _ladder_superadditivity(exact, d1, d2, r1, r2, centers, lo, hi):
    if not exact:
        return "Superadditivity", True, "inconclusive", {}
    target = d1 + d2
    if lo >= target:
        return "Superadditivity", True, "holds", {"target": target}
    if hi < target:
        return "Superadditivity", True, "violated", {"target": target}
    return "Superadditivity", True, "inconclusive", {"target": target}


def _ladder_upper_bound(exact, d1, d2, r1, r2, centers, lo, hi):
    if not exact:
        return "UpperBound", False, "inconclusive", INEXACT
    rhs = min(d1 + r2, d2 + r1)
    met = d1 < r1 and d2 < r2
    statement = "UpperBound" if met else "WeakUpperBound"
    bound = rhs - 1 if met else rhs
    extra = {"rhs": rhs, "bound": bound}
    if hi <= bound:
        return statement, met, "holds", extra
    if lo > bound:
        return statement, met, "violated", extra
    return statement, met, "inconclusive", extra


def _ladder_strict(exact, d1, d2, r1, r2, centers, lo, hi):
    if not exact:
        return "StrictUpperBound", False, "inconclusive", INEXACT
    met = d1 >= 2 and d2 >= 2 and r1 - d1 >= 2 and r2 - d2 >= 2 and centers
    if not met:
        return "StrictUpperBound", False, "inconclusive", {"reason": "hypotheses not met"}
    rhs = min(d1 + r2, d2 + r1)
    extra = {"rhs": rhs, "strict_bound": rhs - 1}
    if hi <= rhs - 2:
        return "StrictUpperBound", True, "holds", extra
    if lo >= rhs - 1:
        return "StrictUpperBound", True, "violated", extra
    return "StrictUpperBound", True, "inconclusive", extra


def _ladder_additivity(exact, d1, d2, r1, r2, centers, lo, hi):
    if not exact:
        return "AdditivityCodimLE1", False, "inconclusive", INEXACT
    codim1, codim2 = r1 - d1, r2 - d2
    if r1 == 2 and r2 == 2:
        statement = "WeylAnalogue"
    elif min(codim1, codim2) <= 1:
        statement = "AdditivityCodimLE1"
    elif min(codim1, codim2) == 2 and d1 >= 2 and d2 >= 2 and centers:
        statement = "AdditivityCodim2"
    else:
        return "AdditivityCodimLE1", False, "inconclusive", {"reason": "no additivity criterion applies"}
    target = d1 + d2
    if lo >= target and hi <= target:
        return statement, True, "holds", {"target": target}
    if hi < target or lo > target:
        return statement, True, "violated", {"target": target}
    return statement, True, "inconclusive", {"target": target}


LADDERS = {
    check_superadditivity: _ladder_superadditivity,
    check_upper_bound: _ladder_upper_bound,
    check_strict: _ladder_strict,
    check_additivity: _ladder_additivity,
}


class _StubInterval:
    def __init__(self, lower, upper):
        self.lower, self.upper, self.exact = lower, upper, lower == upper

    def to_json(self):
        return {"lower": self.lower, "upper": self.upper, "exact": self.exact}


class _StubAnalysis:
    """The facts a checker reads from a PairAnalysis, chosen freely."""

    def __init__(self, dim1, dim2, r1, r2, centers, lo, hi):
        self.d1, self.d2 = _StubInterval(*dim1), _StubInterval(*dim2)
        self.r1, self.r2 = r1, r2
        self.centers_trivial = centers
        self.dt = _StubInterval(lo, hi)

    def factors_exact(self):
        return self.d1.exact and self.d2.exact

    def base_data(self):
        return {"rank1": self.r1, "rank2": self.r2, "tensor": self.dt.to_json()}

    def violation_payload(self):
        return {"stub": True}


def _factor_intervals(r):
    """Every exact dimension of a rank-r factor, plus one open interval."""
    return [(d, d) for d in range(1, r + 1)] + ([(1, r)] if r > 1 else [])


def _grid():
    """Factor dims (exact, or one open interval), ranks 1..5, both center
    flags, and every tensor interval 1 <= lo <= hi <= r1 + r2."""
    for r1, r2 in itertools.product(range(1, 6), repeat=2):
        for dim1, dim2 in itertools.product(_factor_intervals(r1), _factor_intervals(r2)):
            for centers in (True, False):
                for hi in range(1, r1 + r2 + 1):
                    for lo in range(1, hi + 1):
                        yield dim1, dim2, r1, r2, centers, lo, hi


def test_every_verdict_matches_the_comparison_ladders():
    # Real factors whose centers agree with the stub's flag, so a checker
    # that reads the centers from its arguments sees the same value.
    factors = {True: (bq(), bq()), False: (gen_commutative(1), bq())}
    own_keys = {"rank1", "rank2", "tensor", "instances"}
    seen = {checker: set() for checker in LADDERS}
    for dim1, dim2, r1, r2, centers, lo, hi in _grid():
        a = _StubAnalysis(dim1, dim2, r1, r2, centers, lo, hi)
        exact = a.factors_exact()
        lam1, lam2 = factors[centers]
        for checker, ladder in LADDERS.items():
            v = checker(lam1, lam2, analysis=a)
            extra = {k: x for k, x in v.data.items() if k not in own_keys}
            got = (v.statement, v.hypotheses_met, v.conclusion, extra)
            want = ladder(exact, dim1[0], dim2[0], r1, r2, centers, lo, hi)
            assert got == want, (checker.__name__, dim1, dim2, r1, r2, centers, lo, hi)
            assert ("instances" in v.data) == (v.conclusion == "violated")
            seen[checker].add((v.statement, v.conclusion))
    for checker in LADDERS:
        assert {c for _, c in seen[checker]} == {"holds", "violated", "inconclusive"}
    assert ("UpperBound", "violated") in seen[check_upper_bound]
    assert ("WeakUpperBound", "violated") in seen[check_upper_bound]
    assert ("StrictUpperBound", "violated") in seen[check_strict]
    for statement in ("WeylAnalogue", "AdditivityCodimLE1", "AdditivityCodim2"):
        assert (statement, "violated") in seen[check_additivity]
