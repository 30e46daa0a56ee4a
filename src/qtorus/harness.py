"""Instance generators and mechanical checkers for the tensor dimension laws.

Each checker evaluates one proved statement about dim of a tensor product
against certified dimension intervals.  Verdicts are tri-state: a statement
``holds`` or is ``violated`` only when the interval certificates decide it;
anything else is ``inconclusive``.  Since every checked statement is a
theorem, a ``violated`` verdict means an implementation bug, so such
verdicts carry the full instances for replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import instances
from .lattice import Sublattice
from .pairing import (
    MultiparameterMatrix,
    center_is_trivial,
    pairing_of,
    tensor,
    transpose,
)
from .solver import (
    ResourceLimitError,
    SolverOptions,
    brute_force_dimension,
    dimension,
)
from .valuegroup import ValueGroup

STATEMENTS = (
    "Superadditivity",
    "UpperBound",
    "WeakUpperBound",
    "StrictUpperBound",
    "AdditivityCodimLE1",
    "AdditivityCodim2",
    "WeylAnalogue",
)

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    statement: str
    hypotheses_met: bool
    conclusion: str
    data: dict

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "hypotheses_met": self.hypotheses_met,
            "conclusion": self.conclusion,
            "data": self.data,
        }


# ---------------------------------------------------------------------------
# generators


def gen_independent(n: int) -> MultiparameterMatrix:
    """n generators whose pairwise commutation scalars are jointly independent."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    names = tuple(f"q_{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1))
    group = ValueGroup(names, 1)
    upper = {}
    pos = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            upper[(i, j)] = group.generator(names[pos])
            pos += 1
    return MultiparameterMatrix.from_upper(n, group, upper)


def gen_transpose_pair(n: int) -> tuple[MultiparameterMatrix, MultiparameterMatrix]:
    """An independent-scalar matrix and its transpose over one value group."""
    lam = gen_independent(n)
    return lam, transpose(lam)


def gen_commutative(n: int) -> MultiparameterMatrix:
    return MultiparameterMatrix.from_upper(n, ValueGroup((), 1), {})


def gen_random(
    n: int,
    k: int,
    m: int = 1,
    exponent_bound: int = 2,
    seed: int = 0,
    names: tuple[str, ...] | None = None,
) -> MultiparameterMatrix:
    """Seeded random instance; identical arguments give identical output."""
    if n < 1 or k < 0 or m < 1:
        raise ValueError("need n >= 1, k >= 0, m >= 1")
    names = names or tuple(f"q{l + 1}" for l in range(k))
    group = ValueGroup(names, m)
    rng = random.Random(seed)
    upper = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            free = tuple(rng.randint(-exponent_bound, exponent_bound) for _ in range(k))
            torsion = rng.randrange(m) if m > 1 else 0
            upper[(i, j)] = group.element(free, torsion)
    return MultiparameterMatrix.from_upper(n, group, upper)


def diagonal_sublattice(n: int) -> Sublattice:
    """The rank-n sublattice of Z^(2n) spanned by the vectors (e_i, e_i)."""
    rows = []
    for i in range(n):
        row = [0] * (2 * n)
        row[i] = 1
        row[n + i] = 1
        rows.append(row)
    return Sublattice.span(2 * n, rows)


# ---------------------------------------------------------------------------
# pair analysis shared by the checkers


class PairAnalysis:
    """Dimensions of two factors and their tensor product, computed once."""

    def __init__(
        self,
        lam1: MultiparameterMatrix,
        lam2: MultiparameterMatrix,
        mode: str = "shared",
        opts: SolverOptions | None = None,
    ):
        self.lam1, self.lam2 = lam1, lam2
        self.opts = opts or SolverOptions()
        self.r1, self.r2 = lam1.rank, lam2.rank
        self.d1 = dimension(lam1, self.opts)
        self.d2 = dimension(lam2, self.opts)
        self.product = tensor(lam1, lam2, mode)
        self.dt = dimension(self.product, self.opts)

    def factors_exact(self) -> bool:
        return self.d1.exact and self.d2.exact

    def base_data(self) -> dict:
        return {
            "rank1": self.r1,
            "rank2": self.r2,
            "dim1": self.d1.to_json(),
            "dim2": self.d2.to_json(),
            "tensor": self.dt.to_json(),
        }

    def violation_payload(self) -> dict:
        return {
            "factor1": instances.serialize(self.lam1),
            "factor2": instances.serialize(self.lam2),
            "product": instances.serialize(self.product),
        }


def _verdict(statement, hypotheses_met, conclusion, analysis, extra=None) -> Verdict:
    data = analysis.base_data()
    if extra:
        data.update(extra)
    if conclusion == VIOLATED:
        data["instances"] = analysis.violation_payload()
    return Verdict(statement, hypotheses_met, conclusion, data)


# ---------------------------------------------------------------------------
# checkers


def check_superadditivity(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) >= dim(factor1) + dim(factor2), unconditionally."""
    a = analysis or PairAnalysis(lam1, lam2, opts=opts)
    if not a.factors_exact():
        return _verdict("Superadditivity", True, INCONCLUSIVE, a)
    target = a.d1.lower + a.d2.lower
    if a.dt.lower >= target:
        return _verdict("Superadditivity", True, HOLDS, a, {"target": target})
    if a.dt.upper < target:
        return _verdict("Superadditivity", True, VIOLATED, a, {"target": target})
    return _verdict("Superadditivity", True, INCONCLUSIVE, a, {"target": target})


def check_upper_bound(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) <= min(d1 + r2, d2 + r1) - 1 when both factors have
    dimension below their rank; without that hypothesis the same bound
    holds without the -1 and is reported as WeakUpperBound."""
    a = analysis or PairAnalysis(lam1, lam2, opts=opts)
    if not a.factors_exact():
        return _verdict("UpperBound", False, INCONCLUSIVE, a, {"reason": "factor dims inexact"})
    d1, d2 = a.d1.lower, a.d2.lower
    rhs = min(d1 + a.r2, d2 + a.r1)
    met = d1 < a.r1 and d2 < a.r2
    statement = "UpperBound" if met else "WeakUpperBound"
    bound = rhs - 1 if met else rhs
    extra = {"rhs": rhs, "bound": bound}
    if a.dt.upper <= bound:
        return _verdict(statement, met, HOLDS, a, extra)
    if a.dt.lower > bound:
        return _verdict(statement, met, VIOLATED, a, extra)
    return _verdict(statement, met, INCONCLUSIVE, a, extra)


def check_strict(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) < min(d1 + r2, d2 + r1) - 1 when both factors have
    dimension >= 2, codimension >= 2, and trivial center."""
    a = analysis or PairAnalysis(lam1, lam2, opts=opts)
    if not a.factors_exact():
        return _verdict("StrictUpperBound", False, INCONCLUSIVE, a, {"reason": "factor dims inexact"})
    d1, d2 = a.d1.lower, a.d2.lower
    centers = center_is_trivial(pairing_of(lam1)) and center_is_trivial(pairing_of(lam2))
    met = (
        d1 >= 2
        and d2 >= 2
        and a.r1 - d1 >= 2
        and a.r2 - d2 >= 2
        and centers
    )
    if not met:
        return _verdict(
            "StrictUpperBound", False, INCONCLUSIVE, a, {"reason": "hypotheses not met"}
        )
    rhs = min(d1 + a.r2, d2 + a.r1)
    extra = {"rhs": rhs, "strict_bound": rhs - 1}
    if a.dt.upper <= rhs - 2:
        return _verdict("StrictUpperBound", True, HOLDS, a, extra)
    if a.dt.lower >= rhs - 1:
        return _verdict("StrictUpperBound", True, VIOLATED, a, extra)
    return _verdict("StrictUpperBound", True, INCONCLUSIVE, a, extra)


def check_additivity(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) == d1 + d2 under any of the proved additivity criteria.

    Applicability is auto-detected: rank-2 factors on both sides (the
    multiplicative Weyl analogue), a factor of codimension <= 1, or the
    codim-2 criterion (both dims >= 2, smaller codim exactly 2, trivial
    centers).  When none applies the verdict is inconclusive with the
    hypotheses flag down.
    """
    a = analysis or PairAnalysis(lam1, lam2, opts=opts)
    if not a.factors_exact():
        return _verdict("AdditivityCodimLE1", False, INCONCLUSIVE, a, {"reason": "factor dims inexact"})
    d1, d2 = a.d1.lower, a.d2.lower
    codim1, codim2 = a.r1 - d1, a.r2 - d2
    if a.r1 == 2 and a.r2 == 2:
        statement = "WeylAnalogue"
    elif min(codim1, codim2) <= 1:
        statement = "AdditivityCodimLE1"
    elif (
        min(codim1, codim2) == 2
        and d1 >= 2
        and d2 >= 2
        and center_is_trivial(pairing_of(lam1))
        and center_is_trivial(pairing_of(lam2))
    ):
        statement = "AdditivityCodim2"
    else:
        return _verdict(
            "AdditivityCodimLE1", False, INCONCLUSIVE, a, {"reason": "no additivity criterion applies"}
        )
    target = d1 + d2
    extra = {"target": target}
    if a.dt.lower >= target and a.dt.upper <= target:
        return _verdict(statement, True, HOLDS, a, extra)
    if a.dt.upper < target or a.dt.lower > target:
        return _verdict(statement, True, VIOLATED, a, extra)
    return _verdict(statement, True, INCONCLUSIVE, a, extra)


ALL_CHECKERS = (check_superadditivity, check_upper_bound, check_strict, check_additivity)


# ---------------------------------------------------------------------------
# randomized campaign


@dataclass(frozen=True)
class CampaignConfig:
    trials: int = 500
    seed: int = 0
    max_rank: int = 3
    max_free: int = 2
    exponent_bound: int = 2
    torsion: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)
    oracle_bound: int = 1
    oracle_max_rank: int = 6
    oracle_node_limit: int = 20_000


@dataclass
class Report:
    config: CampaignConfig
    tallies: dict
    violations: list
    anomalies: list
    oracle_checked: int = 0
    oracle_skipped: int = 0

    @property
    def total_violations(self) -> int:
        return len(self.violations) + len(self.anomalies)

    def to_json(self) -> dict:
        return {
            "trials": self.config.trials,
            "seed": self.config.seed,
            "limits": {
                "max_rank": self.config.max_rank,
                "max_free": self.config.max_free,
                "exponent_bound": self.config.exponent_bound,
                "torsion": self.config.torsion,
            },
            "tallies": self.tallies,
            "oracle": {
                "checked": self.oracle_checked,
                "skipped": self.oracle_skipped,
                "note": "lower-bound agreement only",
            },
            "violations": self.violations,
            "anomalies": self.anomalies,
        }


def _trial_pair(config: CampaignConfig, trial: int):
    rng = random.Random(config.seed * 1_000_003 + trial)
    k = rng.randint(0, config.max_free)
    names = tuple(f"q{l + 1}" for l in range(k))
    pair = []
    for _ in range(2):
        n = rng.randint(1, config.max_rank)
        pair.append(
            gen_random(
                n,
                k,
                config.torsion,
                config.exponent_bound,
                seed=rng.randrange(1 << 30),
                names=names,
            )
        )
    return pair[0], pair[1]


def run_campaign(config: CampaignConfig | None = None) -> Report:
    """Stream seeded random pairs through every checker and tally verdicts.

    Also cross-checks each tensor dimension against the brute-force oracle
    at a small entry bound; the oracle value must never exceed the
    certified upper bound, and must never exceed an exact value.
    """
    config = config or CampaignConfig()
    tallies = {s: {HOLDS: 0, VIOLATED: 0, INCONCLUSIVE: 0} for s in STATEMENTS}
    violations = []
    anomalies = []
    checked = skipped = 0
    for trial in range(config.trials):
        lam1, lam2 = _trial_pair(config, trial)
        analysis = PairAnalysis(lam1, lam2, opts=config.solver)
        for checker in ALL_CHECKERS:
            verdict = checker(lam1, lam2, analysis=analysis)
            tallies[verdict.statement][verdict.conclusion] += 1
            if verdict.conclusion == VIOLATED:
                violations.append({"trial": trial, "verdict": verdict.to_json()})
        if analysis.product.rank <= config.oracle_max_rank:
            try:
                oracle = brute_force_dimension(
                    analysis.product,
                    config.oracle_bound,
                    node_limit=config.oracle_node_limit,
                )
            except ResourceLimitError:
                oracle = None
                skipped += 1
            if oracle is not None:
                checked += 1
                bad = oracle > analysis.dt.upper or (
                    analysis.dt.exact and oracle > analysis.dt.lower
                )
                if bad:
                    anomalies.append(
                        {
                            "trial": trial,
                            "oracle": oracle,
                            "tensor": analysis.dt.to_json(),
                            "instances": analysis.violation_payload(),
                        }
                    )
    return Report(config, tallies, violations, anomalies, checked, skipped)
