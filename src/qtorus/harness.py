"""Instance generators and mechanical checkers for the tensor dimension laws.

Each checker states one proved law about the dimension d of a tensor
product as ``holds_at(d)`` and lets ``_verdict`` decide it on the certified
interval [lower, upper]: the law ``holds`` when every d in it satisfies
the law, is ``violated`` when none does, and is ``inconclusive`` otherwise
or when there is no claim (inexact factors, unmet hypotheses).  Since every
checked statement is a theorem, a ``violated`` verdict means an
implementation bug, so such verdicts carry the full instances for replay.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import cached_property

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

# The campaign's brute-force cross-check: entry bound, largest tensor rank
# it runs on, and node limit before a trial's check is skipped.
ORACLE_BOUND = 1
ORACLE_MAX_RANK = 6
ORACLE_NODE_LIMIT = 20_000

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    statement: str
    hypotheses_met: bool
    conclusion: str
    data: dict


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
    """Seeded random instance; identical arguments give identical output.

    ``names``, when given, names the k free scalars, one each.
    """
    if n < 1 or k < 0 or m < 1:
        raise ValueError("need n >= 1, k >= 0, m >= 1")
    if names is None:
        names = tuple(f"q{l + 1}" for l in range(k))
    elif len(names) != k:
        raise ValueError(f"need one name per free scalar: {len(names)} names for k = {k}")
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
    """Dimensions of two factors and their shared tensor product, computed once."""

    def __init__(self, lam1: MultiparameterMatrix, lam2: MultiparameterMatrix, opts=None):
        opts = opts or SolverOptions()
        self.lam1, self.lam2 = lam1, lam2
        self.r1, self.r2 = lam1.rank, lam2.rank
        self.d1 = dimension(lam1, opts)
        self.d2 = dimension(lam2, opts)
        self.product = tensor(lam1, lam2, "shared")
        self.dt = dimension(self.product, opts)

    @cached_property
    def centers_trivial(self) -> bool:
        """Whether both factors have trivial center."""
        return all(center_is_trivial(pairing_of(lam)) for lam in (self.lam1, self.lam2))

    def factors_exact(self) -> bool:
        return self.d1.exact and self.d2.exact

    @cached_property
    def _base(self) -> dict:
        return {
            "rank1": self.r1,
            "rank2": self.r2,
            "dim1": self.d1.to_json(),
            "dim2": self.d2.to_json(),
            "tensor": self.dt.to_json(),
        }

    def base_data(self) -> dict:
        """The data every verdict on this pair starts from, a new dict per call.

        The three interval JSONs are built once per pair and shared.
        """
        return dict(self._base)

    def violation_payload(self) -> dict:
        return {
            "factor1": instances.serialize(self.lam1),
            "factor2": instances.serialize(self.lam2),
            "product": instances.serialize(self.product),
        }


def _verdict(a, statement, met, holds_at=None, extra=None) -> Verdict:
    """The only place a conclusion is formed (see the module docstring);
    ``holds_at`` is None when there is no claim to decide."""
    data = a.base_data()
    data.update(extra or {})
    conclusion = INCONCLUSIVE
    if holds_at is not None:
        outcomes = {holds_at(d) for d in range(a.dt.lower, a.dt.upper + 1)}
        if outcomes == {True}:
            conclusion = HOLDS
        elif outcomes == {False}:
            conclusion = VIOLATED
            data["instances"] = a.violation_payload()
    return Verdict(statement, met, conclusion, data)


# ---------------------------------------------------------------------------
# checkers

_INEXACT = {"reason": "factor dims inexact"}


def check_superadditivity(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) >= dim(factor1) + dim(factor2), unconditionally."""
    a = analysis or PairAnalysis(lam1, lam2, opts)
    if not a.factors_exact():
        return _verdict(a, "Superadditivity", True)
    target = a.d1.lower + a.d2.lower
    return _verdict(a, "Superadditivity", True, lambda d: d >= target, {"target": target})


def check_upper_bound(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) <= min(d1 + r2, d2 + r1) - 1 when both factors have
    dimension below their rank; without that hypothesis the same bound
    holds without the -1 and is reported as WeakUpperBound."""
    a = analysis or PairAnalysis(lam1, lam2, opts)
    if not a.factors_exact():
        return _verdict(a, "UpperBound", False, extra=_INEXACT)
    d1, d2 = a.d1.lower, a.d2.lower
    rhs = min(d1 + a.r2, d2 + a.r1)
    met = d1 < a.r1 and d2 < a.r2
    bound = rhs - 1 if met else rhs
    statement = "UpperBound" if met else "WeakUpperBound"
    return _verdict(a, statement, met, lambda d: d <= bound, {"rhs": rhs, "bound": bound})


def check_strict(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) < min(d1 + r2, d2 + r1) - 1 when both factors have
    dimension >= 2, codimension >= 2, and trivial center."""
    a = analysis or PairAnalysis(lam1, lam2, opts)
    if not a.factors_exact():
        return _verdict(a, "StrictUpperBound", False, extra=_INEXACT)
    d1, d2 = a.d1.lower, a.d2.lower
    met = d1 >= 2 and d2 >= 2 and a.r1 - d1 >= 2 and a.r2 - d2 >= 2 and a.centers_trivial
    if not met:
        return _verdict(a, "StrictUpperBound", False, extra={"reason": "hypotheses not met"})
    rhs = min(d1 + a.r2, d2 + a.r1)
    return _verdict(
        a, "StrictUpperBound", True, lambda d: d < rhs - 1, {"rhs": rhs, "strict_bound": rhs - 1}
    )


def check_additivity(lam1, lam2, opts=None, analysis=None) -> Verdict:
    """dim(product) == d1 + d2 under any of the proved additivity criteria.

    Applicability is auto-detected: rank-2 factors on both sides (the
    multiplicative Weyl analogue), a factor of codimension <= 1, or the
    codim-2 criterion (both dims >= 2, smaller codim exactly 2, trivial
    centers).  When none applies the verdict is inconclusive with the
    hypotheses flag down.
    """
    a = analysis or PairAnalysis(lam1, lam2, opts)
    if not a.factors_exact():
        return _verdict(a, "AdditivityCodimLE1", False, extra=_INEXACT)
    d1, d2 = a.d1.lower, a.d2.lower
    codim = min(a.r1 - d1, a.r2 - d2)
    if a.r1 == 2 and a.r2 == 2:
        statement = "WeylAnalogue"
    elif codim <= 1:
        statement = "AdditivityCodimLE1"
    elif codim == 2 and d1 >= 2 and d2 >= 2 and a.centers_trivial:
        statement = "AdditivityCodim2"
    else:
        return _verdict(
            a, "AdditivityCodimLE1", False, extra={"reason": "no additivity criterion applies"}
        )
    target = d1 + d2
    return _verdict(a, statement, True, lambda d: d == target, {"target": target})


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

    One ``PairAnalysis`` per trial feeds every checker, and ``_verdict``
    decides each law on the certified tensor interval.  Tensors of rank <=
    ``ORACLE_MAX_RANK`` are also cross-checked against the brute-force
    oracle at ``ORACLE_BOUND``: its value is a lower bound, so exceeding the
    certified upper bound is an anomaly; past ``ORACLE_NODE_LIMIT`` nodes
    the check is skipped and counted.  A trial whose certified upper bound
    equals the tensor's rank counts as checked without calling the oracle:
    the oracle counts independent vectors, so it cannot exceed the rank.
    """
    config = config or CampaignConfig()
    tallies = {s: {HOLDS: 0, VIOLATED: 0, INCONCLUSIVE: 0} for s in STATEMENTS}
    violations = []
    anomalies = []
    checked = skipped = 0
    for trial in range(config.trials):
        lam1, lam2 = _trial_pair(config, trial)
        analysis = PairAnalysis(lam1, lam2, config.solver)
        for checker in ALL_CHECKERS:
            verdict = checker(lam1, lam2, analysis=analysis)
            tallies[verdict.statement][verdict.conclusion] += 1
            if verdict.conclusion == VIOLATED:
                violations.append({"trial": trial, "verdict": asdict(verdict)})
        if analysis.product.rank > ORACLE_MAX_RANK:
            continue
        if analysis.dt.upper == analysis.product.rank:
            checked += 1
            continue
        try:
            oracle = brute_force_dimension(
                analysis.product, ORACLE_BOUND, node_limit=ORACLE_NODE_LIMIT
            )
        except ResourceLimitError:
            skipped += 1
            continue
        checked += 1
        if oracle > analysis.dt.upper:
            anomalies.append(
                {
                    "trial": trial,
                    "oracle": oracle,
                    "tensor": analysis.dt.to_json(),
                    "instances": analysis.violation_payload(),
                }
            )
    return Report(config, tallies, violations, anomalies, checked, skipped)
