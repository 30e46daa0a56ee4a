"""Seeded inputs of the benchmark workloads, and the call each input makes.

A run goes through rounds.  Every round holds the same mix of cases, with
fresh inputs drawn from the workload seed and the round number, so a run
samples many inputs while each round costs about the same.

Dimension inputs are README-format instance documents that this module
writes and ``qtorus.instances.parse`` reads back.  ``campaign`` items are
one-trial ``verify`` campaigns whose pairs ``run_campaign`` draws itself;
only their seeds come from here.  Calls look their target up on the qtorus
module at call time, so that a traced run goes through its wrappers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from qtorus import harness, instances, pairing, solver

WORKLOADS = ("campaign", "transpose_pair", "random_forms")

# The solver defaults, except the wall-clock valve, which is set far above
# any run: the node budget alone decides every answer, on any machine load.
SOLVER = {"node_budget": 20_000, "search_bound": 2, "combo_samples": 64, "time_budget": 1e6}

# transpose_pair: (mode, n) of each call in a round.  The true dimension of
# lambda (x) lambda^T is n in shared mode and 2 in disjoint mode.  Shared
# n = 5 is the largest exact case at the node budget; disjoint n = 3 spends
# the whole budget and stays [2, 3].  Shared n = 4 comes four times so that
# the median call falls in the middle of its calls; disjoint n = 3 comes
# twice so that with shared n = 5 the slowest calls hold at least eleven
# samples a run.
TRANSPOSE_CASES = (
    ("shared", 2),
    ("shared", 3),
    ("shared", 4),
    ("shared", 4),
    ("shared", 4),
    ("shared", 4),
    ("shared", 5),
    ("disjoint", 2),
    ("disjoint", 3),
    ("disjoint", 3),
)

# random_forms: (free scalars k, torsion order m, rank n) of each call in a
# round.  k = 1 takes the closed form and k = 2 the pencil and wedge bounds;
# k = 3 searches.  k = 2 comes twice at n = 4, 5, so that the median call
# falls among the many 2-5 ms calls rather than at the gap above them.
# k = 3 at n >= 6 is left out: each such call spends the whole node budget
# in 2-6 s, a cost that varies by a fifth between inputs.
RANDOM_CASES = tuple(
    [(1, m, n) for m in (1, 3) for n in range(4, 9)]
    + [(2, m, n) for m in (1, 3) for n in range(4, 9)]
    + [(2, m, n) for m in (1, 3) for n in (4, 5)]
    + [(3, m, n) for m in (1, 3) for n in (4, 5)]
)


@dataclass(frozen=True)
class Item:
    """One timed call: a ``dimension`` call, or a one-trial campaign."""

    label: str
    arg: object
    truth: int | None = None


def independent_doc(n: int, rng: random.Random) -> dict:
    """An n-generator instance whose C(n, 2) commutation scalars are independent.

    Each pair gets its own free generator, with a seeded sign and a seeded
    assignment of generator names to pairs.
    """
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    names = [f"q{t + 1}" for t in range(len(pairs))]
    shuffled = rng.sample(names, len(names))
    entries = [
        {"i": i, "j": j, "exponents": {name: rng.choice((1, -1))}, "torsion": 0}
        for (i, j), name in zip(pairs, shuffled)
    ]
    return {"rank": n, "value_group": {"free": names, "torsion_order": 1}, "lambda": entries}


def random_doc(n: int, k: int, m: int, rng: random.Random) -> dict:
    """An n-generator instance over k free scalars and torsion order m,
    with exponents drawn from [-2, 2]."""
    names = [f"q{t + 1}" for t in range(k)]
    entries = [
        {
            "i": i,
            "j": j,
            "exponents": {name: rng.randint(-2, 2) for name in names},
            "torsion": rng.randrange(m),
        }
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return {"rank": n, "value_group": {"free": names, "torsion_order": m}, "lambda": entries}


class CampaignSeeds:
    """Seeds of one-trial campaigns, one per trial shape in every round.

    A trial's shape (free scalars, rank of each factor) sets its cost: at
    the ``verify`` defaults, pairs of two rank-3 factors over one scalar
    take two thirds of all campaign time.  Drawing seeds blindly makes that
    share vary by a tenth between runs; taking one seed of each shape per
    round removes that variation.  The shape of a seed's trial is read from
    the pair ``run_campaign`` itself would draw.
    """

    def __init__(self, seed: int):
        defaults = harness.CampaignConfig()
        self._shapes = list(
            itertools.product(
                range(defaults.max_free + 1),
                range(1, defaults.max_rank + 1),
                range(1, defaults.max_rank + 1),
            )
        )
        self._by_shape = {shape: [] for shape in self._shapes}
        self._candidates = itertools.count(seed * 1_000_000)
        self.options = solver.SolverOptions(**SOLVER)

    def config(self, seed: int) -> harness.CampaignConfig:
        return harness.CampaignConfig(trials=1, seed=seed, solver=self.options)

    def round(self, r: int) -> list[tuple[tuple[int, int, int], int]]:
        while any(len(seeds) <= r for seeds in self._by_shape.values()):
            s = next(self._candidates)
            lam1, lam2 = harness._trial_pair(self.config(s), 0)
            self._by_shape[(lam1.value_group.free_rank, lam1.rank, lam2.rank)].append(s)
        return [(shape, self._by_shape[shape][r]) for shape in self._shapes]


class Rounds:
    """The items of each round of one workload, built on demand."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._campaign = CampaignSeeds(seed) if workload == "campaign" else None

    def items(self, r: int) -> list[Item]:
        if self._campaign is not None:
            return [
                Item(f"r{r} k{k}-n{n1}x{n2} seed {s}", self._campaign.config(s))
                for (k, n1, n2), s in self._campaign.round(r)
            ]
        rng = random.Random(self.seed * 1_000_003 + r)
        items = []
        if self.workload == "transpose_pair":
            for i, (mode, n) in enumerate(TRANSPOSE_CASES):
                lam = instances.parse(independent_doc(n, rng))
                product = pairing.tensor(lam, pairing.transpose(lam), mode)
                truth = n if mode == "shared" else 2
                items.append(Item(f"r{r}.{i} {mode}-n{n}", product, truth))
        else:
            for i, (k, m, n) in enumerate(RANDOM_CASES):
                mat = instances.parse(random_doc(n, k, m, rng))
                items.append(Item(f"r{r}.{i} k{k}-m{m}-n{n}", mat))
        return items


def call(workload: str, item: Item) -> dict:
    """Run one item and return its answer as JSON data."""
    if workload == "campaign":
        return harness.run_campaign(item.arg).to_json()
    return solver.dimension(item.arg, solver.SolverOptions(**SOLVER)).to_json()
