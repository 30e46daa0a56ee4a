"""Output checks of the benchmark, run outside the timed region.

A dimension answer must hold its known true value, carry a witness of rank
``lower`` that commutes when re-checked through twisted products in
``qtorus.elements``, and, on small random instances, bound the brute-force
oracle from above.  A campaign report must show no violation and no
anomaly.  Every repetition of an item must give the same answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from qtorus import elements, solver

# The largest rank on which the brute-force oracle is asked, at entry bound 1.
ORACLE_MAX_RANK = 6


def matrix_rank(rows) -> int:
    """Rank over Q by Gaussian elimination, independent of ``qtorus.lattice``."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col] / work[r][col]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def check_dimension(item, answer: dict) -> list[str]:
    """Problems with one ``DimensionResult.to_json()`` answer for ``item``."""
    lower, upper, witness = answer["lower"], answer["upper"], answer["witness"]
    problems = []
    if answer["exact"] != (lower == upper) or not 1 <= lower <= upper <= item.arg.rank:
        problems.append(f"malformed interval [{lower}, {upper}] exact={answer['exact']}")
    if item.truth is not None and not lower <= item.truth <= upper:
        problems.append(f"true dimension {item.truth} outside [{lower}, {upper}]")
    rank = matrix_rank(witness)
    if rank != lower:
        problems.append(f"witness rank {rank} differs from lower {lower}")
    for a, b in combinations(witness, 2):
        if not elements.commutator_units(item.arg, a, b).is_identity():
            problems.append(f"witness rows {a} and {b} do not commute")
            break
    if item.truth is None and item.arg.rank <= ORACLE_MAX_RANK:
        oracle = solver.brute_force_dimension(item.arg, 1)
        if oracle > upper:
            problems.append(f"oracle found {oracle} commuting vectors above upper {upper}")
    return problems


def check_campaign(item, answer: dict) -> list[str]:
    """Problems with one campaign report: any violation or anomaly."""
    problems = []
    if answer["violations"]:
        problems.append(f"{len(answer['violations'])} violated verdicts")
    if answer["anomalies"]:
        problems.append(f"{len(answer['anomalies'])} oracle anomalies")
    return problems


def count_failures(workload: str, items, runs) -> tuple[int, list[str]]:
    """Failed calls, and a message per failing item.

    ``runs[i]`` holds every answer given for ``items[i]``, None where the
    call raised.  A call fails when it raised, when its answer differs from
    the item's first answer, or when the first answer fails its check.
    """
    check = check_campaign if workload == "campaign" else check_dimension
    failed = 0
    messages = []
    for item, answers in zip(items, runs):
        first = answers[0]
        try:
            problems = ["raised"] if first is None else check(item, first)
        except Exception as exc:  # a malformed answer fails its check
            problems = [f"check raised {exc!r}"]
        failed += len(answers) if problems else sum(a != first for a in answers)
        if any(a != first for a in answers):
            problems.append("answers differ between repetitions")
        if problems:
            messages.append(f"{item.label}: {'; '.join(problems)}")
    return failed, messages
