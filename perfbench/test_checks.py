"""Tests of the benchmark's own checks and tracer.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy

import checks
import tracing
import workloads
from qtorus import lattice, solver


def _transpose_item():
    items = workloads.Rounds("transpose_pair", 0).items(0)
    return next(i for i in items if i.label.endswith("shared-n3"))


def test_true_answer_passes():
    item = _transpose_item()
    answer = workloads.call("transpose_pair", item)
    assert checks.check_dimension(item, answer) == []
    assert checks.count_failures("transpose_pair", [item], [[answer, answer]]) == (0, [])


def test_doctored_interval_is_a_failure():
    item = _transpose_item()
    answer = workloads.call("transpose_pair", item)
    doctored = dict(answer, lower=2, upper=2, witness=answer["witness"][:2])
    failed, messages = checks.count_failures("transpose_pair", [item], [[doctored, doctored]])
    assert failed == 2
    assert "outside" in messages[0]


def test_doctored_witness_is_a_failure():
    item = _transpose_item()
    answer = workloads.call("transpose_pair", item)
    n = item.arg.rank
    unit = [[int(i == j) for j in range(n)] for i in range(answer["lower"])]
    doctored = dict(answer, witness=unit)
    assert any("do not commute" in p for p in checks.check_dimension(item, doctored))
    short = dict(answer, witness=answer["witness"][:-1])
    assert any("witness rank" in p for p in checks.check_dimension(item, short))


def test_changed_or_raised_repetition_is_a_failure():
    item = _transpose_item()
    answer = workloads.call("transpose_pair", item)
    other = copy.deepcopy(answer)
    other["witness"][0][0] += 1
    assert checks.count_failures("transpose_pair", [item], [[answer, other]])[0] == 1
    assert checks.count_failures("transpose_pair", [item], [[None, answer]])[0] == 2


def test_campaign_violation_is_a_failure():
    item = workloads.Rounds("campaign", 0).items(0)[0]
    report = workloads.call("campaign", item)
    assert checks.check_campaign(item, report) == []
    doctored = dict(report, violations=[{"trial": 0}])
    assert checks.count_failures("campaign", [item], [[doctored]])[0] == 1


def test_tracer_sees_calls_bound_at_import_and_restores():
    original, span = solver.rank, lattice.Sublattice.__dict__["span"]
    mat = _transpose_item().arg
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solver.rank is not original
        solver.dimension(mat, solver.SolverOptions(**workloads.SOLVER))
    finally:
        tracer.uninstall()
    assert solver.rank is original and lattice.Sublattice.__dict__["span"] is span
    assert tracer.calls["solver.dimension"] == 1
    assert tracer.calls["lattice.rank"] > 0 and tracer.calls["lattice.hnf"] > 0
    assert tracer.hnf_cells > 0
    assert all(v >= 0 for v in tracer.self_s.values())
