"""Self-tests of the benchmark's correctness check and trace bookkeeping.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import csv
import io
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from check import check_report, load_reference  # noqa: E402
from tracing import Tracer, call_metrics, self_times  # noqa: E402
from workload import WORKLOADS, grid_points  # noqa: E402

WORKLOAD = "verify-weibull-sparse"  # has bound terms and Monte Carlo columns
SEED = 12345


def _render(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def stored():
    from chaosmoments import harness

    reference = load_reference(WORKLOAD, SEED)
    assert reference is not None, "stored report missing"
    cfg = harness.parse_config(WORKLOADS[WORKLOAD].config_text())
    return reference, grid_points(cfg)


def _failures(rows, stored, reference=True):
    ref, points = stored
    results = check_report(_render(rows), points, SEED, ref if reference else None)
    return [i for i, r in enumerate(results) if r]


def test_stored_report_passes(stored):
    ref, _ = stored
    assert _failures([dict(r) for r in ref], stored) == []


def test_term_off_by_1e6_relative_fails(stored):
    rows = [dict(r) for r in stored[0]]
    rows[3]["T4c"] = repr(float(rows[3]["T4c"]) * (1.0 + 1e-6))
    assert _failures(rows, stored) == [3]


def test_mc_shifted_by_ten_stderr_fails(stored):
    rows = [dict(r) for r in stored[0]]
    shifted = float(rows[2]["mc_lhs"]) + 10.0 * float(rows[2]["mc_stderr"])
    rows[2]["mc_lhs"] = repr(shifted)
    assert _failures(rows, stored) == [2]


def test_term_error_flag_fails_without_reference(stored):
    rows = [dict(r) for r in stored[0]]
    rows[0]["flags"] = "term-error:FloatingPointError"
    assert _failures(rows, stored, reference=False) == [0]


def test_rows_out_of_order_fail_without_reference(stored):
    rows = [dict(r) for r in stored[0]]
    rows[0], rows[1] = rows[1], rows[0]
    assert _failures(rows, stored, reference=False) == [0, 1]


def test_lower_above_upper_fails_without_reference(stored):
    rows = [dict(r) for r in stored[0]]
    rows[1]["lower_total"] = repr(float(rows[1]["upper_total"]) * 2.0)
    assert _failures(rows, stored, reference=False) == [1]


def test_missing_row_fails(stored):
    rows = [dict(r) for r in stored[0]][:-1]
    assert _failures(rows, stored) == [len(stored[1]) - 1]


def test_self_times_balance_with_concurrent_children():
    # cli.main [0, 10] > run_experiment [1, 9] > two workers on two threads
    spans = [
        (1, None, "cli.main", 0.0, 10.0, None),
        (2, 1, "harness.run_experiment", 1.0, 9.0, None),
        (3, 2, "bounds.assemble_bound", 2.0, 6.0, None),
        (4, 2, "bounds.assemble_bound", 3.0, 8.0, None),
        (5, 3, "dual_norms.norm_Xp", 2.5, 3.5, None),
    ]
    selfs, overlap = self_times(spans)
    assert selfs == {1: 2.0, 2: 2.0, 3: 3.0, 4: 5.0, 5: 1.0}
    assert overlap == 3.0  # [3, 6] ran on both threads
    m = call_metrics(spans, -1.0, 10.5)
    assert m["trace.unattributed_s"] == 1.5
    assert math.isclose(m["trace.balance_error_s"], 0.0, abs_tol=1e-12)
    assert m["dual_norms.norm_Xp.calls"] == 1


def test_tracer_wraps_every_binding_and_restores():
    from chaosmoments import bounds, dual_norms, make_distribution

    original = dual_norms.norm_Xp
    ballX = dual_norms.ball(make_distribution("weibull", 2.0), 2.0, 2)
    tracer = Tracer()
    with tracer.installed():
        assert bounds.norm_Xp is dual_norms.norm_Xp is not original
        bounds.norm_Xp([1.0, 2.0], ballX)
    assert bounds.norm_Xp is dual_norms.norm_Xp is original
    names = [s[2] for s in tracer.take_spans()]
    assert names.count("dual_norms.norm_Xp") == 1

