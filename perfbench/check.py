"""Correctness check of a CSV comparison report.

A row passes only if
* it sits at the grid point the config puts in that position, with the
  seed the run was given,
* it carries no failure flag (``term-error:``, ``mc-error:``,
  ``degenerate-mc``; ``nonconverged:`` and ``mc-unreliable`` are
  diagnostics),
* ``lower_total <= upper_total`` where both are reported,
and, when a stored report exists for the seed,
* every bound term and both totals lie within ``TERM_RTOL`` (relative) of
  the stored report,
* ``mc_lhs`` lies within ``MC_SIGMAS`` combined batch-means standard
  errors of the stored one, so an independent random stream passes and a
  wrong law fails.
"""

import csv
import io
import math
import os

from workload import HERE

TERM_RTOL = 1e-9
MC_SIGMAS = 5.0
TERMS = ("T1", "T2", "T3", "T4r", "T4c", "T5", "T6", "lower_total", "upper_total")
FAILURE_FLAGS = ("term-error:", "mc-error:", "degenerate-mc")
REFERENCE_DIR = os.path.join(HERE, "reference")


def parse_report(text):
    return list(csv.DictReader(io.StringIO(text)))


def reference_path(workload, seed):
    return os.path.join(REFERENCE_DIR, workload, f"{seed}.csv")


def load_reference(workload, seed):
    """Stored rows for (workload, seed), or None when none were stored."""
    try:
        with open(reference_path(workload, seed)) as fh:
            return parse_report(fh.read())
    except FileNotFoundError:
        return None


def _close(value, ref):
    a, b = float(value), float(ref)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= TERM_RTOL * max(abs(a), abs(b))


def _mc_close(row, ref):
    a, b = float(row["mc_lhs"]), float(ref["mc_lhs"])
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    se = math.hypot(float(row["mc_stderr"]), float(ref["mc_stderr"]))
    return abs(a - b) <= MC_SIGMAS * se


def row_problems(row, point, seed, ref=None):
    """Reasons why one report row fails; empty when it passes."""
    problems = []
    q, r, p = point
    if (float(row["q"]), float(row["r"]), float(row["p"])) != (q, r, p):
        problems.append(f"expected grid point q={q} r={r} p={p}")
    if int(row["seed"]) != seed:
        problems.append(f"expected seed {seed}")
    flags = row["flags"]
    problems += [f"flag {f}" for f in FAILURE_FLAGS if f in flags]
    lower, upper = float(row["lower_total"]), float(row["upper_total"])
    if math.isfinite(lower) and math.isfinite(upper) and lower > upper:
        problems.append("lower_total > upper_total")
    if ref is not None:
        problems += [f"{t} differs from stored report" for t in TERMS if not _close(row[t], ref[t])]
        if not _mc_close(row, ref):
            problems.append("mc_lhs outside the stored report's error band")
    return problems


def check_report(text, points, seed, reference=None):
    """Per-row problem lists for a report expected to hold ``points``.

    Missing rows count as failed; so do extra rows.
    """
    rows = parse_report(text)
    results = []
    for i, point in enumerate(points):
        if i >= len(rows):
            results.append(["row missing"])
            continue
        ref = reference[i] if reference is not None and i < len(reference) else None
        if reference is not None and ref is None:
            results.append(["stored report has no such row"])
            continue
        results.append(row_problems(rows[i], point, seed, ref))
    results += [["unexpected extra row"] for _ in rows[len(points):]]
    return results
