"""The benchmark's correctness gate, run as a unit test.

Each workload under ``perfbench/workloads`` is rendered through ``cli.main``
as the benchmark renders it, so a solver change that moves a bound term
past ``perfbench/check.py``'s tolerance fails here, not only in the
benchmark.  The digests pin two reports byte for byte.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from chaosmoments import cli
from chaosmoments.harness import parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from check import check_report, load_reference  # noqa: E402
from workload import WORKLOADS, grid_points  # noqa: E402

GATED = ("bound-exppower", "verify-weibull-sparse")


def _render(name, seed, tmp_path):
    out = tmp_path / f"{name}-{seed}.csv"
    assert cli.main(WORKLOADS[name].argv(seed, str(out))) in (0, 1)
    return out.read_text()


@pytest.mark.parametrize("name", GATED)
def test_report_passes_the_benchmark_check(name, tmp_path):
    reference = load_reference(name, 0)
    assert reference is not None
    points = grid_points(parse_config(WORKLOADS[name].config_text()))
    results = check_report(_render(name, 0, tmp_path), points, 0, reference)
    assert results == [[] for _ in points]


# sha256 of the seed-3 reports before the starts climbed in lockstep
PINNED = {
    "bound-exppower": "b0cf0b79a35dbc0d0e35abcc9f36caa4a4267c79023e6b9629f4a70c8b3a5ba7",
    "verify-weibull-sparse": "6d78c0f27b25bd4a6a1769958ce3fe642449f71a6be8d56ddd5bc678b8150177",
}


@pytest.mark.parametrize("name", GATED)
def test_report_pinned(name, tmp_path):
    assert hashlib.sha256(_render(name, 3, tmp_path).encode()).hexdigest() == PINNED[name]
