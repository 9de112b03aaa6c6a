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


# sha256 of the reports at the other seeds the benchmark runs, taken before
# every bound term of a grid point climbed in one lockstep
PINNED_AT_SEEDS = {
    ("bound-exppower", 0): "4a64f4911838fcb1223fe4d3519a40fdaec2057238873e8d6229ce83141a062c",
    ("bound-exppower", 8): "793fcbdf906fce8c94da7177c38614b0cdbdaee9bc1d95c54b399e40b1984c8d",
    ("bound-exppower", 12345): "4119ea41abcf2974f425a027008f01354bb6a54478ed9b65ebce6b89933be539",
    ("verify-weibull-sparse", 0): "84c8bc590d5c4c5308c392fad26162799cb78fcce62d774fdefa7e0e82aaf4e8",
    ("verify-weibull-sparse", 8): "fe57fed2f6f579cc6e1c38c4dcf83cc2db1c82397a494831630df3215fdcaa01",
    ("verify-weibull-sparse", 12345): "31a8d2b1893902e8915a48a0817e3156ceec62bbb40e6412c25256d2e23b0e00",
}


@pytest.mark.parametrize("name,seed", sorted(PINNED_AT_SEEDS), ids=lambda v: str(v))
def test_report_pinned_at_the_benchmark_seeds(name, seed, tmp_path):
    digest = hashlib.sha256(_render(name, seed, tmp_path).encode()).hexdigest()
    assert digest == PINNED_AT_SEEDS[name, seed]
