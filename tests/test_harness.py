import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from chaosmoments import harness
from chaosmoments.distributions import TailDistribution
from chaosmoments.dual_norms import ConfigurationError
from chaosmoments.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    generate_ensemble,
    parse_config,
    read_rows,
    render_report,
    run_experiment,
    write_report,
)

SMALL = json.dumps({
    "dimensions": {"n1": 2, "n2": 2, "m": 2},
    "grids": {"q": [2], "r": [1], "p": [2]},
    "mc": {"total_samples": 4000, "batches": 8},
    "instances": 1,
    "restarts": 2,
    "seed": 77,
})


def test_defaults():
    cfg = parse_config("{}")
    assert cfg.restarts == 16
    assert cfg.batches == 32
    assert cfg.total_samples == 200_000
    assert cfg.ensemble == "dense-gaussian-coefficients"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigurationError):
        parse_config('{"bogus": 1}')
    with pytest.raises(ConfigurationError):
        parse_config('{"grids": {"w": [1]}}')
    with pytest.raises(ConfigurationError):
        parse_config("not json")


def test_invalid_values_rejected():
    with pytest.raises(ConfigurationError):
        parse_config('{"grids": {"r": [0.5]}}')
    with pytest.raises(ConfigurationError):
        parse_config('{"grids": {"p": []}}')
    with pytest.raises(ConfigurationError):
        parse_config('{"ensemble": "toeplitz"}')
    with pytest.raises(ConfigurationError):
        parse_config('{"density": 0.0}')
    with pytest.raises(ConfigurationError):
        parse_config('{"mc": {"total_samples": 100, "batches": 32}}')


@pytest.mark.parametrize("field,value", [
    ("ensemble", "toeplitz"),
    ("n1", 0),
    ("batches", 4),
    ("family_x", "cauchy"),
    ("q_grid", (0.5,)),
    ("density", 0.0),
    ("p_grid", ()),
    ("r_grid", (float("nan"),)),
    ("total_samples", 100),
    # types, checked from each field's annotation
    ("n1", 2.5),
    ("restarts", 1.5),
    ("instances", 2.5),
    ("n1", True),
    ("batches", "32"),
    ("total_samples", True),
    ("q_grid", ("2",)),
    ("q_grid", (True,)),
    ("p_grid", "24"),
    ("r_grid", (10 ** 400,)),
    ("density", "0.5"),
    ("density", True),
])
def test_invalid_values_rejected_at_construction(field, value):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**{field: value})
    with pytest.raises(ConfigurationError):
        dataclasses.replace(ExperimentConfig(), **{field: value})


def test_grids_and_density_stored_as_floats():
    cfg = ExperimentConfig(q_grid=[1, 2], density=1)
    assert cfg.q_grid == (1.0, 2.0) and all(type(q) is float for q in cfg.q_grid)
    assert type(cfg.density) is float
    assert cfg == parse_config('{"grids": {"q": [1, 2]}, "density": 1}')


#: every field of each benchmark workload's config, as the benchmark runs it
_WORKLOAD_DEFAULTS = {
    "ensemble": "dense-gaussian-coefficients", "density": 0.3,
    "n1": 4, "n2": 4, "m": 3,
    "q_grid": (2.0,), "r_grid": (1.0, 2.0), "p_grid": (2.0, 4.0),
    "family_x": "exp-power", "family_y": "exp-power",
    "instances": 1, "restarts": 16, "seed": 12345,
    "total_samples": 200_000, "batches": 32,
}
_WORKLOADS = {
    "bound-exppower": dict(
        _WORKLOAD_DEFAULTS, n1=3, n2=3, m=2, p_grid=(2.0, 8.0), restarts=2,
    ),
    "simulate-exppower": dict(
        _WORKLOAD_DEFAULTS, q_grid=(1.0, 2.0), total_samples=20_000,
    ),
    "verify-weibull-sparse": dict(
        _WORKLOAD_DEFAULTS, ensemble="sparse", density=0.5, family_x="weibull",
        family_y="weibull", restarts=1, total_samples=320_000,
    ),
}


def test_benchmark_workload_configs_pinned():
    paths = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "workloads").glob("*.json"))
    assert {path.stem for path in paths} == set(_WORKLOADS)
    for path in paths:
        cfg = parse_config(path.read_text())
        assert dataclasses.asdict(cfg) == _WORKLOADS[path.stem], path.name


def test_ensemble_patterns():
    base = parse_config(SMALL)
    from dataclasses import replace

    diag = generate_ensemble(replace(base, ensemble="diagonal", n1=3, n2=3), 0)
    off = ~np.eye(3, dtype=bool)
    assert not diag.entries[off].any()

    r1 = generate_ensemble(replace(base, ensemble="rank1", n1=3, n2=4, m=2), 0)
    mat = r1.entries.reshape(3, -1)
    s = np.linalg.svd(mat, compute_uv=False)
    assert s[1] == pytest.approx(0.0, abs=1e-12)

    sp = generate_ensemble(replace(base, ensemble="sparse", density=0.2, n1=5, n2=5), 0)
    assert (sp.entries == 0.0).mean() > 0.4


def test_sparse_density_one_is_dense():
    base = parse_config(SMALL)
    from dataclasses import replace

    dense = generate_ensemble(replace(base, ensemble="dense-gaussian-coefficients"), 3)
    sparse = generate_ensemble(replace(base, ensemble="sparse", density=1.0), 3)
    np.testing.assert_array_equal(dense.entries, sparse.entries)


def test_ensemble_deterministic_per_index():
    cfg = parse_config(SMALL)
    a = generate_ensemble(cfg, 4)
    b = generate_ensemble(cfg, 4)
    c = generate_ensemble(cfg, 5)
    np.testing.assert_array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)


def test_run_rows_and_invariant():
    cfg = parse_config(SMALL)
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.lower_total <= row.upper_total + 1e-9
    assert math.isfinite(row.mc_lhs)


def test_csv_column_contract():
    cfg = parse_config(SMALL)
    rows = run_experiment(cfg)
    text = render_report(rows, "csv")
    header = text.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    assert len(text.splitlines()) == 2


def test_json_round_trip_exact(tmp_path):
    cfg = parse_config(SMALL)
    rows = run_experiment(cfg)
    path = tmp_path / "report.json"
    write_report(rows, "json", str(path))
    rows2 = read_rows(str(path))
    assert render_report(rows2, "csv") == render_report(rows, "csv")
    assert render_report(rows2, "json") == render_report(rows, "json")


def test_empty_rows_header_only():
    assert render_report([], "csv") == ",".join(CSV_COLUMNS) + "\n"
    assert json.loads(render_report([], "json")) == []


def test_unknown_format_rejected():
    with pytest.raises(ConfigurationError):
        render_report([], "xml")


def test_threading_preserves_order():
    cfg = parse_config(json.dumps({
        "dimensions": {"n1": 2, "n2": 2, "m": 1},
        "grids": {"q": [1, 2], "r": [1], "p": [2]},
        "mc": {"total_samples": 4000, "batches": 8},
        "instances": 2,
        "restarts": 2,
    }))
    first = render_report(run_experiment(cfg), "csv")
    second = render_report(run_experiment(cfg), "csv")
    assert first == second


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target,flag", [
    ("chaosmoments.bounds.assemble_bound", "term-error:LinAlgError"),
    ("chaosmoments.harness.estimate_moment_decoupled", "mc-error:LinAlgError"),
])
def test_only_numerical_failures_become_flags(monkeypatch, target, flag):
    cfg = parse_config(SMALL)
    monkeypatch.setattr(target, _raise(np.linalg.LinAlgError("singular")))
    (row,) = run_experiment(cfg)
    assert flag in row.flags.split(";")
    # a failed Monte Carlo gave no estimate, so none can be degenerate
    assert "degenerate-mc" not in row.flags.split(";")
    # a programming error is not a row flag: it propagates
    monkeypatch.setattr(target, _raise(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        run_experiment(cfg)


def test_exp_power_row_past_the_table_is_flagged():
    # p = 600 lies past the exp-power tail table: the row is flagged, not wrong
    cfg = parse_config(json.dumps({
        "dimensions": {"n1": 2, "n2": 2, "m": 2},
        "grids": {"q": [2], "r": [1.5], "p": [600]},
        "instances": 1,
        "restarts": 1,
    }))
    (row,) = run_experiment(cfg, simulate=False)
    assert row.flags == "term-error:ConfigurationError"
    assert all(math.isnan(v) for v in row.terms.values())


#: 2 q x 2 r x 2 p, two instances: 16 rows, four (r, instance) groups
GRID = json.dumps({
    "dimensions": {"n1": 3, "n2": 2, "m": 2},
    "grids": {"q": [1, 2], "r": [1, 2], "p": [2, 7]},
    "mc": {"total_samples": 4000, "batches": 8},
    "instances": 2,
    "restarts": 2,
    "seed": 21,
})


def test_simulate_report_pinned():
    # the digest of this report before the (r, instance) draws were shared
    text = render_report(run_experiment(parse_config(GRID), deterministic=False), "csv")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1f39d8d4b14e59fffe8d236088790b36f30ef8268467edfe79b06ee25d93658f"
    )


def test_one_draw_per_r_and_instance(monkeypatch):
    cfg = parse_config(GRID)
    calls = []
    sample = TailDistribution.sample
    monkeypatch.setattr(TailDistribution, "sample", lambda d, *a: calls.append(1) or sample(d, *a))
    rows = run_experiment(cfg, deterministic=False)
    assert len(rows) == 16
    # X and Y, once per batch, for each of the 2 r x 2 instances
    assert len(calls) == 2 * cfg.batches * (2 * 2)
    calls.clear()
    run_experiment(dataclasses.replace(cfg, p_grid=(2.0,)), simulate=False)
    assert calls == []  # the bound alone samples nothing


def test_shared_mc_failure_flags_its_group(monkeypatch):
    cfg = parse_config(GRID)
    estimate = harness.estimate_moment_decoupled

    def fail_at_r2(A, distX, distY, levels, mc):
        if distX.r == 2.0:
            raise np.linalg.LinAlgError("singular")
        return estimate(A, distX, distY, levels, mc)

    monkeypatch.setattr(harness, "estimate_moment_decoupled", fail_at_r2)
    rows = run_experiment(cfg, deterministic=False)
    for row in rows:
        failed = "mc-error:LinAlgError" in row.flags.split(";")
        assert failed == (row.r == 2.0)
        assert math.isnan(row.mc_lhs) == failed
