import json

import pytest

from chaosmoments.cli import main
from chaosmoments.harness import CSV_COLUMNS

SMALL = {
    "dimensions": {"n1": 2, "n2": 2, "m": 1},
    "grids": {"q": [2], "r": [1], "p": [2]},
    "mc": {"total_samples": 4000, "batches": 8},
    "instances": 1,
    "restarts": 2,
}


def _write_config(tmp_path, doc=SMALL):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_default_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("ensemble,n1,n2,m,q,r,p,seed")


def test_bound_skips_simulation(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "bound"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert ",nan," in row  # mc columns empty without sampling


def test_simulate_skips_bounds(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "simulate"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[10] == "nan"  # T1 column


def test_gk_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "gk"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "family,r,p,n,seed,value,stderr,flags"


def test_report_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_json = tmp_path / "rows.json"
    assert main(["--config", cfg, "--format", "json", "--out", str(out_json), "verify"]) == 0
    assert main([ "--format", "csv", "report", str(out_json)]) == 0
    direct = tmp_path / "direct.csv"
    assert main(["--config", cfg, "--out", str(direct), "verify"]) == 0
    assert capsys.readouterr().out == direct.read_text()


#: a well-formed, unflagged report row: integer cells are JSON integers, the rest strings
_ROW = dict.fromkeys(CSV_COLUMNS, "1") | dict(n1=1, n2=1, m=1, seed=1, flags="")


def test_well_formed_report_row_accepted(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps([_ROW]))
    assert main(["report", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,1,1,1,1,1,1,1,")


@pytest.mark.parametrize("text", [
    "[1]",
    '"abc"',
    '{"a": 1}',
    "[{}]",
    json.dumps([dict.fromkeys(CSV_COLUMNS, "1") | {"n1": None}]),
    json.dumps([_ROW | {"n1": 2.5}]),
    json.dumps([_ROW | {"seed": True}]),
], ids=["list-of-number", "string", "object", "empty-row", "null-cell", "fractional-n1",
        "boolean-seed"])
def test_malformed_report_exit_code(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert main(["report", str(report)]) == 2
    assert "malformed report" in capsys.readouterr().err


def test_seed_override_changes_rows(tmp_path):
    cfg = _write_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    main(["--config", cfg, "--seed", "1", "--out", str(a)])
    main(["--config", cfg, "--seed", "1", "--out", str(b)])
    main(["--config", cfg, "--seed", "2", "--out", str(c)])
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    assert main(["--config", str(bad)]) == 2
    capsys.readouterr()


def test_io_error_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--out", "/nonexistent/deep/x.csv"]) == 3
    assert main(["report", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_simulate_report_identical_across_threads(tmp_path):
    doc = dict(SMALL, grids={"q": [1, 2], "r": [1, 1.5], "p": [2]})
    cfg = _write_config(tmp_path, doc)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        argv = ["--config", cfg, "--seed", "5", "--threads", threads, "--out", str(out)]
        assert main(argv + ["simulate"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("doc", [
    {"grids": {"p": "24"}},
    {"mc": {"unit_variance": "no"}},
    {"instances": 2.7},
    {"dimensions": {"n1": True}},
    {"grids": {"r": ["2"]}},
    {"grids": {"q": [True]}},
    {"grids": {"p": [float("nan")]}},
    {"grids": {"r": [10 ** 400]}},
    {"density": True},
])
def test_schema_type_mismatch_exit_code(tmp_path, capsys, doc):
    assert main(["--config", _write_config(tmp_path, dict(SMALL, **doc))]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_out_of_range_seed_exit_code(tmp_path, capsys, seed):
    bad = _write_config(tmp_path, dict(SMALL, seed=seed))
    assert main(["--config", bad, "simulate"]) == 2
    good = _write_config(tmp_path)
    assert main(["--config", good, "--seed", str(seed), "simulate"]) == 2
    assert capsys.readouterr().err.count("outside [0, 2^64)") == 2


def test_largest_seed_accepted(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["--config", cfg, "--seed", str((1 << 64) - 1), "simulate"]) == 0
    capsys.readouterr()


def test_hilbert_is_an_unknown_ensemble(tmp_path, capsys):
    # it was dense coefficients under another label; the Hilbert bound kind stays
    doc = dict(SMALL, ensemble="hilbert")
    assert main(["--config", _write_config(tmp_path, doc), "bound"]) == 2
    assert "unknown ensemble 'hilbert'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "simulate", "verify", "gk", "report"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_checked_for_every_command(tmp_path, capsys, command, threads):
    cfg = _write_config(tmp_path)
    report = tmp_path / "rows.json"
    assert main(["--config", cfg, "--format", "json", "--out", str(report), "bound"]) == 0
    target = [str(report)] if command == "report" else []
    assert main(["--config", cfg, "--threads", "1", "--out", str(tmp_path / "x"), command, *target]) == 0
    assert main(["--config", cfg, "--threads", threads, command, *target]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
