"""Batch experiment runner: ensembles, grids, and comparison reports.

An experiment is an ``ExperimentConfig``, which checks the type of each value
against its field's annotation, and then its range, however it is built: by
``parse_config`` from a JSON document (whose keys the one ``_SCHEMA`` table
maps to fields), in Python, or with ``dataclasses.replace``.
Every run is a pure function of the config, master seed included, and rows
are emitted in deterministic grid order so re-runs produce byte-identical
reports.  One Monte Carlo call per (r, instance) serves every (q, p).
``CSV_COLUMNS`` names the report columns once, for both formats.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import rng as rngmod
from .distributions import EXP_POWER, FAMILIES, GAUSSIAN, make_distribution
from .dual_norms import ConfigurationError
from .functionals import CoefficientTensor
from .montecarlo import McConfig, _check_field_types, _checked, estimate_moment_decoupled

ENSEMBLES = (
    "dense-gaussian-coefficients",
    "sparse",
    "diagonal",
    "rank1",
)

#: the bound terms of a report row: those of the general upper bound
TERMS = bd.KIND_TERMS[bd.UPPER_GENERAL]

CSV_COLUMNS = [
    "ensemble", "n1", "n2", "m", "q", "r", "p", "seed",
    "mc_lhs", "mc_stderr",
    *TERMS,
    "lower_total", "upper_total", "ratio_lower", "ratio_upper", "flags",
]
#: the type ``read_rows`` checks a column's cells for; every other column is a float
_COLUMN_TYPES = {**dict.fromkeys(("n1", "n2", "m", "seed"), int), "ensemble": str, "flags": str}

#: the smallest accepted value of each integer setting; McConfig checks the mc ones
_MINIMUM = dict(n1=1, n2=1, m=1, instances=1, restarts=1)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; every value is checked here, whichever way it is built.

    The grids are stored as tuples of floats and ``density`` as a float.
    """

    ensemble: str = "dense-gaussian-coefficients"
    density: float = 0.3
    n1: int = 4
    n2: int = 4
    m: int = 3
    q_grid: tuple = (2.0,)
    r_grid: tuple = (1.0,)
    p_grid: tuple = (2.0, 4.0)
    family_x: str = EXP_POWER
    family_y: str = EXP_POWER
    instances: int = 2
    restarts: int = 16
    seed: int = 12345
    total_samples: int = 200_000
    batches: int = 32
    unit_variance: bool = False

    def __post_init__(self):
        _check_field_types(self)
        if self.ensemble not in ENSEMBLES:
            raise ConfigurationError(
                f"unknown ensemble {self.ensemble!r}; expected one of {ENSEMBLES}"
            )
        object.__setattr__(self, "density", float(self.density))
        if not 0.0 < self.density <= 1.0:
            raise ConfigurationError("density must lie in (0, 1]")
        for name, low in _MINIMUM.items():
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}")
        for key in ("q", "r", "p"):
            grid = tuple(float(v) for v in getattr(self, f"{key}_grid"))
            if not grid:
                raise ConfigurationError(f"grid {key} must be nonempty")
            bad = [v for v in grid if not 1.0 <= v < math.inf]
            if bad:
                raise ConfigurationError(f"grid {key} values {bad} violate 1 <= {key} < inf")
            object.__setattr__(self, f"{key}_grid", grid)
        for family in (self.family_x, self.family_y):
            if family not in FAMILIES:
                raise ConfigurationError(f"unknown family {family!r}; expected one of {FAMILIES}")
        self.mc_config()  # McConfig checks the sampling settings and the seed

    def mc_config(self):
        return McConfig(
            total_samples=self.total_samples,
            batches=self.batches,
            master_seed=self.seed,
            unit_variance=self.unit_variance,
        )


@dataclass
class ComparisonRow:
    ensemble: str
    n1: int
    n2: int
    m: int
    q: float
    r: float
    p: float
    seed: int
    mc_lhs: float
    mc_stderr: float
    terms: dict
    lower_total: float
    upper_total: float
    ratio_lower: float
    ratio_upper: float
    flags: str


#: JSON key -> subtable, or the ExperimentConfig field it sets
_SCHEMA = {
    "ensemble": "ensemble",
    "density": "density",
    "dimensions": {"n1": "n1", "n2": "n2", "m": "m"},
    "grids": {"q": "q_grid", "r": "r_grid", "p": "p_grid"},
    "dist": {"family_x": "family_x", "family_y": "family_y"},
    "mc": {key: key for key in ("total_samples", "batches", "unit_variance")},
    "instances": "instances",
    "restarts": "restarts",
    "seed": "seed",
}


def _collect_fields(doc, schema, values, prefix=""):
    """Gather the values of ``doc`` by field name; ExperimentConfig checks them."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{prefix[:-1] or 'configuration'} must be a JSON object")
    unknown = [prefix + k for k in doc if k not in schema]
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        if isinstance(schema[key], dict):
            _collect_fields(value, schema[key], values, prefix + key + ".")
        else:
            values[schema[key]] = value


def parse_config(text):
    """Parse the JSON experiment document into a checked ExperimentConfig."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from exc
    values = {}
    _collect_fields(doc, _SCHEMA, values)
    return ExperimentConfig(**values)


def generate_ensemble(cfg, index):
    """Deterministic coefficient tensor for (master seed, instance index), at the first q."""
    if index < 0:
        raise ValueError("index must be >= 0")
    gen = rngmod.stream(cfg.seed, rngmod.ENSEMBLE_STREAM + index)
    shape = (cfg.n1, cfg.n2, cfg.m)
    entries = gen.standard_normal(shape)
    if cfg.ensemble == "sparse":
        mask = gen.uniform(size=shape) < cfg.density
        entries = np.where(mask, entries, 0.0)
        if not entries.any():
            entries.flat[0] = 1.0  # keep the tensor nonzero at any density
    elif cfg.ensemble == "diagonal":
        keep = np.zeros(shape, dtype=bool)
        for i in range(min(cfg.n1, cfg.n2)):
            keep[i, i, :] = True
        entries = np.where(keep, entries, 0.0)
    elif cfg.ensemble == "rank1":
        u = gen.standard_normal(cfg.n1)
        v = gen.standard_normal(cfg.n2)
        w = gen.standard_normal(cfg.m)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        entries = np.einsum("i,j,k->ijk", u, v, w)
    return CoefficientTensor(entries, q=cfg.q_grid[0])


#: solver and sampler failures that flag a row; anything else is a bug and raises
_ROW_FAILURES = (ConfigurationError, ArithmeticError, np.linalg.LinAlgError)


def _simulate(A, dists, levels, cfg):
    """One shared estimate per (q, p) level, or the group's ``mc-error:`` flag."""
    try:
        return dict(zip(levels, estimate_moment_decoupled(A, *dists, levels, cfg.mc_config())))
    except _ROW_FAILURES as exc:
        return dict.fromkeys(levels, f"mc-error:{type(exc).__name__}")


def _run_point(cfg, A, r, p, dists, mc, deterministic=True):
    """One report row; ``mc`` is its estimate or ``mc-error:`` flag, None without sampling."""
    flags = []
    terms = {name: math.nan for name in TERMS}
    lower_total = math.nan
    upper_total = math.nan
    if deterministic:
        try:
            upper = bd.assemble_bound(
                A, bd.UPPER_GENERAL, p, *dists,
                restarts=cfg.restarts, seed=cfg.seed,
            )
            terms.update(upper.terms)
            upper_total = upper.total
            lower_total = sum(upper.terms[name] for name in bd.KIND_TERMS[bd.LOWER])
            for name, diag in upper.diagnostics.items():
                if not diag["converged"]:
                    flags.append(f"nonconverged:{name}")
        except _ROW_FAILURES as exc:  # flag the row, keep going
            flags.append(f"term-error:{type(exc).__name__}")

    mc_lhs = math.nan
    mc_stderr = math.nan
    if isinstance(mc, str):
        flags.append(mc)
    elif mc is not None:
        mc_lhs, mc_stderr = mc.value, mc.stderr
        if mc.warning:
            flags.append("mc-unreliable")

    if mc_lhs and mc_lhs > 0.0 and math.isfinite(mc_lhs):
        ratio_lower = lower_total / mc_lhs if math.isfinite(lower_total) else math.nan
        ratio_upper = mc_lhs / upper_total if upper_total else math.nan
    else:
        ratio_lower = math.nan
        ratio_upper = math.nan
        if mc is not None and not isinstance(mc, str):  # an estimate came back
            flags.append("degenerate-mc")

    return ComparisonRow(
        ensemble=cfg.ensemble,
        n1=cfg.n1, n2=cfg.n2, m=cfg.m,
        q=A.q, r=r, p=p, seed=cfg.seed,
        mc_lhs=mc_lhs, mc_stderr=mc_stderr,
        terms=terms,
        lower_total=lower_total, upper_total=upper_total,
        ratio_lower=ratio_lower, ratio_upper=ratio_upper,
        flags=";".join(flags),
    )


def run_experiment(cfg, deterministic=True, simulate=True):
    """All grid points in deterministic order; flagged rows do not abort.

    Tensors and distributions are built once, and one Monte Carlo draw per
    (r, instance) serves every (q, p).  The points are computed one after
    another: the solvers hold the GIL, so a thread pool only added contention.
    """
    tensors = [generate_ensemble(cfg, index) for index in range(cfg.instances)]
    dists = {r: tuple(make_distribution(f, 2.0 if f == GAUSSIAN else r)
                      for f in (cfg.family_x, cfg.family_y)) for r in cfg.r_grid}
    levels = [(q, p) for q in cfg.q_grid for p in cfg.p_grid]
    mc = {(r, index): _simulate(A, dists[r], levels, cfg) if simulate else dict.fromkeys(levels)
          for r in cfg.r_grid for index, A in enumerate(tensors)}
    return [
        _run_point(cfg, CoefficientTensor(tensors[index].entries, q), r, p, dists[r],
                   mc[r, index][q, p], deterministic)
        for q in cfg.q_grid
        for r in cfg.r_grid
        for p in cfg.p_grid
        for index in range(cfg.instances)
    ]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def _row_record(row):
    return {c: row.terms.get(c, math.nan) if c in TERMS else getattr(row, c) for c in CSV_COLUMNS}


def render_report(rows, fmt):
    """Serialize rows to a CSV or JSON string (17 significant digits)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            rec = _row_record(row)
            writer.writerow([_fmt(rec[c]) for c in CSV_COLUMNS])
        return buf.getvalue()
    if fmt == "json":
        records = []
        for row in rows:
            rec = _row_record(row)
            records.append(
                {k: (_fmt(v) if isinstance(v, float) else v) for k, v in rec.items()}
            )
        return json.dumps(records, indent=2) + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}")


def write_report(rows, fmt, path):
    text = render_report(rows, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write report to {path}: {exc}") from exc


def read_rows(path):
    """Load rows from a JSON report for re-serialization."""
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise ConfigurationError("a report must be a JSON list of row objects")
    rows = []
    for rec in records:
        values = {c: _checked(c, rec[c], _COLUMN_TYPES[c]) if c in _COLUMN_TYPES else float(rec[c])
                  for c in CSV_COLUMNS}
        terms = {name: values.pop(name) for name in TERMS}
        rows.append(ComparisonRow(terms=terms, **values))
    return rows
