"""Batch experiment runner: ensembles, grids, and comparison reports.

Configuration is a JSON document; every run is a pure function of the
document plus the master seed, and rows are emitted in deterministic grid
order so re-runs produce byte-identical reports.
"""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bd
from . import rng as rngmod
from .distributions import EXP_POWER, FAMILIES, GAUSSIAN, make_distribution
from .dual_norms import ConfigurationError
from .estimates import McConfig
from .functionals import CoefficientTensor
from .montecarlo import estimate_moment_decoupled

ENSEMBLES = (
    "dense-gaussian-coefficients",
    "sparse",
    "diagonal",
    "rank1",
    "hilbert",
)

#: the bound terms of a report row; the lower total is all of them but T6
TERMS = ("T1", "T2", "T3", "T4r", "T4c", "T5", "T6")

CSV_COLUMNS = [
    "ensemble", "n1", "n2", "m", "q", "r", "p", "seed",
    "mc_lhs", "mc_stderr",
    *TERMS,
    "lower_total", "upper_total", "ratio_lower", "ratio_upper", "flags",
]


@dataclass(frozen=True)
class ExperimentConfig:
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
        # here rather than in parse_config so that a --seed override,
        # applied with dataclasses.replace, is checked as well
        if not 0 <= self.seed < 1 << 64:
            raise ConfigurationError(f"seed {self.seed} is outside [0, 2^64)")
        if self.ensemble == "hilbert" and any(q != 2.0 for q in self.q_grid):
            raise ConfigurationError("the hilbert ensemble requires q = 2")

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


_REAL = (int, float)
#: a leaf is a type, or a one-element list holding the type of every entry
_SCHEMA = {
    "ensemble": str,
    "density": _REAL,
    "dimensions": {"n1": int, "n2": int, "m": int},
    "grids": {"q": [_REAL], "r": [_REAL], "p": [_REAL]},
    "dist": {"family_x": str, "family_y": str},
    "mc": {"total_samples": int, "batches": int, "unit_variance": bool},
    "instances": int,
    "restarts": int,
    "seed": int,
}
_KIND_NAMES = {str: "a string", _REAL: "a finite number", int: "an integer", bool: "a boolean"}


def _is_kind(value, kind):
    if isinstance(value, bool):  # JSON true/false; Python counts bool as an int
        return kind is bool
    if not isinstance(value, kind):
        return False
    # JSON NaN, Infinity and huge integers parse too; a number must fit a float
    return kind is not _REAL or abs(value) <= sys.float_info.max


def _check_keys(doc, schema, prefix=""):
    unknown = [prefix + k for k in doc if k not in schema]
    if unknown:
        raise ConfigurationError(f"unknown configuration keys: {', '.join(sorted(unknown))}")
    for k, v in doc.items():
        sub = schema[k]
        if isinstance(sub, dict):
            if not isinstance(v, dict):
                raise ConfigurationError(f"{prefix + k} must be an object")
            _check_keys(v, sub, prefix + k + ".")
        elif isinstance(sub, list):
            if not isinstance(v, list) or not all(_is_kind(x, sub[0]) for x in v):
                raise ConfigurationError(
                    f"{prefix + k} must be a list whose entries are each {_KIND_NAMES[sub[0]]}"
                )
        elif not _is_kind(v, sub):
            raise ConfigurationError(f"{prefix + k} must be {_KIND_NAMES[sub]}")


def parse_config(text):
    """Parse and validate the JSON experiment document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed configuration: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("configuration must be a JSON object")
    _check_keys(doc, _SCHEMA)

    cfg = ExperimentConfig()
    kwargs = {}
    if "ensemble" in doc:
        if doc["ensemble"] not in ENSEMBLES:
            raise ConfigurationError(
                f"unknown ensemble {doc['ensemble']!r}; expected one of {ENSEMBLES}"
            )
        kwargs["ensemble"] = doc["ensemble"]
    if "density" in doc:
        density = float(doc["density"])
        if not 0.0 < density <= 1.0:
            raise ConfigurationError("density must lie in (0, 1]")
        kwargs["density"] = density
    dims = doc.get("dimensions", {})
    for key in ("n1", "n2", "m"):
        if key in dims:
            value = dims[key]
            if value < 1:
                raise ConfigurationError(f"dimension {key} must be >= 1")
            kwargs[key] = value
    grids = doc.get("grids", {})
    for key, attr, low in (("q", "q_grid", 1.0), ("r", "r_grid", 1.0), ("p", "p_grid", 1.0)):
        if key in grids:
            values = tuple(float(v) for v in grids[key])
            if not values:
                raise ConfigurationError(f"grid {key} must be nonempty")
            bad = [v for v in values if v < low]
            if bad:
                raise ConfigurationError(f"grid {key} values {bad} violate {key} >= {low}")
            kwargs[attr] = values
    dist = doc.get("dist", {})
    for key, attr in (("family_x", "family_x"), ("family_y", "family_y")):
        if key in dist:
            if dist[key] not in FAMILIES:
                raise ConfigurationError(
                    f"unknown family {dist[key]!r}; expected one of {FAMILIES}"
                )
            kwargs[attr] = dist[key]
    mc = doc.get("mc", {})
    if "total_samples" in mc:
        if mc["total_samples"] < 1:
            raise ConfigurationError("mc.total_samples must be >= 1")
        kwargs["total_samples"] = mc["total_samples"]
    if "batches" in mc:
        if mc["batches"] < 8:
            raise ConfigurationError("mc.batches must be >= 8")
        kwargs["batches"] = mc["batches"]
    if "unit_variance" in mc:
        kwargs["unit_variance"] = mc["unit_variance"]
    for key in ("instances", "restarts", "seed"):
        if key in doc:
            kwargs[key] = doc[key]
            if key != "seed" and kwargs[key] < 1:
                raise ConfigurationError(f"{key} must be >= 1")
    cfg = replace(cfg, **kwargs)
    if cfg.total_samples % cfg.batches != 0:
        raise ConfigurationError("mc.total_samples must be divisible by mc.batches")
    return cfg


def generate_ensemble(cfg, index, q=None):
    """Deterministic coefficient tensor for (master seed, instance index)."""
    if index < 0:
        raise ValueError("index must be >= 0")
    q = cfg.q_grid[0] if q is None else q
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
    return CoefficientTensor(entries, q=q)


#: solver and sampler failures that flag a row; anything else is a bug and raises
_ROW_FAILURES = (ConfigurationError, ArithmeticError, np.linalg.LinAlgError)


def _run_point(cfg, q, r, p, index, deterministic=True, simulate=True):
    flags = []
    A = generate_ensemble(cfg, index, q=q)
    distX = make_distribution(cfg.family_x, r if cfg.family_x != GAUSSIAN else 2.0)
    distY = make_distribution(cfg.family_y, r if cfg.family_y != GAUSSIAN else 2.0)

    terms = {name: math.nan for name in TERMS}
    lower_total = math.nan
    upper_total = math.nan
    if deterministic:
        try:
            upper = bd.assemble_bound(
                A, bd.UPPER_GENERAL, p, distX, distY,
                restarts=cfg.restarts, seed=cfg.seed,
            )
            terms.update(upper.terms)
            upper_total = upper.total
            lower_total = sum(upper.terms[name] for name in TERMS if name != "T6")
            for name, diag in upper.diagnostics.items():
                if not diag["converged"]:
                    flags.append(f"nonconverged:{name}")
        except _ROW_FAILURES as exc:  # flag the row, keep going
            flags.append(f"term-error:{type(exc).__name__}")

    mc_lhs = math.nan
    mc_stderr = math.nan
    if simulate:
        try:
            est = estimate_moment_decoupled(A, distX, distY, p, cfg.mc_config())
            mc_lhs, mc_stderr = est.value, est.stderr
            if est.warning:
                flags.append("mc-unreliable")
        except _ROW_FAILURES as exc:
            flags.append(f"mc-error:{type(exc).__name__}")

    if mc_lhs and mc_lhs > 0.0 and math.isfinite(mc_lhs):
        ratio_lower = lower_total / mc_lhs if math.isfinite(lower_total) else math.nan
        ratio_upper = mc_lhs / upper_total if upper_total else math.nan
    else:
        ratio_lower = math.nan
        ratio_upper = math.nan
        if simulate:
            flags.append("degenerate-mc")

    return ComparisonRow(
        ensemble=cfg.ensemble,
        n1=cfg.n1, n2=cfg.n2, m=cfg.m,
        q=q, r=r, p=p, seed=cfg.seed,
        mc_lhs=mc_lhs, mc_stderr=mc_stderr,
        terms=terms,
        lower_total=lower_total, upper_total=upper_total,
        ratio_lower=ratio_lower, ratio_upper=ratio_upper,
        flags=";".join(flags),
    )


def run_experiment(cfg, threads=1, deterministic=True, simulate=True):
    """All grid points in deterministic order; flagged rows do not abort.

    ``threads`` is accepted for compatibility and has no effect: the points
    are computed one after another (the solvers hold the GIL, so a thread
    pool only added contention).
    """
    return [
        _run_point(cfg, q, r, p, index, deterministic, simulate)
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
    rec = {
        "ensemble": row.ensemble,
        "n1": row.n1, "n2": row.n2, "m": row.m,
        "q": row.q, "r": row.r, "p": row.p, "seed": row.seed,
        "mc_lhs": row.mc_lhs, "mc_stderr": row.mc_stderr,
    }
    for name in TERMS:
        rec[name] = row.terms.get(name, math.nan)
    rec.update(
        lower_total=row.lower_total,
        upper_total=row.upper_total,
        ratio_lower=row.ratio_lower,
        ratio_upper=row.ratio_upper,
        flags=row.flags,
    )
    return rec


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
    rows = []
    for rec in records:
        terms = {name: float(rec[name]) for name in TERMS}
        rows.append(
            ComparisonRow(
                ensemble=rec["ensemble"],
                n1=int(rec["n1"]), n2=int(rec["n2"]), m=int(rec["m"]),
                q=float(rec["q"]), r=float(rec["r"]), p=float(rec["p"]),
                seed=int(rec["seed"]),
                mc_lhs=float(rec["mc_lhs"]), mc_stderr=float(rec["mc_stderr"]),
                terms=terms,
                lower_total=float(rec["lower_total"]),
                upper_total=float(rec["upper_total"]),
                ratio_lower=float(rec["ratio_lower"]),
                ratio_upper=float(rec["ratio_upper"]),
                flags=rec["flags"],
            )
        )
    return rows
