"""Span tracing of the package's layers, from outside the package.

``Tracer.installed()`` wraps every public function of each layer module
at every name in the package that binds it (``bounds.norm_Xp`` as well as
``dual_norms.norm_Xp``), plus ``TailDistribution.sample``.  Each call
records a span ``(id, parent, name, start, end, tag)`` in a list owned by
its thread.  A span opened on a thread with no open span (a harness pool
worker) takes the main thread's innermost open span as its parent.

Self time is a span's duration minus the union of its children's
intervals.  ``estimates`` is not a layer: its helpers run inside
``montecarlo`` spans and count as Monte Carlo self time.
"""

import functools
import importlib
import itertools
import math
import sys
import threading
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "harness", "bounds", "dual_norms", "distributions",
          "montecarlo", "functionals", "rng")

SAMPLE = "distributions.TailDistribution.sample"
TERM_SPANS = {
    "bounds.term_T2_supx": "T2",
    "bounds.term_T3_supy": "T3",
    "bounds.term_T4_sup_f_column": "T4",
    "bounds.term_T5_sup_f_xyp": "T5",
    "bounds.term_T6_operator": "T6",
}
TERMS = ("T2", "T3", "T4r", "T4c", "T5", "T6")


def _t4_side(args, kwargs):
    side = args[2] if len(args) > 2 else kwargs.get("side", "rows")
    return "T4r" if side == "rows" else "T4c"


def _draw_count(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["count"]


TAGS = {"bounds.term_T4_sup_f_column": _t4_side, SAMPLE: _draw_count}


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stacks = {}
        self._spans = {}
        self._main = threading.main_thread().ident

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            ident = threading.get_ident()
            state = (self._stacks.setdefault(ident, []), self._spans.setdefault(ident, []))
            self._local.state = state
        return state

    def wrap(self, name, fn):
        tag = TAGS.get(name)
        main_stack = self._stacks.setdefault(self._main, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = self._thread_state()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tag(args, kwargs) if tag else None))

        return traced

    def take_spans(self):
        """All spans recorded so far, in no particular order; clears them."""
        out = []
        for spans in self._spans.values():
            out += spans
            spans.clear()
        return out

    @contextmanager
    def installed(self):
        patched = []
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"chaosmoments.{layer}")
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self.wrap(f"{layer}.{name}", fn)
        binders = [m for n, m in list(sys.modules.items())
                   if n == "chaosmoments" or n.startswith("chaosmoments.")]
        for mod in binders:
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    patched.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        cls = importlib.import_module("chaosmoments.distributions").TailDistribution
        patched.append((cls, "sample", cls.__dict__["sample"]))
        cls.sample = self.wrap(SAMPLE, cls.__dict__["sample"])
        try:
            yield self
        finally:
            for obj, name, value in reversed(patched):
                setattr(obj, name, value)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """(self time by span id, overlap) for a list of spans.

    ``overlap`` is the time children of one parent ran concurrently on
    several threads, counted once per extra thread, so that
    sum(self) == root durations + overlap.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    result = {}
    overlap = 0.0
    for sid, _, _, t0, t1, _ in spans:
        kids = children.get(sid, ())
        covered = union_length(kids, t0, t1)
        result[sid] = (t1 - t0) - covered
        overlap += sum(min(b, t1) - max(a, t0) for a, b in kids if min(b, t1) > max(a, t0)) - covered
    return result, overlap


def percentile(values, pct):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def call_metrics(spans, t0, t1):
    """Per-layer metrics of one traced CLI call spanning [t0, t1]."""
    wall = t1 - t0
    self_s, overlap = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def term_of(span):
        """Outermost bound term a span runs under, or None."""
        term = None
        while span is not None:
            name = span[2]
            if name in TERM_SPANS:
                term = span[5] if TERM_SPANS[name] == "T4" else TERM_SPANS[name]
            span = by_id.get(span[1])
        return term

    durations = defaultdict(list)
    selfs = defaultdict(float)
    term_s = defaultdict(float)
    term_self = defaultdict(float)
    term_norm_calls = defaultdict(int)
    draws = 0
    for span in spans:
        sid, parent, name, a, b, tag = span
        durations[name].append(b - a)
        selfs[name] += self_s[sid]
        if name == SAMPLE:
            draws += tag
        if name.startswith("bounds.") or name == "dual_norms.norm_Xp":
            term = term_of(span)
            if term is None:
                continue
            if name == "dual_norms.norm_Xp":
                term_norm_calls[term] += 1
                continue
            term_self[term] += self_s[sid]
            parent_span = by_id.get(parent)
            if name in TERM_SPANS and (parent_span is None or term_of(parent_span) is None):
                term_s[term] += b - a

    def total(name):
        return sum(durations[name])

    norm_us = [d * 1e6 for d in durations["dual_norms.norm_Xp"]]
    sample_self = selfs[SAMPLE]
    mc_calls = len(durations["montecarlo.estimate_moment_decoupled"])
    roots = [(a, b) for _, parent, _, a, b, _ in spans if parent is None]
    unattributed = wall - union_length(roots, t0, t1)
    m = {
        "dual_norms.norm_Xp.calls": len(norm_us),
        "dual_norms.norm_Xp.self_s": selfs["dual_norms.norm_Xp"],
        "dual_norms.norm_Xp.us_p50": percentile(norm_us, 50),
        "dual_norms.norm_Xp.us_p99": percentile(norm_us, 99),
        "dual_norms.boundary_scale.self_s": selfs["dual_norms.boundary_scale"],
    }
    for term in TERMS:
        m[f"bounds.{term}.s"] = term_s[term]
        m[f"bounds.{term}.self_s"] = term_self[term]
        m[f"bounds.{term}.norm_Xp_calls"] = term_norm_calls[term]
    m.update({
        "bounds.assemble_bound.s_p50": percentile(durations["bounds.assemble_bound"], 50),
        "distributions.sample.self_s": sample_self,
        "distributions.sample.draws": draws,
        "distributions.sample.ns_per_draw": sample_self / draws * 1e9 if draws else 0.0,
        "montecarlo.estimate_moment_decoupled.s": total("montecarlo.estimate_moment_decoupled"),
        "montecarlo.estimate_moment_decoupled.self_s": selfs["montecarlo.estimate_moment_decoupled"],
        "montecarlo.estimate_moment_decoupled.calls": mc_calls,
        "functionals.lq_norm.calls": len(durations["functionals.lq_norm"]),
        "functionals.lq_norm.self_s": selfs["functionals.lq_norm"],
        "rng.stream.calls": len(durations["rng.stream"]),
        "harness.parse_config.s": total("harness.parse_config"),
        "harness.run_experiment.self_s": selfs["harness.run_experiment"],
        "harness.generate_ensemble.self_s": selfs["harness.generate_ensemble"],
        "harness.render_report.s": total("harness.render_report"),
        "cli.self_s": selfs["cli.main"],
        "trace.unattributed_s": unattributed,
        "trace.wall_s": wall,
    })
    # the bookkeeping identity the trace must satisfy
    m["trace.balance_error_s"] = sum(self_s.values()) + unattributed - overlap - wall
    return m


def write_spans(path, calls):
    """Write the spans of each traced call as CSV, one span a line."""
    with open(path, "w") as fh:
        fh.write("call,id,parent,name,start_s,end_s,tag\n")
        for index, (spans, t0) in enumerate(calls):
            for sid, parent, name, a, b, tag in sorted(spans, key=lambda s: s[3]):
                fh.write(f"{index},{sid},{'' if parent is None else parent},{name},"
                         f"{a - t0:.9f},{b - t0:.9f},{'' if tag is None else tag}\n")
