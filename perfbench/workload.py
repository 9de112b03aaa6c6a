"""Workload definitions and the set-up every CLI run pays for.

Each workload is one pinned ``chaosmoments`` command on a JSON config
under ``perfbench/workloads``.  The seed is not in the config: it reaches
the program only through ``--seed``.
"""

import os
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int

    @property
    def config_path(self):
        return os.path.join(HERE, "workloads", f"{self.name}.json")

    def config_text(self):
        with open(self.config_path) as fh:
            return fh.read()

    def argv(self, seed, out_path):
        return [
            self.command, "--config", self.config_path, "--seed", str(seed),
            "--threads", str(self.threads), "--out", out_path,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bound-exppower", "bound", 1),
        Workload("simulate-exppower", "simulate", 1),
        Workload("verify-weibull-sparse", "verify", 2),
    )
}


def grid_points(cfg):
    """(q, r, p) of every report row, in the harness's row order."""
    return [
        (q, r, p)
        for q in cfg.q_grid
        for r in cfg.r_grid
        for p in cfg.p_grid
        for _ in range(cfg.instances)
    ]


def warm(config_text):
    """Parse the config, build every distribution and fill the tail tables.

    Returns (config, seconds spent filling the exp-power lookup tables).
    The first ``tail_N_at_prime`` call on an exp-power law with r > 1
    builds the 65,536-point table that every fresh CLI process pays for.
    """
    from chaosmoments import harness
    from chaosmoments.distributions import EXP_POWER, GAUSSIAN, make_distribution

    cfg = harness.parse_config(config_text)
    table_fill_s = 0.0
    for family in sorted({cfg.family_x, cfg.family_y}):
        for r in cfg.r_grid:
            d = make_distribution(family, 2.0 if family == GAUSSIAN else r)
            if family == EXP_POWER and not d.linear_tail:
                t0 = time.perf_counter()
                d.tail_N_at_prime(float(d.tail_N_prime(1.0)) + 1.0)
                table_fill_s += time.perf_counter() - t0
    return cfg, table_fill_s
