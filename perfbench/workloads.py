"""The benchmark's workloads: which CLI calls make up one op, and the
answer each call must give.

Every workload is a closed loop with one client. Op i gets the CLI seed
`op_seed(seed, i)`, so no two ops of a run share an input and a workload
seed replays the same sequence. An item is one chart point, or one trial
operator for `lemma`.

Why these four:

- identities_s5: `curvature` then `identities` on the symbolic S^5 gallery
  chart, the heaviest path. The tree-walker evaluates the 625-entry second
  metric derivative grid and the 4d+1 modified-Christoffel stencil, and
  each point runs `riemann` three times and `modified_riemann` twice.
- fd_s5: the same op on the same chart written as a finite-difference
  chart file. Many evaluations of small base trees on FD stencils and no
  symbolic derivative grids; the chart is parsed on every call.
- validate_darboux: `validate` on Darboux Sasakian charts of dimension
  3, 5, 7, 9, one chart per op in rotation. The only workload that calls
  `contact_volume_coefficient`, whose permutation sum dominates d = 9; it
  makes no curvature calls. Points per chart are set so that the d = 3..7
  ops take similar time, which keeps the median op inside one cluster;
  d = 9 runs one point.
- lemma_mod4: `lemma --dim 16` (quadruple decomposition) then `--dim 14`
  (forced singularity). Only `linalg` and `quadruples` run; no chart code.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import checks
import darboux

PLANES = 50     # curvature's default planes per point
# Points per s5 op. One-point ops (0.2-0.4 s) each land in a single fast or
# slow phase of the shared host, which splits their times into two clusters
# and makes the median jump; two points smooth that out.
S5_POINTS = 2


@dataclass(frozen=True)
class Call:
    """One CLI invocation inside an op; ``--seed`` is appended per op."""

    label: str                 # names the call in per-call timings
    argv: tuple[str, ...]
    items: int                 # chart points or trial operators it verifies
    check: Callable[..., list[str]]  # (exit code, document, seed) -> problems

    @property
    def scope(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    """What a workload runs: ops cycle through `cycle`; `warmup` holds one
    1-point or 1-trial call per distinct input; `kernel` names the speed
    kernel that tracks its ops (see speed.py)."""

    cycle: tuple[tuple[Call, ...], ...]
    warmup: tuple[Call, ...]
    kernel: str


def op_seed(seed: int, index: int) -> int:
    return (seed % (1 << 20)) * 1_000_000 + index


def _s5_calls(source: tuple[str, ...], points: int) -> tuple[Call, ...]:
    return (
        Call("curvature", ("curvature", *source, "--probes", str(points), "--json"),
             points, functools.partial(_curvature, points=points)),
        Call("identities", ("identities", *source, "--probes", str(points), "--json"),
             points, functools.partial(_identities, points=points)),
    )


def _curvature(rc, doc, seed, *, points):
    return checks.check_curvature(rc, doc, seed=seed, points=points, planes=PLANES)


def _identities(rc, doc, seed, *, points):
    return checks.check_identities(rc, doc, seed=seed, points=points)


def _validate(rc, doc, seed, *, points, n):
    return checks.check_validate_darboux(rc, doc, seed=seed, points=points, n=n,
                                         volume=darboux.contact_volume(n))


def _lemma(rc, doc, seed, *, dim, trials):
    return checks.check_lemma(rc, doc, seed=seed, dim=dim, trials=trials)


def _write(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def plan_identities_s5(chart_dir: str, tiny: bool) -> Plan:
    source = ("--gallery", "s5")
    return Plan((_s5_calls(source, 1 if tiny else S5_POINTS),), _s5_calls(source, 1), "array")


def plan_fd_s5(chart_dir: str, tiny: bool) -> Plan:
    from acmslab.charts import DerivativeMode, chart_to_text
    from acmslab.gallery import gallery_chart

    path = os.path.join(chart_dir, "s5_fd.chart")
    _write(path, chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd"))))
    source = ("--chart", path)
    return Plan((_s5_calls(source, 1 if tiny else S5_POINTS),), _s5_calls(source, 1), "array")


#: Points per op for n = 1..4 (d = 3, 5, 7, 9).
DARBOUX_POINTS = (180, 120, 18, 1)


def plan_validate_darboux(chart_dir: str, tiny: bool) -> Plan:
    darboux.self_check()
    cycle, warmup = [], []
    for n, full_points in zip((1, 2, 3, 4), DARBOUX_POINTS):
        path = os.path.join(chart_dir, f"darboux_d{2 * n + 1}.chart")
        _write(path, darboux.darboux_sasakian_text(n))

        def call(points, n=n, path=path):
            return Call(f"d{2 * n + 1}",
                        ("validate", "--chart", path, "--probes", str(points), "--json"),
                        points, functools.partial(_validate, points=points, n=n))

        cycle.append((call(1 if tiny else full_points),))
        warmup.append(call(1))
    return Plan(tuple(cycle), tuple(warmup), "tree")


def plan_lemma_mod4(chart_dir: str, tiny: bool) -> Plan:
    def calls(trials):
        return tuple(
            Call(f"dim{dim}", ("lemma", "--dim", str(dim), "--trials", str(trials), "--json"),
                 trials, functools.partial(_lemma, dim=dim, trials=trials))
            for dim in (16, 14))
    return Plan((calls(1 if tiny else 8),), calls(1), "tree")


WORKLOADS: dict[str, Callable[[str, bool], Plan]] = {
    "identities_s5": plan_identities_s5,
    "fd_s5": plan_fd_s5,
    "validate_darboux": plan_validate_darboux,
    "lemma_mod4": plan_lemma_mod4,
}
