"""Command line front end.

Four subcommands: ``validate`` runs the pointwise structure checks over a
chart, ``lemma`` runs the randomized dimension campaigns, ``curvature``
samples horizontal sectional curvature, and ``identities`` runs the
curvature identity suites. Charts come from a file (``--chart``) or from
the built-in gallery (``--gallery``).

Exit codes: 0 when every check passes (or a curvature assessment is merely
inconclusive), 1 when a check or gate fails, 2 for usage and input errors.
Output is deterministic for a fixed seed; ``--json`` switches to a canonical
JSON document with sorted keys and no timestamps.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .charts import Chart, load_chart, sample_points
from .config import DEFAULT_TOLERANCES, POINTS_PER_CHART, Tolerances
from .curvature import (PointGeometry, bridge_residual, contact_residuals,
                        curvature_reconstruction_suite, defect_collapse_suite,
                        defect_factorization_suite, eta_parallel_residual,
                        horizontal_sectional_values, killing_residual,
                        modified_connection_suite, nearly_cosymplectic_residuals,
                        reeb_deta_kernel_residual, skew_phi_anticommutation_residual)
from .errors import GeometryError
from .exprs import EvalError
from .gallery import GALLERY_NAMES, gallery_chart
from .quadruples import decomposition_campaign, generic_vector_campaign
from .report import Check, VerificationReport
from .structure import dimension_consistency_gate, validate_acms
from .linalg import anticommutator

_ENV_SEED = "ACMSLAB_SEED"


def _add_chart_source(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--chart", metavar="PATH", help="chart definition file")
    group.add_argument("--gallery", choices=GALLERY_NAMES, help="built-in chart")


def _add_run_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help=f"RNG seed (default: ${_ENV_SEED} or 0)")
    sp.add_argument("--probes", type=int, default=None,
                    help=f"points sampled per chart (default {POINTS_PER_CHART})")
    sp.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                    help="override one tolerance; repeatable")
    sp.add_argument("--json", action="store_true", help="canonical JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmslab",
        description="verification toolkit for almost contact metric structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="pointwise structure checks over a chart")
    _add_chart_source(sp)
    _add_run_options(sp)

    sp = sub.add_parser("lemma", help="randomized dimension campaigns for "
                                      "anticommuting operators")
    sp.add_argument("--dim", type=int, default=8, help="even ambient dimension")
    sp.add_argument("--trials", type=int, default=50, help="random operators per campaign")
    _add_run_options(sp)

    sp = sub.add_parser("curvature", help="sample horizontal sectional curvature")
    _add_chart_source(sp)
    sp.add_argument("--planes", type=int, default=50, help="planes sampled per point")
    _add_run_options(sp)

    sp = sub.add_parser("identities", help="curvature identity suites")
    _add_chart_source(sp)
    sp.add_argument("--c", type=float, default=None,
                    help="model curvature constant (default: estimated from "
                         "phi-plane sections)")
    _add_run_options(sp)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise GeometryError(f"bad {_ENV_SEED} value {env!r}") from exc
    return 0


def _resolve_tolerances(args) -> Tolerances:
    overrides: dict[str, float] = {}
    for item in args.tol:
        if "=" not in item:
            raise GeometryError(f"--tol wants KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            overrides[key.strip()] = float(value)
        except ValueError as exc:
            raise GeometryError(f"--tol {key}: bad float {value!r}") from exc
    try:
        return DEFAULT_TOLERANCES.replace(**overrides)
    except KeyError as exc:
        raise GeometryError(f"unknown tolerance name {exc.args[0]!r}") from exc


def _resolve_points(args) -> int:
    n_points = args.probes if args.probes is not None else POINTS_PER_CHART
    if n_points < 1:
        raise GeometryError(f"--probes must be positive, got {n_points}")
    return n_points


def _resolve_chart(args) -> Chart:
    if args.gallery is not None:
        return gallery_chart(args.gallery)
    return load_chart(args.chart)


def _chart_label(args) -> str:
    return args.gallery if args.gallery is not None else args.chart


def _aggregate(reports: list[VerificationReport]) -> VerificationReport:
    """Merge per-point reports by taking the worst residual per check name."""
    order: list[str] = []
    worst: dict[str, Check] = {}
    for report in reports:
        for c in report.checks:
            if c.name not in worst:
                order.append(c.name)
                worst[c.name] = c
            else:
                prev = worst[c.name]
                worst[c.name] = Check(c.name, max(prev.residual, c.residual),
                                      prev.tolerance, prev.passed and c.passed)
    return VerificationReport.of([worst[name] for name in order])


def _emit(args, command: str, config: dict, report: VerificationReport,
          summary: dict, *, verdict_override: bool | None = None) -> int:
    verdict = report.verdict if verdict_override is None else verdict_override
    if args.json:
        doc = {
            "command": command,
            "config": config,
            "checks": report.to_dicts(),
            "summary": summary,
            "verdict": "PASS" if verdict else "FAIL",
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        bits = " ".join(f"{k}={v}" for k, v in config.items())
        print(f"# acmslab {command} {bits}")
        if report.checks:
            print(report.format_table())
        for key, value in summary.items():
            print(f"{key}: {value}")
        print(f"VERDICT: {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    tol = _resolve_tolerances(args)
    seed = _resolve_seed(args)
    n_points = _resolve_points(args)
    chart = _resolve_chart(args)
    points = sample_points(chart, n_points, seed)
    value_tol = tol.acms_exact if chart.mode.kind == "symbolic" else tol.acms_fd
    bridge_tol = tol.bridge_symbolic if chart.mode.kind == "symbolic" else tol.bridge_fd

    rng = np.random.default_rng(seed)
    acms_reports = []
    star_worst = 0.0
    skew_star_worst = 0.0
    eta_par_worst = 0.0
    killing_worst = 0.0
    kernel_worst = 0.0
    nearly_worst = 0.0
    bridge_worst = 0.0
    sigma_min = float("inf")
    volume_min = float("inf")
    for y in points:
        pg = PointGeometry(chart, y, tol=tol)
        acms_reports.append(validate_acms(pg.point))
        star = anticommutator(pg.phi, pg.reeb_gradient).max_norm
        star_worst = max(star_worst, star)
        skew_star_worst = max(skew_star_worst, skew_phi_anticommutation_residual(pg))
        eta_par_worst = max(eta_par_worst, eta_parallel_residual(pg))
        killing_worst = max(killing_worst, killing_residual(pg))
        kernel_worst = max(kernel_worst, reeb_deta_kernel_residual(pg))
        nearly = nearly_cosymplectic_residuals(pg, rng, probes=16)
        nearly_worst = max(nearly_worst, *nearly.values())
        bridge_worst = max(bridge_worst, bridge_residual(pg, rng, pairs=16))
        sigma, volume = contact_residuals(pg)
        sigma_min = min(sigma_min, sigma)
        volume_min = min(volume_min, volume)

    report = _aggregate(acms_reports)
    star_check = Check.below("phi_anticommutation", star_worst, value_tol)
    contact_check = Check.above("contact_sigma_min", sigma_min, tol.contact)
    extra = [
        star_check,
        Check.below("skew_phi_anticommutation", skew_star_worst, value_tol),
        Check.below("eta_parallel", eta_par_worst, tol.condition_gate),
        contact_check,
        Check.above("contact_volume", volume_min, tol.contact),
        Check.below("contact_bridge", bridge_worst, bridge_tol),
        Check.below("reeb_killing", killing_worst, tol.self_adjoint),
        Check.below("reeb_in_deta_kernel", kernel_worst, tol.self_adjoint),
        Check.below("nearly_cosymplectic", nearly_worst, tol.nearly_gate),
        dimension_consistency_gate(chart.dim, star_check.passed, contact_check.passed),
    ]
    report = report.merged(VerificationReport.of(extra))
    config = {"chart": _chart_label(args), "seed": seed, "points": n_points,
              "mode": chart.mode.format()}
    summary = {"dim": chart.dim, "contact_sigma_min": float(sigma_min),
               "contact_volume": float(volume_min)}
    return _emit(args, "validate", config, report, summary)


def cmd_lemma(args) -> int:
    tol = _resolve_tolerances(args)
    seed = _resolve_seed(args)
    if args.dim < 2 or args.dim % 2 != 0:
        raise GeometryError(f"--dim must be an even integer >= 2, got {args.dim}")
    if args.trials < 1:
        raise GeometryError(f"--trials must be positive, got {args.trials}")
    part1 = generic_vector_campaign(args.dim, args.trials, seed, tol=tol)
    part2 = decomposition_campaign(args.dim, args.trials, seed, tol=tol)
    report = part1.merged(part2)
    config = {"dim": args.dim, "trials": args.trials, "seed": seed}
    summary = {"dim_mod_4": args.dim % 4,
               "branch": "decomposition" if args.dim % 4 == 0 else "forced_singularity"}
    return _emit(args, "lemma", config, report, summary)


def cmd_curvature(args) -> int:
    tol = _resolve_tolerances(args)
    seed = _resolve_seed(args)
    if args.planes < 1:
        raise GeometryError(f"--planes must be positive, got {args.planes}")
    n_points = _resolve_points(args)
    chart = _resolve_chart(args)
    points = sample_points(chart, n_points, seed)
    values = horizontal_sectional_values(chart, points, seed, tol=tol,
                                         planes=args.planes)
    arr = np.asarray(values)
    mean = float(arr.mean())
    spread = float(arr.max() - arr.min())
    scale = max(1.0, abs(mean))
    if spread < tol.identity * scale:
        assessment = f"CONSISTENT: constant horizontal sectional curvature {mean:.6f}"
        constant = True
    else:
        assessment = "N/A: horizontal sectional curvature varies over the sample"
        constant = False
    report = VerificationReport.of([
        Check.flag("sectional_curvature_sampled", bool(values)),
    ])
    config = {"chart": _chart_label(args), "seed": seed, "points": n_points,
              "planes": args.planes, "mode": chart.mode.format()}
    summary = {"samples": len(values), "min": float(arr.min()),
               "max": float(arr.max()), "mean": mean, "spread": spread,
               "constant": constant, "assessment": assessment}
    return _emit(args, "curvature", config, report, summary)


def cmd_identities(args) -> int:
    tol = _resolve_tolerances(args)
    seed = _resolve_seed(args)
    n_points = _resolve_points(args)
    chart = _resolve_chart(args)
    points = sample_points(chart, n_points, seed)
    probes = 12
    suites = {
        "modified": modified_connection_suite(chart, points, seed, tol=tol,
                                              probes=probes),
        "collapse": defect_collapse_suite(chart, points, seed, tol=tol,
                                          probes=probes),
        "factorization": defect_factorization_suite(chart, points, seed, tol=tol,
                                                    probes=probes),
        "reconstruction": curvature_reconstruction_suite(chart, points, seed,
                                                         tol=tol, tuples=probes,
                                                         c=args.c),
    }
    merged = VerificationReport.of(
        [c for rep in suites.values() for c in rep.checks])
    skipped = [name for name, rep in suites.items()
               if not rep.verdict and any(c.name.endswith("_gate") and not c.passed
                                          for c in rep.checks)]
    config = {"chart": _chart_label(args), "seed": seed, "points": n_points,
              "mode": chart.mode.format()}
    summary = {"skipped_suites": ", ".join(skipped) if skipped else "none"}
    return _emit(args, "identities", config, merged, summary)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "lemma": cmd_lemma,
        "curvature": cmd_curvature,
        "identities": cmd_identities,
    }
    try:
        return handlers[args.command](args)
    except (GeometryError, EvalError, OSError) as exc:
        print(f"acmslab: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # symbolic differentiation and error messages recurse over the tree
        print("acmslab: error: expression nested too deeply to process; symbolic "
              "differentiation recurses, so try derivative_mode = fd", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
