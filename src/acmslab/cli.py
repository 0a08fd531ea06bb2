"""Command line front end.

Four subcommands: ``validate`` runs the pointwise structure checks over a
chart, ``lemma`` runs the randomized dimension campaigns, ``curvature``
samples horizontal sectional curvature, and ``identities`` runs the
curvature identity suites. Charts come from a file (``--chart``) or from
the built-in gallery (``--gallery``).

Exit codes: 0 when every check passes (or a curvature assessment is merely
inconclusive), 1 when a check or gate fails (a NaN residual or a non-finite
sectional curvature sample fails), 2 for usage and input errors. Output is
deterministic for a fixed seed on a given numpy and LAPACK build; between
builds it can differ by rounding (``lemma`` takes eigenvectors of A^2 from
LAPACK). ``--json`` switches to a canonical, strict JSON document with
sorted keys and no timestamps, in which a non-finite number (NaN or
infinity) prints as ``null``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache

import numpy as np

from .charts import MAX_CHART_DIM, Chart, load_chart, sample_points
from .config import DEFAULT_TOLERANCES, POINTS_PER_CHART, PROBES_PER_RESIDUAL, Tolerances
from .curvature import (READ_PLANS, PointGeometry, bridge_residual, contact_residuals,
                        curvature_reconstruction_suite, defect_collapse_suite,
                        defect_factorization_suite, horizontal_sectional_values,
                        killing_residual, modified_connection_suite,
                        nearly_cosymplectic_residual, reeb_deta_kernel_residual,
                        skew_phi_anticommutation_residual)
from .errors import GeometryError
from .exprs import EvalError
from .gallery import GALLERY_NAMES, gallery_chart
from .linalg import max_entry
from .quadruples import ComplexStructuredSpace, decomposition_campaign, generic_vector_campaign
from .report import Check, VerificationReport, least, worst
from .structure import dimension_consistency_gate, dimension_error, validate_acms

_ENV_SEED = "ACMSLAB_SEED"


def _add_chart_options(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--chart", metavar="PATH", help="chart definition file")
    group.add_argument("--gallery", choices=GALLERY_NAMES, help="built-in chart")
    sp.add_argument("--probes", type=int, default=None,
                    help=f"points sampled per chart (default {POINTS_PER_CHART})")


def _add_run_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None,
                    help=f"RNG seed (default: ${_ENV_SEED} or 0)")
    sp.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                    help="override one tolerance; repeatable")
    sp.add_argument("--json", action="store_true", help="canonical JSON output")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmslab",
        description="verification toolkit for almost contact metric structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="pointwise structure checks over a chart")
    _add_chart_options(sp)
    _add_run_options(sp)

    sp = sub.add_parser("lemma", help="randomized dimension campaigns for "
                                      "anticommuting operators")
    sp.add_argument("--dim", type=int, default=8,
                    help=f"even ambient dimension, from 4 to {MAX_CHART_DIM}")
    sp.add_argument("--trials", type=int, default=50, help="random operators per campaign")
    _add_run_options(sp)

    sp = sub.add_parser("curvature", help="sample horizontal sectional curvature")
    _add_chart_options(sp)
    sp.add_argument("--planes", type=int, default=PROBES_PER_RESIDUAL,
                    help=f"planes sampled per point (default {PROBES_PER_RESIDUAL})")
    _add_run_options(sp)

    sp = sub.add_parser("identities", help="curvature identity suites")
    _add_chart_options(sp)
    sp.add_argument("--c", type=float, default=None,
                    help="model curvature constant (default: estimated from "
                         "phi-plane sections)")
    _add_run_options(sp)
    return parser


def _resolve_seed(args) -> int:
    """The ``--seed`` value, else ``$ACMSLAB_SEED``, else 0; numpy's
    generators take non-negative seeds only."""
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get(_ENV_SEED)
        if env is None:
            return 0
        try:
            seed, source = int(env), _ENV_SEED
        except ValueError as exc:
            raise GeometryError(f"bad {_ENV_SEED} value {env!r}") from exc
    if seed < 0:
        raise GeometryError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _resolve_tolerances(args) -> Tolerances:
    overrides: dict[str, float] = {}
    for item in args.tol:
        if "=" not in item:
            raise GeometryError(f"--tol wants KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            number = float(value)
        except ValueError as exc:
            raise GeometryError(f"--tol {key}: bad float {value!r}") from exc
        # a NaN gate never fires and a negative one always does
        if not math.isfinite(number) or number < 0.0:
            raise GeometryError(
                f"--tol {key}: must be finite and non-negative, got {value!r}")
        overrides[key.strip()] = number
    try:
        return DEFAULT_TOLERANCES.replace(**overrides)
    except KeyError as exc:
        raise GeometryError(exc.args[0]) from exc


def _chart_inputs(args, **options) -> tuple[Tolerances, Chart, np.ndarray, dict]:
    """The tolerances, chart, sample points and report config of a chart
    command; ``options`` are the command's own, already checked, and go
    into the config after the points. A dimension that carries no almost
    contact metric structure is rejected here, once per command, since
    ``curvature`` builds no structure that would check it."""
    tol = _resolve_tolerances(args)
    seed = _resolve_seed(args)
    n_points = args.probes if args.probes is not None else POINTS_PER_CHART
    if n_points < 1:
        raise GeometryError(f"--probes must be positive, got {n_points}")
    chart = gallery_chart(args.gallery) if args.gallery is not None else load_chart(args.chart)
    if chart.dim < 3 or chart.dim % 2 == 0:
        raise dimension_error(chart.dim)
    config = {"chart": args.gallery if args.gallery is not None else args.chart,
              "seed": seed, "points": n_points, **options, "mode": chart.mode.format()}
    return tol, chart, sample_points(chart, n_points, seed), config


def _finite_or_null(value):
    """Copy of a JSON-ready value with every non-finite float replaced by
    None, so the document stays strict JSON (RFC 8259 has no NaN or inf)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return value


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
        print(json.dumps(_finite_or_null(doc), sort_keys=True, indent=2,
                         allow_nan=False))
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
    tol, chart, points, config = _chart_inputs(args)
    value_tol = tol.acms_exact if chart.mode.kind == "symbolic" else tol.acms_fd
    bridge_tol = tol.bridge_symbolic if chart.mode.kind == "symbolic" else tol.bridge_fd

    # one geometry over the whole sample: each grid is read once, over every
    # point and with its first derivatives, when a check first needs it, so
    # the order below decides which error a chart failing at several points
    # reports (phi, xi, eta, then g)
    pg = PointGeometry(chart, points, tol=tol, reads=READ_PLANS["validate"][chart.mode.kind])
    report = validate_acms(pg.phi, pg.xi, pg.eta, pg.gram, tol=tol)
    a = pg.reeb_gradient
    star = max_entry(pg.phi @ a + a @ pg.phi, 2)
    skew_star = skew_phi_anticommutation_residual(pg)
    eta_par = pg.eta_parallel
    killing = killing_residual(pg)
    kernel = reeb_deta_kernel_residual(pg)
    nearly = nearly_cosymplectic_residual(pg)
    bridge = bridge_residual(pg)
    sigma, volume = contact_residuals(pg)
    sigma_min, volume_min = least(sigma), least(volume)

    star_check = Check.below("phi_anticommutation", worst(star), value_tol)
    contact_check = Check.above("contact_sigma_min", sigma_min, tol.contact)
    extra = [
        star_check,
        Check.below("skew_phi_anticommutation", worst(skew_star), value_tol),
        Check.below("eta_parallel", worst(eta_par), tol.condition_gate),
        contact_check,
        Check.above("contact_volume", volume_min, tol.contact),
        Check.below("contact_bridge", worst(bridge), bridge_tol),
        Check.below("reeb_killing", worst(killing), tol.self_adjoint),
        Check.below("reeb_in_deta_kernel", worst(kernel), tol.self_adjoint),
        Check.below("nearly_cosymplectic", worst(nearly), tol.nearly_gate),
        dimension_consistency_gate(chart.dim, star_check.passed, contact_check.passed),
    ]
    report = report.merged(VerificationReport.of(extra))
    summary = {"dim": chart.dim, "contact_sigma_min": sigma_min,
               "contact_volume": volume_min}
    return _emit(args, "validate", config, report, summary)


def cmd_lemma(args) -> int:
    tol = _resolve_tolerances(args)
    seed = _resolve_seed(args)
    # in dimension 2 the triple {Y, JY, AY} can never be independent
    if args.dim < 4 or args.dim % 2 != 0:
        raise GeometryError(f"--dim must be an even integer >= 4, got {args.dim}")
    if args.dim > MAX_CHART_DIM:  # refused before any dim x dim array is built
        raise GeometryError(f"--dim must be at most {MAX_CHART_DIM}, got {args.dim}")
    if args.trials < 1:
        raise GeometryError(f"--trials must be positive, got {args.trials}")
    space = ComplexStructuredSpace.standard(args.dim)
    report = generic_vector_campaign(space, args.trials, seed, tol=tol).merged(
        decomposition_campaign(space, args.trials, seed, tol=tol))
    config = {"dim": args.dim, "trials": args.trials, "seed": seed}
    summary = {"dim_mod_4": args.dim % 4,
               "branch": "decomposition" if args.dim % 4 == 0 else "forced_singularity"}
    return _emit(args, "lemma", config, report, summary)


def cmd_curvature(args) -> int:
    if args.planes < 1:
        raise GeometryError(f"--planes must be positive, got {args.planes}")
    tol, chart, points, config = _chart_inputs(args, planes=args.planes)
    values = horizontal_sectional_values(chart, points, config["seed"], tol=tol,
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
        Check.flag("sectional_curvature_sampled",
                   bool(values) and bool(np.isfinite(arr).all())),
    ])
    summary = {"samples": len(values), "min": float(arr.min()),
               "max": float(arr.max()), "mean": mean, "spread": spread,
               "constant": constant, "assessment": assessment}
    return _emit(args, "curvature", config, report, summary)


def cmd_identities(args) -> int:
    if args.c is not None and not math.isfinite(args.c):
        raise GeometryError(f"--c must be finite, got {args.c}")
    tol, chart, points, config = _chart_inputs(args)
    # one stack, each grid read once: g, xi, eta, phi, then an fd chart's stencils
    pg = PointGeometry(chart, points, tol=tol, reads=READ_PLANS["identities"][chart.mode.kind])
    suites = {
        "modified": modified_connection_suite(pg, tol=tol),
        "collapse": defect_collapse_suite(pg, tol=tol),
        "factorization": defect_factorization_suite(pg, tol=tol),
        "reconstruction": curvature_reconstruction_suite(pg, tol=tol, c=args.c),
    }
    merged = VerificationReport.of(
        [c for rep in suites.values() for c in rep.checks])
    skipped = [name for name, rep in suites.items()
               if not rep.verdict and any(c.name.endswith("_gate") and not c.passed
                                          for c in rep.checks)]
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
    except MemoryError as exc:  # numpy refuses an allocation larger than the machine up front
        print(f"acmslab: error: out of memory: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # naming a failing component walks and prints its tree recursively
        print("acmslab: error: expression nested too deeply to name its failing "
              "component", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
