"""Numeric tolerances and sampling defaults.

Every field of `Tolerances` is a threshold some check reads from the
tolerances it is given, so ``--tol`` can override it by name. Two-tier
entries exist because closed-form field evaluations are exact to rounding
while finite-difference derivatives are not.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # operator plumbing
    self_adjoint: float = 1e-8      # asymmetry gate in symmetric_eigen

    # almost contact metric structure residuals
    acms_exact: float = 1e-9        # pointwise algebraic residuals
    acms_fd: float = 1e-5           # residuals fed by finite differences
    contact: float = 1e-6           # nondegeneracy gate for the contact checks

    # dimension-lemma thresholds (rank also cuts the horizontal frame)
    rank: float = 1e-8              # 3x3 Gram determinant of the generic triple
    witness: float = 1e-8           # |<Z, JAY>| lower bound
    quad: float = 1e-8              # orthogonality / eigenvalue slack in quadruples
    singular: float = 1e-8          # sigma_min below this counts as singular
    singular_slack: float = 10.0    # extra factor when certifying singularity

    # curvature residuals
    curvature_symbolic: float = 1e-6
    curvature_fd: float = 1e-3
    identity: float = 1e-3          # modified-connection / reconstruction identity gates
    nearly_gate: float = 1e-4       # nearly-cosymplectic gate for the reconstruction suite
    condition_gate: float = 1e-4    # gates on the anticommutation / eta-parallel checks
    bridge_symbolic: float = 1e-5   # d eta vs skew-pairing bridge
    bridge_fd: float = 1e-4
    dual_mode: float = 1e-5         # symbolic vs finite-difference agreement

    def replace(self, **overrides: float) -> "Tolerances":
        bad = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if bad:
            raise KeyError(f"unknown tolerance name(s): {sorted(bad)}")
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()

# sampling defaults
POINTS_PER_CHART = 20       # chart points drawn from the parameter box
PROBES_PER_RESIDUAL = 50    # random horizontal planes per point (`curvature`)
MAX_PROBE_DRAWS = 100       # consecutive rejected probe draws before giving up
