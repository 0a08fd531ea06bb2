"""Pointwise almost contact metric structures and their derived operators.

A structure at a point is the tuple (phi, xi, eta, g) on an odd-dimensional
tangent space. This module validates the defining identities, builds the
horizontal (contact) distribution, and runs the pointwise condition checks
that the curvature identities later depend on.

The horizontal frame is one ``(dim, dim - 1)`` column stack of g-orthonormal
vectors (see `linalg`). The checks that need it take it as an argument, so a
caller builds it once per point and shares it between the eta-parallel and
contact checks (``curvature.PointGeometry`` does).

Each check reads its thresholds from the ``Tolerances`` it is given.

Residual conventions: operator residuals use the entrywise max-norm of the
frame matrix, vector residuals use the g-norm, scalar residuals the absolute
value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateInputError, ShapeError
from .linalg import LinearOp, Metric, gram_schmidt
from .report import Check, VerificationReport


def dimension_error(dim: int) -> ShapeError:
    """The error for a dimension that carries no almost contact metric
    structure."""
    return ShapeError(f"structure dimension must be odd and at least 3, got {dim}")


def horizontal_projector(xi, eta) -> np.ndarray:
    """Matrix of the projection onto ker eta along xi, over any leading axes
    of xi and eta."""
    return np.eye(xi.shape[-1]) - xi[..., :, None] * eta[..., None, :]


@dataclass(frozen=True)
class AcmsPoint:
    """Candidate almost contact metric structure on one tangent space.

    Construction checks shapes and an odd dimension of at least 3 only;
    whether the defining identities hold is the job of validate_acms, so
    deliberately broken structures can be built and reported on.
    """

    phi: LinearOp
    xi: np.ndarray
    eta: np.ndarray
    g: Metric

    def __post_init__(self):
        dim = self.g.dim
        if dim < 3 or dim % 2 == 0:
            raise dimension_error(dim)
        if self.phi.dim != dim:
            raise ShapeError(f"phi dim {self.phi.dim} does not match metric dim {dim}")
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if xi.shape != (dim,) or eta.shape != (dim,):
            raise ShapeError(f"xi/eta must have shape ({dim},)")
        for field, arr in (("xi", xi), ("eta", eta)):
            frozen = arr.copy()
            frozen.setflags(write=False)
            object.__setattr__(self, field, frozen)

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def horizontal_dim(self) -> int:
        return self.dim - 1

    def eta_of(self, v) -> float:
        return float(self.eta @ np.asarray(v, dtype=float))

    @cached_property
    def projector(self) -> LinearOp:
        return LinearOp(horizontal_projector(self.xi, self.eta))


def validate_acms(p: AcmsPoint, *, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Check the defining identities of an almost contact metric structure
    against ``tol.acms_exact``.

    One report entry per identity; residuals use the entrywise max-norm for
    operator equations. rank_phi records how many g-singular values of phi
    sit below the tolerance (exactly one for a valid structure).
    """
    dim = p.dim
    g = p.g.gram
    phi = p.phi.mat
    eye = np.eye(dim)
    eta_xi_outer = np.outer(p.xi, p.eta)

    phi_sq = float(np.max(np.abs(phi @ phi + eye - eta_xi_outer)))
    eta_xi = abs(p.eta_of(p.xi) - 1.0)
    compat = float(np.max(np.abs(phi.T @ g @ phi - g + np.outer(p.eta, p.eta))))
    phi_xi = p.g.norm(p.phi.apply(p.xi))
    eta_phi = float(np.max(np.abs(p.eta @ phi)))
    eta_flat = float(np.max(np.abs(p.eta - g @ p.xi)))

    gate = tol.acms_exact
    sing = np.linalg.svd(p.g.to_orthonormal(phi), compute_uv=False)
    null_count = int(np.sum(sing < gate))

    checks = [
        Check.below("phi_squared", phi_sq, gate),
        Check.below("eta_xi", eta_xi, gate),
        Check.below("metric_compatibility", compat, gate),
        Check.below("phi_xi", phi_xi, gate),
        Check.below("eta_phi", eta_phi, gate),
        Check("rank_phi", float(null_count), 1.0, null_count == 1),
        Check.below("eta_flat_xi", eta_flat, gate),
    ]
    return VerificationReport.of(checks)


def horizontal_basis(p: AcmsPoint, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """g-orthonormal basis of ker eta as a ``(dim, dim - 1)`` column stack:
    the coordinate frame projected along xi (the columns of the projector),
    orthonormalized with pivoting that drops columns below ``tol.rank``.
    Its eta leak is gated at 1e3 times ``tol.acms_exact``."""
    basis = gram_schmidt(p.projector.mat, p.g, rank_tol=tol.rank)
    rank = basis.shape[1]
    if rank != p.horizontal_dim:
        raise DegenerateInputError(
            f"horizontal space has numerical rank {rank}, expected {p.horizontal_dim}"
        )
    worst_eta = float(np.max(np.abs(p.eta @ basis)))
    if worst_eta > 1e3 * max(tol.acms_exact, 1e-12):
        raise DegenerateInputError(
            f"horizontal basis leaks through eta (max |eta(b)| = {worst_eta:.3e})"
        )
    return basis


def check_eta_parallel(nabla_phi_table: np.ndarray, p: AcmsPoint, basis: np.ndarray,
                       *, tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Vanishing of g((nabla_X phi) Y, Z) over X, Y, Z in the horizontal
    ``basis`` stack, gated at ``tol.acms_exact``.

    ``nabla_phi_table[i, j, k]`` holds the j-component of (nabla_{e_i} phi) e_k
    in the coordinate frame.
    """
    table = np.asarray(nabla_phi_table, dtype=float)
    if table.shape != (p.dim,) * 3:
        raise ShapeError(f"nabla_phi table must have shape {(p.dim,) * 3}")
    lowered = np.einsum("ijk,jl->ilk", table, p.g.gram)  # g((nabla_i phi) e_k, e_l)
    # one basis index at a time: three O(d^4) products, not one O(d^6) loop
    resid = np.einsum("alk,lb->abk", np.einsum("ia,ilk->alk", basis, lowered), basis) @ basis
    worst = float(np.max(np.abs(resid)))
    return VerificationReport.of([Check.below("eta_parallel", worst, tol.acms_exact)])


def dimension_consistency_gate(dim: int, star_passes: bool, contact_passes: bool) -> Check:
    """Structures that anticommute with their shape operator and are contact
    can only live in dimensions congruent to 1 mod 4."""
    if star_passes and contact_passes:
        return Check.flag("dim_mod4_gate", dim % 4 == 1)
    return Check.flag("dim_mod4_gate", True)
