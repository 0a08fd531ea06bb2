"""Pointwise almost contact metric structures and their derived operators.

A structure is the tuple (phi, xi, eta, g) of plain arrays on an
odd-dimensional tangent space: phi a ``(dim, dim)`` matrix, xi and eta
``(dim,)`` vectors, and g a Gram matrix that every function here takes as
an array, as `linalg` takes ``(mat, gram)``.
Every function here takes one point or a stack with the same leading point
axes on all its arrays: `validate_acms` reports the worst point of each
identity, and the horizontal (contact) frame and the eta-parallel check
give one result per point.

The horizontal frame is one ``(dim, dim - 1)`` column stack of g-orthonormal
vectors (see `linalg`), built from the horizontal projector; over a stack,
one per point. The checks that need it take it as an argument, so a caller
builds it once and shares it between the eta-parallel and contact checks
(``curvature.PointGeometry`` does, along with the projector).

`validate_acms` and `horizontal_basis` read their thresholds from the
``Tolerances`` they are given; `check_eta_parallel` returns its residual
for the caller to gate.

Residual conventions: operator residuals use the entrywise max-norm of the
frame matrix, vector residuals use the g-norm, scalar residuals the absolute
value.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateInputError, ShapeError
from .linalg import check_gram, g_singular_values, gram_schmidt, in_frames, max_entry
from .report import Check, VerificationReport


def dimension_error(dim: int) -> ShapeError:
    """The error for a dimension that carries no almost contact metric
    structure."""
    return ShapeError(f"structure dimension must be odd and at least 3, got {dim}")


def horizontal_projector(xi, eta) -> np.ndarray:
    """Matrix of the projection onto ker eta along xi, over any leading axes
    of xi and eta."""
    return np.eye(xi.shape[-1]) - xi[..., :, None] * eta[..., None, :]


def validate_acms(phi, xi, eta, gram, *,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Check the defining identities of an almost contact metric structure
    against ``tol.acms_exact``, at one point or at every point of a stack
    with the same leading axes on all four arrays.

    One report entry per identity, holding the worst residual over the
    points; operator equations use the entrywise max-norm. rank_phi records
    how many g-singular values of phi sit below the tolerance, the most at
    any point, and passes only when every point has exactly one. Broken
    structures are reported, not rejected; ShapeError is raised for an even
    dimension or one below 3, disagreeing shapes and an empty stack, and
    DegenerateInputError unless every Gram matrix is positive definite.
    """
    phi, xi, eta, gram = (np.asarray(a, dtype=float) for a in (phi, xi, eta, gram))
    dim = gram.shape[-1] if gram.ndim else 0
    if dim < 3 or dim % 2 == 0:
        raise dimension_error(dim)
    lead = gram.shape[:-2]
    for name, arr, shape in (("gram", gram, (dim, dim)), ("phi", phi, (dim, dim)),
                             ("xi", xi, (dim,)), ("eta", eta, (dim,))):
        if arr.shape != lead + shape:
            raise ShapeError(f"{name} has shape {arr.shape}, expected {lead + shape}")
    if gram.size == 0:
        raise ShapeError(f"no points in a stack of shape {gram.shape}")
    check_gram(gram)
    col, row = xi[..., :, None], eta[..., None, :]  # xi and eta as matrices
    eye = np.eye(dim)

    phi_sq = np.max(np.abs(phi @ phi + eye - col * row))
    eta_xi = np.max(np.abs(row @ col - 1.0))
    compat = np.max(np.abs(phi.swapaxes(-1, -2) @ gram @ phi - gram
                           + eta[..., :, None] * row))
    phi_col = phi @ col
    phi_xi = np.max(np.sqrt(np.maximum(phi_col.swapaxes(-1, -2) @ gram @ phi_col, 0.0)))
    eta_phi = np.max(np.abs(row @ phi))
    eta_flat = np.max(np.abs(row - (gram @ col).swapaxes(-1, -2)))

    gate = tol.acms_exact
    null_counts = np.sum(g_singular_values(phi, gram) < gate, axis=-1)

    checks = [
        Check.below("phi_squared", phi_sq, gate),
        Check.below("eta_xi", eta_xi, gate),
        Check.below("metric_compatibility", compat, gate),
        Check.below("phi_xi", phi_xi, gate),
        Check.below("eta_phi", eta_phi, gate),
        Check("rank_phi", float(np.max(null_counts)), 1.0, bool(np.all(null_counts == 1))),
        Check.below("eta_flat_xi", eta_flat, gate),
    ]
    return VerificationReport.of(checks)


def horizontal_basis(projector, eta, gram, *,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """g-orthonormal basis of ker eta as a ``(dim, dim - 1)`` column stack:
    the coordinate frame projected along xi (the columns of the horizontal
    ``projector``), orthonormalized with pivoting that drops columns below
    ``tol.rank``. Its eta leak is gated at 1e3 times ``tol.acms_exact``.

    Over leading axes shared by all three arrays, one basis per row; the
    first row (in C order) whose rank is not dim - 1 or whose basis leaks
    raises the error that row alone raises. ShapeError unless gram and
    projector are ``(..., dim, dim)`` and eta ``(..., dim)``."""
    lead, dim = np.shape(gram)[:-2], np.shape(gram)[-1]
    want = (lead + (dim, dim), lead + (dim, dim), lead + (dim,))
    if (np.shape(gram), np.shape(projector), np.shape(eta)) != want:
        raise ShapeError(f"gram, projector and eta must have shapes {want}")
    basis = gram_schmidt(projector, gram, rank_tol=tol.rank)
    # a row of lower rank than the widest holds zero columns past its own
    rank = np.count_nonzero(np.any(basis != 0.0, axis=-2), axis=-1)
    leak = np.max(np.abs(eta[..., None, :] @ basis), axis=(-2, -1), initial=0.0)
    bad = (rank != dim - 1) | (leak > 1e3 * max(tol.acms_exact, 1e-12))
    if bad.any():
        n = np.flatnonzero(bad)[0]
        if np.ravel(rank)[n] != dim - 1:
            raise DegenerateInputError(
                f"horizontal space has numerical rank {np.ravel(rank)[n]}, expected {dim - 1}"
            )
        raise DegenerateInputError(
            f"horizontal basis leaks through eta (max |eta(b)| = {np.ravel(leak)[n]:.3e})"
        )
    return basis


def check_eta_parallel(nabla_phi_table: np.ndarray, gram,
                       basis: np.ndarray) -> float | np.ndarray:
    """Worst |g((nabla_X phi) Y, Z)| over X, Y, Z in the horizontal ``basis``
    stack: the residual of eta-parallel phi, which callers gate. A float at
    one point; over leading axes shared by the three arrays, one residual
    per row.

    ``nabla_phi_table[..., i, j, k]`` holds the j-component of
    (nabla_{e_i} phi) e_k in the coordinate frame.
    """
    table = np.asarray(nabla_phi_table, dtype=float)
    lead, dim = np.shape(gram)[:-2], np.shape(gram)[-1]
    if table.shape != lead + (dim,) * 3:
        raise ShapeError(f"nabla_phi table must have shape {lead + (dim,) * 3}")
    # resid[..., a, b, c] = g((nabla_{b_a} phi) b_c, b_b), one basis index
    # at a time: three batched matmuls, not one O(d^6) loop
    return max_entry(in_frames(table, basis, gram @ basis, basis), 3)


def dimension_consistency_gate(dim: int, star_passes: bool, contact_passes: bool) -> Check:
    """Structures that anticommute with their shape operator and are contact
    can only live in dimensions congruent to 1 mod 4."""
    if star_passes and contact_passes:
        return Check.flag("dim_mod4_gate", dim % 4 == 1)
    return Check.flag("dim_mod4_gate", True)
