"""Linear algebra on a finite-dimensional real vector space with an inner
product given by its Gram matrix.

Operators are plain ``(d, d)`` component matrices relative to an arbitrary
frame, and the inner product is a plain ``(d, d)`` Gram matrix, so nothing
here assumes the frame is orthonormal. Inner products, norms, adjoints,
skew parts, eigendecompositions, singular values and orthonormal bases all
take the Gram matrix as an argument; `check_gram` is the one check that it
is symmetric and positive definite.

A stack of vectors is a ``(dim, n)`` array holding one vector per column, so
an operator matrix applies to the whole stack as ``mat @ stack`` and the
formulas for one vector read the same for a stack.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, PreconditionError, ShapeError

_METRIC_PD = 1e-10       # smallest admissible gram eigenvalue
_EIGEN_RESIDUAL = 1e-8   # |mat v - lambda v| after eigensolve


def check_gram(gram) -> None:
    """Raise DegenerateInputError unless every Gram matrix ``gram[..., :, :]``
    is symmetric and positive definite; the message describes the first
    failing matrix in C order, symmetry checked before definiteness."""
    g = np.asarray(gram, dtype=float)
    asym = np.abs(g - g.swapaxes(-1, -2)).max(axis=(-2, -1))
    unsym = asym > 1e-10 * (1.0 + np.abs(g).max(axis=(-2, -1)))
    eigmin = np.linalg.eigvalsh(g).min(axis=-1)
    bad = unsym | (eigmin <= _METRIC_PD)
    if not bad.any():
        return
    n = np.flatnonzero(bad)[0]
    if np.ravel(unsym)[n]:
        raise DegenerateInputError(
            f"gram matrix is not symmetric (residual {np.ravel(asym)[n]:.3e})")
    raise DegenerateInputError(
        f"gram matrix is not positive definite (min eigenvalue {np.ravel(eigmin)[n]:.3e})")


def inners(x, y, gram) -> np.ndarray:
    """g(x, y) column by column for stacks x and y of columns on axis -2,
    over any leading axes they share with ``gram``."""
    return (np.asarray(x) * (gram @ y)).sum(axis=-2)


def norms(x, gram) -> np.ndarray:
    """g-norm of each column of a stack, over any leading axes."""
    return np.sqrt(np.maximum(inners(x, x, gram), 0.0))


def _check_same_dim(gram, *mats):
    """Raise ShapeError unless every matrix is square of the Gram matrix's
    size, over any leading axes."""
    d = np.shape(gram)[-1]
    for mat in mats:
        if np.shape(mat)[-2:] != (d, d):
            raise ShapeError(f"operator shape {np.shape(mat)} does not match metric dim {d}")


def adjoint(mat, gram) -> np.ndarray:
    """Matrix of the metric adjoint, g(mat x, y) = g(x, adjoint(mat) y), over
    any leading axes of mat and gram."""
    _check_same_dim(gram, mat)
    mat = np.asarray(mat, dtype=float)
    return np.linalg.solve(gram, mat.swapaxes(-1, -2) @ gram)


def skew_matrix(mat, gram) -> np.ndarray:
    """Skew component 0.5 * (mat - adjoint(mat)) with respect to the Gram
    matrix, over any leading axes of mat and gram."""
    return 0.5 * (mat - adjoint(mat, gram))


def symmetric_eigen(mat, gram, *, tol: float):
    """Eigendecomposition of an operator matrix self-adjoint in the Gram
    matrix ``gram``, whose asymmetry residual must stay below ``tol``
    relative to its size, over any leading axes of mat and gram; each
    slice is solved on its own, as alone.

    Returns ``(vals, vecs)``: each slice's eigenvalues ascending with stable
    index tie-break, and its g-orthonormal eigenvectors as the columns of a
    stack in the same order. The asymmetry is checked for every slice, then
    every pair for ``|mat v - lambda v|``, each at once; the first failing
    slice (and pair) in C order raises.
    """
    _check_same_dim(gram, mat)
    gm = gram @ mat
    asym = np.abs(gm - gm.swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = np.flatnonzero(asym > tol * (1.0 + np.abs(gm).max(axis=(-2, -1))))
    if bad.size:
        raise PreconditionError(
            f"operator is not g-self-adjoint (asymmetry residual {np.ravel(asym)[bad[0]]:.3e})"
        )
    # generalized problem gm v = lam G v, reduced through G = L L^T to the
    # standard symmetric problem for L^-1 gm L^-T, with v = L^-T w
    l_inv_t = np.linalg.inv(np.linalg.cholesky(gram).swapaxes(-1, -2))
    vals, w = np.linalg.eigh(
        l_inv_t.swapaxes(-1, -2) @ (0.5 * (gm + gm.swapaxes(-1, -2))) @ l_inv_t)
    order = np.argsort(vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(l_inv_t @ w, order[..., None, :], axis=-1)
    resid = np.abs(mat @ vecs - vecs * vals[..., None, :]).max(axis=-2)
    scale = 1.0 + np.abs(mat).max(axis=(-2, -1))
    bad = np.flatnonzero(resid > _EIGEN_RESIDUAL * (1.0 + np.abs(vals)) * scale[..., None])
    if bad.size:
        n = bad[0]
        raise DegenerateInputError(
            f"eigenpair residual {np.ravel(resid)[n]:.3e} exceeds tolerance "
            f"for eigenvalue {np.ravel(vals)[n]:.6g}"
        )
    return vals, vecs


def project_out(v, basis, gram) -> np.ndarray:
    """Remove from v (one vector or a stack) its projection onto the span of a
    stack of columns orthonormal in ``gram``, twice to fight cancellation;
    over any leading axes when v is a stack."""
    out = np.array(v, dtype=float)
    basis = np.asarray(basis, dtype=float)
    for _ in range(2):
        out = out - basis @ (basis.swapaxes(-1, -2) @ (gram @ out))
    return out


def gram_schmidt(vectors, gram, *, rank_tol: float,
                 require_all: bool = False) -> np.ndarray:
    """Gram-Schmidt over the columns of a stack in the metric ``gram``,
    pivoting by largest remaining norm, over any leading axes shared by
    ``vectors`` and ``gram``; each slice pivots on its own.

    Returns a stack of g-orthonormal columns spanning the input span. Columns
    that project below ``rank_tol`` are dropped, or raise when ``require_all``
    (for the first such slice in C order). A slice ends at its first dropped
    column: over leading axes the output has as many columns as the largest
    rank, and a slice of lower rank holds zero columns past its own, so each
    slice's leading columns are what the slice alone gives.
    """
    pool = np.array(vectors, dtype=float)
    lead, dim = pool.shape[:-2], pool.shape[-2]
    pool = pool.reshape(-1, dim, pool.shape[-1])  # one leading axis of slices
    gram = np.reshape(gram, (-1, dim, dim))
    slices, axis = np.arange(len(pool)), np.arange(dim)[:, None]
    out = pool[..., :0]
    live = np.ones(len(pool), dtype=bool)
    stop = np.zeros(len(pool))  # the residual norm at which each slice stopped
    while pool.shape[-1]:
        residuals = project_out(pool, out, gram)
        lengths = norms(residuals, gram)
        best = lengths.argmax(axis=-1)
        top = lengths[slices, best]
        ends = live & (top < rank_tol)
        if ends.any():
            stop[ends] = top[ends]
            live &= ~ends
            if not live.any():
                break
        if not live.all():
            top = np.where(live, top, np.inf)  # a slice that has stopped gets a zero column
        col = residuals[slices, :, best] / top[:, None]
        out = np.concatenate([out, col[:, :, None]], axis=-1)
        rest = np.arange(pool.shape[-1] - 1)  # the other columns of each slice, in order
        rest = rest + (rest >= best[:, None])
        pool = pool[slices[:, None, None], axis, rest[:, None, :]]
    if require_all and not live.all():
        raise DegenerateInputError(
            f"input vectors are linearly dependent (residual norm "
            f"{stop[np.flatnonzero(~live)[0]]:.3e})"
        )
    return out.reshape(lead + out.shape[-2:])


def operator_in_basis(mat, basis, gram) -> np.ndarray:
    """Component matrix of an operator compressed to the span of a stack of
    columns orthonormal in ``gram``, over any leading axes."""
    basis = np.asarray(basis, dtype=float)
    return basis.swapaxes(-1, -2) @ gram @ mat @ basis


def max_entry(table, axes: int | None = None) -> float | np.ndarray:
    """Largest |entry| of a tensor, as a float; with ``axes``, of each
    tensor held in the last ``axes`` axes of a stack, one value per leading
    index (a float when there are none)."""
    out = np.max(np.abs(table), axis=None if axes is None else tuple(range(-axes, 0)))
    return float(out) if np.ndim(out) == 0 else out


def g_singular_values(mat, gram) -> np.ndarray:
    """Singular values of an operator matrix with respect to the inner
    product of ``gram``, descending, over any leading axes of mat and gram:
    the plain singular values of the matrix conjugated into orthonormal
    coordinates."""
    _check_same_dim(gram, mat)
    chol_upper = np.linalg.cholesky(gram).swapaxes(-1, -2)  # gram = R^T R
    return np.linalg.svd(chol_upper @ mat @ np.linalg.inv(chol_upper), compute_uv=False)
