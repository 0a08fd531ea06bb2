"""Metric-aware linear algebra on a finite-dimensional real vector space.

Operators are plain ``(d, d)`` component matrices relative to an arbitrary
frame; a Gram matrix carries the inner product, so nothing here assumes the
frame is orthonormal. Adjoints, skew parts, eigendecompositions and
orthonormal bases all take the metric explicitly.

A stack of vectors is a ``(dim, n)`` array holding one vector per column, so
an operator matrix applies to the whole stack as ``mat @ stack`` and the
formulas for one vector read the same for a stack.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, PreconditionError, ShapeError

_METRIC_PD = 1e-10       # smallest admissible gram eigenvalue
_EIGEN_RESIDUAL = 1e-8   # |mat v - lambda v| after eigensolve


def _as_matrix(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {out.shape}")
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


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


@dataclass(frozen=True)
class Metric:
    """Positive definite inner product given by its Gram matrix in the frame."""

    gram: np.ndarray

    def __post_init__(self):
        g = _as_matrix(self.gram, "gram")
        check_gram(g)
        object.__setattr__(self, "gram", _frozen(g))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @classmethod
    def euclidean(cls, dim: int) -> "Metric":
        return cls(np.eye(dim))

    @cached_property
    def chol_upper(self) -> np.ndarray:
        # gram = R^T R; mapping v -> R v takes the frame to an orthonormal one
        return _frozen(np.linalg.cholesky(self.gram).T)

    def inner(self, x, y) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def inners(self, x, y) -> np.ndarray:
        """g(x, y) column by column for stacks x and y (a scalar for two
        vectors)."""
        return np.sum(np.asarray(x) * (self.gram @ y), axis=0)

    def norms(self, x) -> np.ndarray:
        """g-norm of each column of a stack (a scalar for one vector)."""
        return np.sqrt(np.maximum(self.inners(x, x), 0.0))

    def unit(self, x) -> np.ndarray:
        n = self.norm(x)
        if n == 0.0:
            raise DegenerateInputError("cannot normalize the zero vector")
        return np.asarray(x, dtype=float) / n

    def to_orthonormal(self, mat: np.ndarray) -> np.ndarray:
        """Conjugate an operator matrix into orthonormal coordinates."""
        r = self.chol_upper
        return r @ mat @ np.linalg.inv(r)


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


def symmetric_eigen(mat, g: Metric, *, tol: float):
    """Eigendecomposition of a g-self-adjoint operator matrix, whose asymmetry
    residual must stay below ``tol`` relative to its size.

    Returns ``(vals, vecs)``: the eigenvalues ascending with stable index
    tie-break, and the g-orthonormal eigenvectors as the columns of a stack
    in the same order. Every pair is checked for ``|mat v - lambda v|`` at
    once; the first failing pair in that order raises.
    """
    _check_same_dim(g.gram, mat)
    gm = g.gram @ mat
    asym = float(np.max(np.abs(gm - gm.T)))
    if asym > tol * (1.0 + float(np.max(np.abs(gm)))):
        raise PreconditionError(
            f"operator is not g-self-adjoint (asymmetry residual {asym:.3e})"
        )
    # generalized problem gm v = lam G v, reduced through G = L L^T to the
    # standard symmetric problem for L^-1 gm L^-T, with v = L^-T w
    l_inv_t = np.linalg.inv(g.chol_upper)
    vals, w = np.linalg.eigh(l_inv_t.T @ (0.5 * (gm + gm.T)) @ l_inv_t)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], (l_inv_t @ w)[:, order]
    resid = np.max(np.abs(mat @ vecs - vecs * vals), axis=0)
    scale = 1.0 + float(np.max(np.abs(mat)))
    bad = np.flatnonzero(resid > _EIGEN_RESIDUAL * (1.0 + np.abs(vals)) * scale)
    if bad.size:
        n = bad[0]
        raise DegenerateInputError(
            f"eigenpair residual {resid[n]:.3e} exceeds tolerance for eigenvalue {vals[n]:.6g}"
        )
    return vals, vecs


def project_out(v, basis, g: Metric) -> np.ndarray:
    """Remove from v (one vector or a stack) its g-projection onto the span of
    a stack of g-orthonormal columns, twice to fight cancellation."""
    out = np.array(v, dtype=float)
    basis = np.asarray(basis, dtype=float)
    for _ in range(2):
        out = out - basis @ (basis.T @ (g.gram @ out))
    return out


def gram_schmidt(vectors, g: Metric, *, rank_tol: float,
                 require_all: bool = False) -> np.ndarray:
    """Gram-Schmidt over the columns of a stack, pivoting by largest
    remaining norm.

    Returns a stack of g-orthonormal columns spanning the input span. Columns
    that project below ``rank_tol`` are dropped, or raise when ``require_all``.
    """
    pool = np.array(vectors, dtype=float)
    out = pool[:, :0]
    while pool.shape[1]:
        residuals = project_out(pool, out, g)
        norms = g.norms(residuals)
        best = int(np.argmax(norms))
        if norms[best] < rank_tol:
            if require_all:
                raise DegenerateInputError(
                    f"input vectors are linearly dependent (residual norm {norms[best]:.3e})"
                )
            break
        out = np.column_stack([out, residuals[:, best] / norms[best]])
        pool = np.delete(pool, best, axis=1)
    return out


def operator_in_basis(mat, basis, g: Metric) -> np.ndarray:
    """Component matrix of an operator compressed to the span of a stack of
    g-orthonormal columns."""
    basis = np.asarray(basis, dtype=float)
    return basis.T @ g.gram @ mat @ basis


def g_singular_values(mat, g: Metric) -> np.ndarray:
    """Singular values of an operator matrix with respect to the g inner
    product."""
    _check_same_dim(g.gram, mat)
    return np.linalg.svd(g.to_orthonormal(mat), compute_uv=False)
