"""Coordinate charts whose structure tensors are symbolic expressions.

A chart holds one expression per tensor component (metric, endomorphism
field, Reeb field, contact form) in variables x1..xd, plus a derivative
mode. Evaluation produces plain numpy arrays at a point; first and second
derivatives come either exactly, from the jets of the base grids' array
programs, or from central differences of the base grids, selected by the
mode. This module is the only one that knows the finite-difference
scheme. Everything downstream (Christoffel symbols, covariant derivatives,
curvature assembly) consumes the arrays produced here, in either mode.

All grids go through one stack reader, `Chart._grids_at`, which runs a
base grid's array program (`exprs.array_program`, built on first use) over
all the rows of a stack of points at once, up to the derivative order
asked for: the values, and in symbolic mode the first and second
derivatives, from one pass. The same pass flags the rows that hold a
non-finite entry, and the reader walks only those, in order. A flagged
row's values are walked with `exprs.evaluate` in component order to name
a failing value in an `EvalError`; if they walk, its first non-finite
derivative names the base component, the direction and the point ("d
g[1][2] / d x3"), with the base component's text as ``where``; if it has
none, the row reads as its IEEE results. The first flagged row that fails
ends the read, which returns the rows before it and its error. In
finite-difference mode a first derivative reads the base grid at every
point, then at every point's stencil (`stencil_points`) at the chart's
step, as one stack, and keeps the points' values with the difference; a
second derivative reads the first derivatives, the same way, at every
point, then at every point's stencil at ``FD_SECOND_STEP``, and
differences those. So a failing point fails before any stencil row, an
outer stencil row before any inner one, and a failed fd read returns the
values of the points before the first failing point. A difference that
overflows fails at its point, with the message a symbolic derivative's
non-finite entry gives.

A chart's expressions are one DAG. `chart_from_text` parses every
component through one node table, so equal subtrees anywhere in the chart
are one object, and each distinct right-hand side, and each distinct
parenthesized group, such as S^5's ``(1 - (x1^2 + ... + x5^2))`` in
almost every entry, is parsed once per chart and read from the table
wherever it repeats. A chart builds one
array program per base grid, g, phi, xi and eta, and no derivative grid of
its own. The check that a chart uses only x1..xd visits each distinct node
once, and walks the components one by one only when it fails, to name the
first offender. `chart_from_text` keeps the last ``_CACHED_CHARTS``
charts by text and name. That pays only in a process that loads the same
chart text more than once (a library caller running several commands on
one chart, a test session, a benchmark worker): there a chart file loaded
again with unchanged bytes, or a gallery chart, is the same `Chart`
object, its array programs already built. A command run as its own
process loads its chart once and gains nothing. Edited bytes are another
key, and a text that fails to parse is not kept, so it raises the same
`ChartFormatError` on every call.

`curvature.PointGeometry` is the only reader of a chart: it reads each base
grid once over its point or its stack of rows, with the derivatives its
command's tensors take. The five one-point readers (`Chart.g_at`,
`phi_at`, `dg_at`, `ddg_at`, `dphi_at`) wrap the same reader and are kept
for the benchmark's tracer, which times them by name. Christoffel symbols and their
derivatives, the covariant derivatives and the exterior derivative of the
contact form are formulas over the arrays it reads.

Chart files are line oriented: ``dim = 5`` (at most ``MAX_CHART_DIM``), an
optional ``derivative_mode = symbolic | fd[:<step>]``, optional
per-coordinate ``domain[i] = <lo> <hi>`` bounds, and component lines
``g[i][j] = <expr>``, ``phi[i][j] = <expr>``, ``xi[i] = <expr>``,
``eta[i] = <expr>`` with 1-based indices. Omitted components are zero; ``#``
starts a comment.
"""
from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import ChartFormatError, ShapeError
from .exprs import (EvalError, Expr, Num, ParseError, array_program, evaluate,
                    free_variables, parse, to_text)
from .linalg import first_nonfinite

_ZERO = Num(0.0)
_DEFAULT_FD_STEP = 1e-5
FD_SECOND_STEP = 1e-4  # outer step of an fd chart's second derivatives
_SAMPLE_SHRINK = 0.9   # sampling box half-width as a fraction of the domain's
#: Largest ``dim`` a chart file may declare: the paper's dimensions are 4n + 1,
#: and a chart holds dim^2 expressions per matrix grid.
MAX_CHART_DIM = 64
#: Charts `chart_from_text` keeps: the benchmark's four Darboux charts, the
#: three gallery charts and a test session's churn fit.
_CACHED_CHARTS = 16


@dataclass(frozen=True)
class DerivativeMode:
    """How chart derivatives are taken: exact symbolic trees or central
    finite differences with a fixed step."""

    kind: str
    step: float | None = None

    def __post_init__(self):
        if self.kind not in ("symbolic", "fd"):
            raise ChartFormatError(f"unknown derivative mode {self.kind!r}")
        if self.kind == "fd":
            if self.step is None:
                object.__setattr__(self, "step", _DEFAULT_FD_STEP)
            elif not 0.0 < self.step < math.inf:  # NaN fails both comparisons
                raise ChartFormatError(
                    f"finite-difference step must be finite and positive, got {self.step}")
        elif self.step is not None:
            raise ChartFormatError("symbolic mode takes no step")

    @classmethod
    def parse(cls, text: str) -> "DerivativeMode":
        text = text.strip()
        if text == "symbolic":
            return cls("symbolic")
        if text == "fd":
            return cls("fd")
        if text.startswith("fd:"):
            try:
                step = float(text[3:])
            except ValueError as exc:
                raise ChartFormatError(f"bad finite-difference step in {text!r}") from exc
            return cls("fd", step)
        raise ChartFormatError(f"unknown derivative mode {text!r}")

    def format(self) -> str:
        if self.kind == "symbolic":
            return "symbolic"
        return f"fd:{self.step!r}"


SYMBOLIC = DerivativeMode("symbolic")


def _grid2(entries, dim: int) -> tuple[tuple[Expr, ...], ...]:
    rows = tuple(tuple(row) for row in entries)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ShapeError(f"expected a {dim}x{dim} expression grid")
    return rows


def _grid1(entries, dim: int) -> tuple[Expr, ...]:
    row = tuple(entries)
    if len(row) != dim:
        raise ShapeError(f"expected {dim} expressions")
    return row


@dataclass(frozen=True)
class Chart:
    """One coordinate chart: expression grids plus evaluation machinery."""

    dim: int
    g: tuple[tuple[Expr, ...], ...]
    phi: tuple[tuple[Expr, ...], ...]
    xi: tuple[Expr, ...]
    eta: tuple[Expr, ...]
    mode: DerivativeMode = SYMBOLIC
    domain: tuple[tuple[float, float], ...] = ()
    name: str = ""
    # the base grids by name ("g", "phi"), each built on first use
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"dimension must be positive, got {self.dim}")
        object.__setattr__(self, "g", _grid2(self.g, self.dim))
        object.__setattr__(self, "phi", _grid2(self.phi, self.dim))
        object.__setattr__(self, "xi", _grid1(self.xi, self.dim))
        object.__setattr__(self, "eta", _grid1(self.eta, self.dim))
        if not self.domain:
            object.__setattr__(self, "domain", tuple((-1.0, 1.0) for _ in range(self.dim)))
        else:
            dom = tuple((float(lo), float(hi)) for lo, hi in self.domain)
            if len(dom) != self.dim:
                raise ShapeError(f"domain has {len(dom)} intervals for dimension {self.dim}")
            for k, (lo, hi) in enumerate(dom):
                if not lo < hi:
                    raise ChartFormatError(f"domain[{k + 1}] is empty: [{lo}, {hi}]")
                if not _finite_interval(lo, hi):
                    raise ChartFormatError(f"domain[{k + 1}] = [{lo}, {hi}] {_TOO_WIDE}")
            object.__setattr__(self, "domain", dom)
        if max(free_variables(*self._all_exprs()), default=0) > self.dim:
            for expr in self._all_exprs():  # name the first offender
                extra = {i for i in free_variables(expr) if i > self.dim}
                if extra:
                    names = ", ".join(f"x{i}" for i in sorted(extra))
                    raise ChartFormatError(
                        f"expression {to_text(expr)!r} uses variables outside the chart: {names}"
                    )

    def _all_exprs(self):
        for row in self.g:
            yield from row
        for row in self.phi:
            yield from row
        yield from self.xi
        yield from self.eta

    def with_mode(self, mode: DerivativeMode) -> "Chart":
        return replace(self, mode=mode)

    # -- point evaluation ---------------------------------------------------

    def _point(self, y) -> np.ndarray:
        y = np.asarray(y, float)
        if y.shape != (self.dim,):
            raise ShapeError(f"point has shape {y.shape}, expected ({self.dim},)")
        return y

    def _grid(self, name: str) -> "_Grid":
        """The base grid ``name`` ("g", "phi", "xi", "eta") with its array
        program, built on first use and kept for the life of the chart."""
        grid = self._grids.get(name)
        if grid is None:
            grid = self._grids[name] = _Grid.base(name, getattr(self, name), self.dim)
        return grid

    def _grid_at(self, name: str, y) -> np.ndarray:
        """Evaluate grid ``name`` at ``y``: "g", "phi", "xi", "eta", or one of
        them prefixed by a "d" per derivative order."""
        base = name.lstrip("d")
        order = len(name) - len(base)
        jet, error = self._grids_at(base, self._point(y)[None], order)
        if error is not None:
            raise error
        return jet[order][0]

    def _grids_at(self, name: str, points: np.ndarray,
                  order: int) -> tuple[list[np.ndarray], EvalError | None]:
        """The base grid ``name`` and its derivatives up to ``order`` at the
        rows of the ``(n, dim)`` stack ``points``, and None: the values
        ``(n, *shape)``, first derivatives ``(n, dim, *shape)`` and second
        derivatives ``(n, dim, dim, *shape)`` (index k of a derivative is
        x_k). A symbolic chart reads them in one pass of the grid's jet
        program, and walks only the rows the pass flags, in order: the
        first that fails (`_Grid.row_error`) ends the read, which returns
        the jet of the rows before it and that row's `EvalError` instead.
        A finite-difference chart reads the points followed by the 2d
        `stencil_points` of every point, one order lower, as one stack, and
        takes the central difference of the stencil rows' top derivative:
        the values at the chart's step, the first derivatives at
        ``FD_SECOND_STEP``. The recursion ends in one pass over the points
        and every row of their nested stencils: the points first, then the
        outer stencil rows, then the inner ones. So the first failing row
        is a point whenever one fails, and a failed fd read returns only
        the values of the points before the first failing point, with the
        error. A difference that is not finite, though its rows read
        finite, fails at its point too, named as a symbolic derivative is
        (`_Grid.nonfinite_error`)."""
        if order and self.mode.kind == "fd":
            h, n = (self.mode.step, FD_SECOND_STEP)[order - 1], len(points)
            stencils = stencil_points(points, h).reshape(-1, self.dim)
            jet, error = self._grids_at(name, np.concatenate([points, stencils]), order - 1)
            if error is not None:
                return [jet[0][:n]], error
            top = jet[-1][n:].reshape((n, 2 * self.dim) + jet[-1].shape[1:])
            # a difference of finite values can overflow: named, not warned
            with np.errstate(over="ignore"):
                diff = stencil_difference(top, h, 1)
            bad = first_nonfinite(diff)
            if bad is not None:
                p = bad[0]
                return [jet[0][:p]], self._grid(name).nonfinite_error(
                    points[p].tolist(), diff[p], order)
            return [part[:n] for part in jet] + [diff], None
        grid = self._grid(name)
        jet, flagged = grid.program(points, order)
        for r in flagged:
            error = grid.row_error(points[r], [part[r] for part in jet])
            if error is not None:
                return grid.shaped([part[:r] for part in jet]), error
        return grid.shaped(jet), None

    def g_at(self, y) -> np.ndarray:
        return self._grid_at("g", y)

    def phi_at(self, y) -> np.ndarray:
        return self._grid_at("phi", y)

    # -- derivative grids ---------------------------------------------------

    def dg_at(self, y) -> np.ndarray:
        """dg[k, i, j] is the x_k derivative of g[i][j]."""
        return self._grid_at("dg", y)

    def ddg_at(self, y) -> np.ndarray:
        """ddg[m, k, i, j] is the second derivative of g[i][j] along x_m, x_k:
        exact in symbolic mode, in fd mode the central difference along x_m,
        at ``FD_SECOND_STEP``, of the fd first derivatives along x_k."""
        return self._grid_at("ddg", y)

    def dphi_at(self, y) -> np.ndarray:
        """dphi[k, i, j] is the x_k derivative of phi[i][j]."""
        return self._grid_at("dphi", y)


@dataclass(frozen=True)
class _Grid:
    """The base chart grid ``name`` ("g", "xi") as a flat tuple of component
    expressions in C order, with the jet program (`exprs.array_program`)
    that evaluates them and their derivatives over a stack of points."""

    name: str
    shape: tuple[int, ...]
    exprs: tuple[Expr, ...]
    program: Callable[..., list[np.ndarray]]

    @classmethod
    def base(cls, name: str, entries, dim: int) -> "_Grid":
        shape = (dim, dim) if name in ("g", "phi") else (dim,)
        exprs = _components(name, entries, dim)[1]
        return cls(name, shape, tuple(exprs), array_program(exprs))

    def shaped(self, jet: list[np.ndarray]) -> list[np.ndarray]:
        """A program's jet with each component axis unflattened to the
        grid's shape."""
        return [part.reshape(part.shape[:-1] + self.shape) for part in jet]

    def label(self, n: int, order: int = 0) -> str:
        """Label in errors of entry ``n`` of the flat derivative of ``order``:
        "g[1][2]", "d g[1][2] / d x3", "dd g[1][2] / d x3 d x4" (x4 the
        leading index)."""
        index = np.unravel_index(n, (self.shape[0],) * order + self.shape)
        label = self.name + "".join(f"[{i + 1}]" for i in index[order:])
        wrt = " ".join(f"d x{k + 1}" for k in index[order - 1::-1])
        return f"{'d' * order} {label} / {wrt}" if order else label

    def row_error(self, y: np.ndarray, jet: list[np.ndarray]) -> EvalError | None:
        """The `EvalError` naming the first failing entry of the one point
        ``y``, whose row of a program's jet is ``jet``, or None when the row
        reads as its IEEE results. The components' values are walked with
        the tree-walker in order: the first that raises, or else the first
        that is not finite, fails. If none does, the first non-finite
        derivative fails, first derivatives before second, each in C order,
        with the base component's text as ``where``."""
        values = y.tolist()
        row: list[float] = []
        try:
            for e in self.exprs:
                row.append(evaluate(e, values))
        except EvalError as raised:
            return EvalError(f"{self.label(len(row))} at point {values}: {raised.message}",
                             raised.where)
        for k, part in enumerate([np.array(row), *jet[1:]]):
            error = self.nonfinite_error(values, part, k)
            if error is not None:
                return error
        return None

    def nonfinite_error(self, values: list[float], part: np.ndarray,
                        order: int) -> EvalError | None:
        """The `EvalError` naming the first non-finite entry, in C order, of
        ``part``, the derivative of ``order`` at the point ``values``, with
        the base component's text as ``where``; None when it has none."""
        bad = np.flatnonzero(~np.isfinite(part))
        if not bad.size:
            return None
        n = int(bad[0])
        return EvalError(f"{self.label(n, order)} at point {values}: "
                         f"non-finite value {float(part.flat[n])!r}",
                         to_text(self.exprs[n % len(self.exprs)]))


def _components(name: str, entries, dim: int) -> tuple[list[str], list[Expr]]:
    """Labels ("g[1][2]", "xi[3]") and expressions of the components of the
    chart grid ``name`` in C order."""
    if name in ("g", "phi"):
        index = [(i, j) for i in range(dim) for j in range(dim)]
        return ([f"{name}[{i + 1}][{j + 1}]" for i, j in index],
                [entries[i][j] for i, j in index])
    return [f"{name}[{i + 1}]" for i in range(dim)], list(entries)


# ---------------------------------------------------------------------------
# derived pointwise geometry


def stencil_points(y, h: float) -> np.ndarray:
    """The 2d rows y + h e_0, y - h e_0, y + h e_1, y - h e_1, ... at which
    a central difference of step ``h`` evaluates, over any leading axes of
    ``y``."""
    y = np.asarray(y, float)
    offsets = np.repeat(h * np.eye(y.shape[-1]), 2, axis=0)
    offsets[1::2] *= -1.0  # y + (-h) rounds exactly as y - h
    return y[..., None, :] + offsets


def stencil_difference(values, h: float, axis: int) -> np.ndarray:
    """out[..., m, ...] = (values[..., 2m, ...] - values[..., 2m + 1, ...]) / 2h
    along ``axis``, for values taken at `stencil_points` (y, h): the
    derivative along e_m as the index in the stencil's place."""
    values = np.asarray(values)
    lead = (slice(None),) * axis
    plus, minus = values[lead + (slice(0, None, 2),)], values[lead + (slice(1, None, 2),)]
    return (plus - minus) / (2.0 * h)


def _lowered_christoffel_x2(dg) -> np.ndarray:
    """term[..., i, j, l] = dg[..., i, j, l] + dg[..., j, i, l] - dg[..., l, i, j]:
    twice the Christoffel symbols with the upper index lowered to last."""
    swapped = dg.swapaxes(-3, -2)
    return dg + swapped - swapped.swapaxes(-2, -1)


def _upper_first(rows, d: int) -> np.ndarray:
    """rows[..., i*d + j, k] as the table T[..., k, i, j]: the product of a
    lowered table, flattened to rows, with a transposed inverse metric."""
    return np.moveaxis(rows.reshape(rows.shape[:-2] + (d, d, d)), -1, -3)


def christoffel(ginv, dg) -> np.ndarray:
    """Levi-Civita symbols Gam[..., k, i, j], upper index first, from the
    inverse metric ginv[..., k, l] and the metric derivatives dg[..., k, i, j],
    over any leading axes: one matmul per point, without assuming that
    ginv is bit-symmetric."""
    term = _lowered_christoffel_x2(dg)
    d = term.shape[-1]
    return 0.5 * _upper_first(term.reshape(term.shape[:-3] + (d * d, d))
                              @ ginv.swapaxes(-1, -2), d)


def christoffel_derivative(ginv, dg, ddg) -> np.ndarray:
    """dGam[..., m, k, i, j], the x_m derivative of Gam[..., k, i, j], in
    closed form from the inverse metric and the first and second metric
    derivatives dg[..., k, i, j] and ddg[..., m, k, i, j], over any leading
    axes: the product rule through the inverse, as batched matmuls."""
    term = _lowered_christoffel_x2(dg)
    dterm = _lowered_christoffel_x2(ddg)  # ddg's index m rides along
    d = term.shape[-1]
    ginv = ginv[..., None, :, :]  # broadcast along m
    dginv = -(ginv @ dg @ ginv)
    rows = (term.reshape(term.shape[:-3] + (1, d * d, d)) @ dginv.swapaxes(-1, -2)
            + dterm.reshape(dterm.shape[:-3] + (d * d, d)) @ ginv.swapaxes(-1, -2))
    return 0.5 * _upper_first(rows, d)


def nabla_xi(gam, xi, dxi) -> np.ndarray:
    """Matrix of the covariant gradient of the Reeb field from the
    Christoffel symbols, xi and its coordinate derivatives dxi[k, i], over
    any leading axes: column j is the derivative of xi along the j-th
    coordinate direction."""
    return dxi.swapaxes(-1, -2) + (gam @ xi[..., None, :, None])[..., 0]


def nabla_phi(gam, phi, dphi) -> np.ndarray:
    """Table T[..., i, j, k]: the j-th component of (nabla_{e_i} phi)(e_k),
    from the Christoffel symbols, the matrix of phi and its coordinate
    derivatives dphi[..., k, i, j], over any leading axes."""
    turned = gam.swapaxes(-3, -2)  # turned[..., i, j, l] = Gam^j_{il}
    phi = phi[..., None, :, :]
    return dphi + turned @ phi - phi @ turned


def d_eta(deta) -> np.ndarray:
    """Exterior derivative of the contact form with the 1/2 convention, from
    its coordinate derivatives deta[..., k, i], over any leading axes, so
    that d eta agrees with g(nabla xi applied and paired) exactly."""
    return 0.5 * (deta - deta.swapaxes(-1, -2))


def _pfaffian(a: np.ndarray) -> float | np.ndarray:
    """Pfaffian of a real skew matrix by skew LTL^T (Parlett-Reid) elimination
    with partial pivoting: Wimmer, *Algorithm 923: Efficient numerical
    computation of the Pfaffian*, ACM TOMS 38(4), 2012. O(size^3); 0.0 for
    odd sizes. A float for one matrix; over leading axes, one Pfaffian per
    matrix, each pivoting on its own."""
    a = np.array(a, float)
    lead, size = a.shape[:-2], a.shape[-1]
    if size % 2:
        return np.zeros(lead) if lead else 0.0
    a = a.reshape(-1, size, size)
    rows = np.arange(len(a))
    pf = np.ones(len(a))
    dead = np.zeros(len(a), dtype=bool)  # a zero pivot makes the Pfaffian 0.0
    for k in range(0, size - 1, 2):
        p = k + 1 + np.argmax(np.abs(a[:, k + 1:, k]), axis=-1)
        s = rows[p != k + 1]  # move the largest entry of column k under the diagonal
        if s.size:
            a[s, k + 1, k:], a[s, p[s], k:] = a[s, p[s], k:], a[s, k + 1, k:]
            a[s, k:, k + 1], a[s, k:, p[s]] = a[s, k:, p[s]], a[s, k:, k + 1]
            pf[s] = -pf[s]
        dead |= a[:, k + 1, k] == 0.0
        pf *= a[:, k, k + 1]
        tau = a[:, k, k + 2:] / np.where(dead, 1.0, a[:, k, k + 1])[:, None]
        col = a[:, k + 2:, k + 1]
        a[:, k + 2:, k + 2:] += (tau[:, :, None] * col[:, None, :]
                                 - col[:, :, None] * tau[:, None, :])
    pf = np.where(dead, 0.0, pf).reshape(lead)
    return float(pf) if not lead else pf


def contact_volume_coefficient(eta_vec, deta_mat) -> float | np.ndarray:
    """Coordinate coefficient of eta wedge (d eta)^n on the frame, d = 2n + 1.

    With the determinant convention for wedge products (a 1/2^n
    normalization for the n two-form factors) this is n! Pf(M) for the
    bordered (d + 1) x (d + 1) skew matrix M = [[0, eta], [-eta, d eta]],
    where d eta enters through its skew part. For even d, M has odd size
    and the coefficient is 0.0. A float at one point; over leading axes
    shared by eta ``(..., d)`` and d eta ``(..., d, d)``, one per row.
    """
    eta_vec = np.asarray(eta_vec, float)
    deta_mat = np.asarray(deta_mat, float)
    d = eta_vec.shape[-1]
    bordered = np.zeros(eta_vec.shape[:-1] + (d + 1, d + 1))
    bordered[..., 0, 1:] = eta_vec
    bordered[..., 1:, 0] = -eta_vec
    bordered[..., 1:, 1:] = 0.5 * (deta_mat - deta_mat.swapaxes(-1, -2))
    return math.factorial(d // 2) * _pfaffian(bordered)


def _finite_interval(lo: float, hi: float) -> bool:
    """Whether the non-empty interval [lo, hi] has finite bounds, and a
    width and a sum of bounds, which `sample_points` takes, that do not
    overflow."""
    return math.isfinite(hi - lo) and math.isfinite(lo + hi)


_TOO_WIDE = "is unbounded or too wide: its bounds, width and midpoint must be finite"


def sample_points(chart: Chart, count: int, seed: int) -> np.ndarray:
    """Uniform draws from the chart's domain box, shrunk toward its center
    by ``_SAMPLE_SHRINK`` to keep finite-difference stencils inside the
    domain."""
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in chart.domain])
    hi = np.array([b[1] for b in chart.domain])
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * _SAMPLE_SHRINK
    return center + rng.uniform(-1.0, 1.0, (count, chart.dim)) * half


# ---------------------------------------------------------------------------
# file format

_INDEXED2 = re.compile(r"^(g|phi)\[(\d+)\]\[(\d+)\]$")
_INDEXED1 = re.compile(r"^(xi|eta|domain)\[(\d+)\]$")


@lru_cache(maxsize=_CACHED_CHARTS)
def chart_from_text(text: str, *, name: str = "") -> Chart:
    """The chart of the chart-file text ``text``, named ``name``. The same
    text and name give the same `Chart` object while it is among the last
    ``_CACHED_CHARTS`` charts made, so its grids are built once; a text that
    fails raises `ChartFormatError` and is not kept."""
    # one node table, so equal subtrees of all components are one object,
    # and each distinct right-hand side's node under its text
    parsed: dict = {}
    dim = None
    mode = SYMBOLIC
    domain: dict[int, tuple[float, float]] = {}
    fields2: dict[tuple[str, int, int], Expr] = {}
    fields1: dict[tuple[str, int], Expr] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ChartFormatError(f"line {lineno}: expected 'name = value', got {raw.strip()!r}")
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if lhs in seen:
            raise ChartFormatError(f"line {lineno}: duplicate assignment to {lhs}")
        seen.add(lhs)
        if lhs == "dim":
            try:
                dim = int(rhs)
            except ValueError as exc:
                raise ChartFormatError(f"line {lineno}: dim must be an integer") from exc
            if dim < 1:
                raise ChartFormatError(f"line {lineno}: dim must be positive")
            if dim > MAX_CHART_DIM:
                raise ChartFormatError(
                    f"line {lineno}: dim must be at most {MAX_CHART_DIM}, got {dim}")
            continue
        if lhs == "derivative_mode":
            try:
                mode = DerivativeMode.parse(rhs)
            except ChartFormatError as exc:
                raise ChartFormatError(f"line {lineno}: {exc}") from exc
            continue
        if dim is None:
            raise ChartFormatError(f"line {lineno}: dim must be set before {lhs!r}")
        m2 = _INDEXED2.match(lhs)
        m1 = _INDEXED1.match(lhs)
        if m2:
            kind, i, j = m2.group(1), int(m2.group(2)), int(m2.group(3))
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ChartFormatError(f"line {lineno}: index out of range in {lhs} (dim {dim})")
            fields2[(kind, i - 1, j - 1)] = _parse_component(raw, rhs, lineno, parsed)
        elif m1:
            kind, i = m1.group(1), int(m1.group(2))
            if not 1 <= i <= dim:
                raise ChartFormatError(f"line {lineno}: index out of range in {lhs} (dim {dim})")
            if kind == "domain":
                parts = rhs.split()
                if len(parts) != 2:
                    raise ChartFormatError(f"line {lineno}: domain wants '<lo> <hi>'")
                try:
                    lo, hi = float(parts[0]), float(parts[1])
                except ValueError as exc:
                    raise ChartFormatError(f"line {lineno}: bad domain bound") from exc
                if not lo < hi:
                    raise ChartFormatError(f"line {lineno}: empty domain [{lo}, {hi}]")
                if not _finite_interval(lo, hi):
                    raise ChartFormatError(f"line {lineno}: domain [{lo}, {hi}] {_TOO_WIDE}")
                domain[i - 1] = (lo, hi)
            else:
                fields1[(kind, i - 1)] = _parse_component(raw, rhs, lineno, parsed)
        else:
            raise ChartFormatError(f"line {lineno}: unrecognized field {lhs!r}")
    if dim is None:
        raise ChartFormatError("chart file never sets dim")

    def entry2(kind, i, j):
        expr = fields2.get((kind, i, j))
        if expr is None and kind == "g":
            expr = fields2.get((kind, j, i))
        return expr if expr is not None else _ZERO

    g = [[entry2("g", i, j) for j in range(dim)] for i in range(dim)]
    phi = [[fields2.get(("phi", i, j), _ZERO) for j in range(dim)] for i in range(dim)]
    xi = [fields1.get(("xi", i), _ZERO) for i in range(dim)]
    eta = [fields1.get(("eta", i), _ZERO) for i in range(dim)]
    dom = tuple(domain.get(i, (-1.0, 1.0)) for i in range(dim))
    return Chart(dim, tuple(map(tuple, g)), tuple(map(tuple, phi)),
                 tuple(xi), tuple(eta), mode=mode, domain=dom, name=name)


def _parse_component(raw: str, rhs: str, lineno: int, parsed: dict) -> Expr:
    """The node of the right-hand side ``rhs`` of line ``lineno``, parsed
    through the chart's node table ``parsed`` once per distinct text: the
    table holds it under its text, a string key that no node key is."""
    node = parsed.get(rhs)
    if node is not None:
        return node
    try:
        node = parsed[rhs] = parse(rhs, parsed)
        return node
    except ParseError as exc:
        # ``rhs`` is one line, and starts at the first non-blank after the
        # first '=' of ``raw``
        after = raw[raw.index("=") + 1:]
        column = len(raw) - len(after.lstrip()) + exc.column
        raise ChartFormatError(f"line {lineno}, column {column}: {exc.message}") from exc
    except RecursionError as exc:  # the parser descends once per nesting level
        raise ChartFormatError(f"line {lineno}: expression nested too deeply") from exc
    except Exception as exc:
        raise ChartFormatError(f"line {lineno}: {exc}") from exc


def chart_to_text(chart: Chart) -> str:
    lines = [f"dim = {chart.dim}", f"derivative_mode = {chart.mode.format()}"]
    for i, (lo, hi) in enumerate(chart.domain):
        if (lo, hi) != (-1.0, 1.0):
            lines.append(f"domain[{i + 1}] = {lo!r} {hi!r}")
    for name in ("g", "phi", "xi", "eta"):
        for label, expr in zip(*_components(name, getattr(chart, name), chart.dim)):
            text = to_text(expr)
            if text != "0":  # an omitted component reads as +0.0; -0.0 prints "-0"
                lines.append(f"{label} = {text}")
    return "\n".join(lines) + "\n"


def load_chart(path, *, name: str | None = None) -> Chart:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")  # a byte-order mark, as some editors save
    except UnicodeDecodeError as exc:
        raise ChartFormatError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
    if name is None:
        name = str(path)
    return chart_from_text(text, name=name)


def save_chart(chart: Chart, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chart_to_text(chart))
