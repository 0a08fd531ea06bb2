"""Curvature assembly and the pointwise identity suites.

The Riemann tensor of a chart comes from its Christoffel symbols
differentiated in closed form, from the first and second metric
derivatives the chart gives: exact ones on a symbolic chart, nested
central differences on an fd one (see `charts`). On top of the
Levi-Civita data this module builds the modified connection adapted to
the Reeb direction, its curvature (computed two independent ways: its
connection differentiated by the product rule, against a closed
formula), and the residual suites that confront curvature with the
structure tensors: the commutation defect of curvature against the
endomorphism field, its factorization through the horizontal skew
operator, and the reconstruction of curvature from first derivatives of
the structure on nearly cosymplectic charts.

``PointGeometry`` is the only reader of a chart. It holds points of any
leading shape, reads each base grid over all of them, and every tensor it
holds (curvature included) is an array formula over those leading axes.
Both connections are differentiated at the points themselves, in either
mode; this module takes no finite difference of its own. A geometry is
read grid by grid, each base grid once over all of its rows, with every
derivative its command's tensors take (`READ_PLANS`), in the order its
tensors first need them: the first failing row of the first failing read
raises, after the metrics of the g rows read before it are checked. The
pointwise residuals (`killing_residual` through `contact_residuals`) and
the four identity suites take one geometry: a residual gives a float at a
point or one value per point, and a suite reports each check's worst
point. So ``validate``, ``identities`` and ``curvature`` each read their
sample as one geometry, and the suites of ``identities`` share its one
curvature and modified curvature.

Index layout throughout: ``comps[..., i, j, k, l]`` is the i-th component of
``R(e_k, e_l) e_j``.

Each identity is decided on the point's g-orthonormal frame, not on random
vectors: a multilinear identity holds exactly when it holds on every tuple
of frame vectors. The suites write the tensors involved (curvature, the
Reeb gradient, phi, eta, the derivative of phi) in the frame by contracting
one index at a time, and report the largest entry of the difference
tensor, the convention of `structure.check_eta_parallel`. Horizontal
identities take their arguments from the horizontal frame, full-space ones
from `PointGeometry.frame`. Only `horizontal_sectional_values` (the
``curvature`` command) draws random probes, as stacks with one vector per
column (see `linalg`).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .charts import (SYMBOLIC, Chart, DerivativeMode, christoffel,
                     christoffel_derivative, contact_volume_coefficient, d_eta,
                     nabla_phi, nabla_xi)
from .config import DEFAULT_TOLERANCES, MAX_PROBE_DRAWS, PROBES_PER_RESIDUAL, Tolerances
from .errors import DegenerateInputError, ShapeError
from .linalg import adjoint, check_gram, inners, max_entry, norms, operator_in_basis, skew_matrix
from .report import Check, VerificationReport, worst
from .structure import check_eta_parallel, horizontal_basis, horizontal_projector


def _assemble_curvature(gam, dgam) -> np.ndarray:
    """comps[..., i, j, k, l] of a connection with coefficients
    gam[..., k, i, j] and their coordinate derivatives dgam[..., m, k, i, j],
    over any leading axes. The table is returned in C order: the sums would
    inherit the transposed layout of dgam, and einsum sums in layout order,
    so the layout decides the last bits of every contraction of the table."""
    return np.ascontiguousarray(
        np.einsum("...kilj->...ijkl", dgam) - np.einsum("...likj->...ijkl", dgam)
        + np.einsum("...ikm,...mlj->...ijkl", gam, gam)
        - np.einsum("...ilm,...mkj->...ijkl", gam, gam))


def riemann(gam, dgam, gate: float) -> np.ndarray:
    """Levi-Civita curvature ``comps[..., i, j, k, l]`` from the Christoffel
    symbols gam[..., k, i, j] and their derivatives dgam[..., m, k, i, j],
    over any leading axes.

    The antisymmetry and first Bianchi identities are verified at ``gate``,
    each tensor relative to its own largest component; these hold for a
    torsion-free metric connection and catch assembly mistakes early. The
    first failing tensor, in C order, raises.
    """
    comps = _assemble_curvature(gam, dgam)
    scale = 1.0 + max_entry(comps, 4)
    anti = max_entry(comps + np.einsum("...ijlk->...ijkl", comps), 4)
    bianchi = max_entry(comps + np.einsum("...iklj->...ijkl", comps)
                        + np.einsum("...iljk->...ijkl", comps), 4)
    bad = np.flatnonzero((anti > gate * scale) | (bianchi > gate * scale))
    if bad.size:
        anti, bianchi, scale = (np.ravel(v)[bad[0]] for v in (anti, bianchi, scale))
        raise DegenerateInputError(
            f"curvature invariants fail: antisymmetry {anti:.3e}, "
            f"first Bianchi {bianchi:.3e} (gate {gate * scale:.3e})"
        )
    return comps


def _plane_areas(gram, x, y, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """g(x, x) g(y, y) - g(x, y)^2 of each plane span{x, y}, for stacks x
    and y of columns over leading axes, and where that plane is degenerate."""
    xx, yy, xy = (inners(u, v, gram) for u, v in ((x, x), (y, y), (x, y)))
    area = xx * yy - xy * xy
    return area, area <= tol.rank * np.maximum(xx * yy, 1e-30)


def sectional(riem, gram, x, y, *, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Sectional curvature of each plane span{x, y}, one value per column of
    the stacks x and y ``(..., dim, planes)``, over the leading axes they
    share with the curvature table ``riem`` and the Gram matrix; raises
    DegenerateInputError if any plane is degenerate."""
    area, degenerate = _plane_areas(gram, x, y, tol)
    if np.any(degenerate):
        raise DegenerateInputError("sectional curvature of a degenerate plane")
    # R(x, y) y, one index at a time: l by a matmul over the stacked planes, then k, then j
    rxy = np.einsum("...ijkp,...kp->...ijp", riem @ y[..., None, None, :, :], x)
    rxyy = np.einsum("...ijp,...jp->...ip", rxy, y)
    return inners(x, rxyy, gram) / area


# ---------------------------------------------------------------------------
# the modified connection


def _correction(gram, xi, eta, proj, reeb, skew_projected) -> np.ndarray:
    """Difference tensor h[..., k, i, j] between the modified connection and
    Levi-Civita, over any leading axes: the k-th component of the correction
    applied to the frame pair (e_i, e_j). ``reeb`` is the matrix of the Reeb
    gradient and ``skew_projected`` the horizontal part of its g-skew part."""
    ap = reeb @ proj
    pairing = ap.swapaxes(-1, -2) @ gram @ proj
    return (np.einsum("...ij,...k->...kij", pairing, xi)
            - np.einsum("...j,...ki->...kij", eta, ap)
            + 0.5 * np.einsum("...i,...kj->...kij", eta, skew_projected))


def modified_christoffel(chart: Chart, y) -> np.ndarray:
    """Coefficients of the modified connection at a point, or at each row of
    a stack."""
    return PointGeometry(chart, y).modified_gamma


def _correction_derivative(pg: PointGeometry) -> np.ndarray:
    """dh[..., m, k, i, j], the x_m derivative of the `_correction` table of
    a geometry: the product rule through its formula, from the first
    derivatives of g, xi and eta, the Christoffel derivative and the second
    derivatives of xi, as the chart gives them. The index m follows the
    point axes."""
    lead = pg.y.ndim - 1

    def e(v):  # a tensor at the point, broadcast along m
        return np.expand_dims(v, lead)

    # p the projector, a the Reeb gradient, s the projected skew part, ap
    # and the pairing as in `_correction`; a leading d marks an x_m derivative
    g, dg, xi, eta = pg.gram, pg.dg, pg.xi, pg.eta
    dxi, ddxi, deta = pg._read("xi", 1), pg._read("xi", 2), pg._read("eta", 1)
    p, a, skew, s = pg.projector, pg.reeb_gradient, pg.dxi_skew, pg.skew_projected
    dp = -(dxi[..., :, None] * e(eta)[..., None, :] + e(xi)[..., :, None] * deta[..., None, :])
    da = (_t(ddxi) + np.einsum("...mijk,...k->...mij", pg.dgamma, xi)
          + np.einsum("...ijk,...mk->...mij", pg.gamma, dxi))
    dadj = np.linalg.solve(e(g), _t(da) @ e(g) + e(_t(a)) @ dg - dg @ e(adjoint(a, g)))
    dskew = 0.5 * (da - dadj)
    ds = dp @ e(skew @ p) + e(p) @ dskew @ e(p) + e(p @ skew) @ dp
    ap = a @ p
    dap = da @ e(p) + e(a) @ dp
    pairing = _t(ap) @ g @ p
    dpairing = _t(dap) @ e(g @ p) + e(_t(ap)) @ dg @ e(p) + e(_t(ap) @ g) @ dp
    return (np.einsum("...mij,...k->...mkij", dpairing, xi)
            + np.einsum("...ij,...mk->...mkij", pairing, dxi)
            - np.einsum("...mj,...ki->...mkij", deta, ap)
            - np.einsum("...j,...mki->...mkij", eta, dap)
            + 0.5 * np.einsum("...mi,...kj->...mkij", deta, s)
            + 0.5 * np.einsum("...i,...mkj->...mkij", eta, ds))


def modified_riemann(pg: PointGeometry) -> np.ndarray:
    """Curvature of the modified connection at every point of ``pg``: its
    connection differentiated by the product rule, the Christoffel
    derivative plus `_correction_derivative`, from the derivatives the chart
    reads at the points alone (exact on a symbolic chart, central
    differences on an fd one). No Bianchi check here: the modified
    connection carries torsion, so the plain cyclic identity genuinely
    fails.
    """
    return _assemble_curvature(pg.modified_gamma, pg.dgamma + _correction_derivative(pg))


#: The derivative order at which `PointGeometry` reads each base grid when
#: its caller gives no plan: g, phi and xi with their first derivatives,
#: which the Christoffel symbols, nabla phi and the Reeb gradient take, and
#: eta alone, which the projector takes. A tensor that takes more reads
#: its grid again.
_FIRST_ORDER = {"g": 1, "phi": 1, "xi": 1, "eta": 0}

#: Each command's read plan: the order at which its geometry reads each
#: base grid, the highest derivative of that grid any of its tensors
#: takes, so that each grid is read once per geometry, in one pass, on a
#: symbolic and on an fd chart alike. `validate` takes the first
#: derivatives of every grid (Christoffel symbols, nabla phi, the Reeb
#: gradient, d eta); `identities` adds the second derivatives of g and xi,
#: which the curvatures take, and the first of eta, which the correction's
#: derivative takes; `curvature` reads xi and eta for its projector alone.
READ_PLANS = {
    "validate": {"g": 1, "phi": 1, "xi": 1, "eta": 1},
    "identities": {"g": 2, "phi": 1, "xi": 2, "eta": 1},
    "curvature": {"g": 2, "xi": 0, "eta": 0},
}


class PointGeometry:
    """Lazy bundle of every tensor the identity suites need, at each point
    of ``y`` of shape ``(..., dim)``: one point ``(dim,)`` or a sample
    ``(n, dim)``. Every derivative comes from the chart at the points
    themselves; an fd chart's stencils stay inside `Chart._grids_at`.

    Each tensor is computed on first access and cached for the lifetime of
    the object. `_read` is its only chart reader and reads each base grid
    over every point, at the order its command's plan ``reads`` gives (see
    `READ_PLANS`; `_FIRST_ORDER` without one). Every tensor is an array
    formula over the leading axes of ``y``, each point exactly what the
    point alone gives. Everything derived from the Christoffel symbols
    reads the one cached ``gamma``.
    """

    def __init__(self, chart: Chart, y, *, tol: Tolerances = DEFAULT_TOLERANCES,
                 reads: dict[str, int] = _FIRST_ORDER):
        self.chart = chart
        self.y = np.asarray(y, float)
        self.tol = tol
        if self.y.ndim == 0 or self.y.shape[-1] != chart.dim:
            raise ShapeError(f"points have shape {self.y.shape}, expected (..., {chart.dim})")
        self._reads = reads
        self._stack = self.y.reshape(-1, chart.dim)  # the points as rows
        self._parts: dict[tuple[str, int], np.ndarray] = {}

    def _read(self, name: str, order: int) -> np.ndarray:
        """Derivative ``order`` (0 for the values) of base grid ``name`` at
        every point, from the jet `Chart._grids_at` reads over one stack of
        rows. The grid is read up to the order of the plan, so one read
        serves every derivative the command takes, and every order the jet
        holds is kept; an order above the plan reads the grid again, which
        costs a pass but changes no value. A failed read holds the values
        of the points before its first failing point (an fd read stacks
        its points before their stencils), and on the first read of g their
        metrics are checked before the error raises: a failing point, then
        the metrics of the points, come before a failing stencil row."""
        part = self._parts.get((name, order))
        if part is not None:
            return part
        jet, error = self.chart._grids_at(name, self._stack, max(order, self._reads.get(name, 0)))
        if name == "g" and ("g", 0) not in self._parts:
            check_gram(jet[0])
        if error is not None:
            raise error
        lead = self.y.shape[:-1]
        for k, rows in enumerate(jet):
            if rows is not None:
                self._parts[name, k] = rows.reshape(lead + rows.shape[1:])
        return self._parts[name, order]

    @cached_property
    def gram(self) -> np.ndarray:
        return self._read("g", 0)

    @cached_property
    def phi(self) -> np.ndarray:
        return self._read("phi", 0)

    @cached_property
    def xi(self) -> np.ndarray:
        return self._read("xi", 0)

    @cached_property
    def eta(self) -> np.ndarray:
        return self._read("eta", 0)

    @cached_property
    def dg(self) -> np.ndarray:
        """Metric derivatives dg[..., k, i, j] along x_k."""
        return self._read("g", 1)

    @cached_property
    def ginv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Levi-Civita symbols Gam[..., k, i, j], evaluated once."""
        return christoffel(self.ginv, self.dg)

    @cached_property
    def dgamma(self) -> np.ndarray:
        """dGam[..., m, k, i, j], the x_m derivative of Gam[..., k, i, j]:
        the closed form through the metric inverse, from the first and
        second metric derivatives the chart reads."""
        return christoffel_derivative(self.ginv, self.dg, self._read("g", 2))

    @cached_property
    def projector(self) -> np.ndarray:
        return horizontal_projector(self.xi, self.eta)

    @cached_property
    def horizontal_basis(self) -> np.ndarray:
        """g-orthonormal frame of ker eta, one column stack shared by the
        eta-parallel and contact checks and the horizontal identities."""
        return horizontal_basis(self.projector, self.eta, self.gram, tol=self.tol)

    @cached_property
    def frame(self) -> np.ndarray:
        """g-orthonormal frame of the whole space as a ``(dim, dim)`` column
        stack: the horizontal frame, then the g-unit normal of ker eta (xi
        itself when the structure holds). Adapted to the splitting, the
        frame gives residuals that do not depend on the chart's coordinates.
        """
        normal = np.linalg.solve(self.gram, self.eta[..., None])
        norm = np.sqrt(np.maximum(normal.swapaxes(-1, -2) @ self.gram @ normal, 0.0))
        return np.concatenate([self.horizontal_basis, normal / norm], axis=-1)

    @cached_property
    def reeb_gradient(self) -> np.ndarray:
        """Matrix of the covariant gradient of the Reeb field."""
        return nabla_xi(self.gamma, self.xi, self._read("xi", 1))

    @cached_property
    def dxi_skew(self) -> np.ndarray:
        """The g-skew part of the Reeb gradient."""
        return skew_matrix(self.reeb_gradient, self.gram)

    @cached_property
    def skew_projected(self) -> np.ndarray:
        return self.projector @ self.dxi_skew @ self.projector

    @cached_property
    def nphi(self) -> np.ndarray:
        return nabla_phi(self.gamma, self.phi, self._read("phi", 1))

    @cached_property
    def deta(self) -> np.ndarray:
        return d_eta(self._read("eta", 1))

    @cached_property
    def correction(self) -> np.ndarray:
        """Difference tensor h[..., k, i, j] between the modified connection
        and Levi-Civita, as a coordinate table: the k-th component of the
        correction applied to the frame pair (e_i, e_j)."""
        return _correction(self.gram, self.xi, self.eta, self.projector,
                           self.reeb_gradient, self.skew_projected)

    @cached_property
    def modified_gamma(self) -> np.ndarray:
        """Coefficients of the modified connection: the Levi-Civita symbols
        plus the correction table."""
        return self.gamma + self.correction

    @cached_property
    def eta_parallel(self) -> float | np.ndarray:
        """The eta-parallel residual, shared by every check that gates on it."""
        return check_eta_parallel(self.nphi, self.gram, self.horizontal_basis)

    @cached_property
    def riem(self) -> np.ndarray:
        symbolic = self.chart.mode.kind == "symbolic"
        gate = self.tol.curvature_symbolic if symbolic else self.tol.curvature_fd
        return riemann(self.gamma, self.dgamma, gate)

    @cached_property
    def modified_riem(self) -> np.ndarray:
        return modified_riemann(self)

    @cached_property
    def modified_nphi(self) -> np.ndarray:
        """Coordinate table of the modified covariant derivative of phi."""
        h = self.correction
        phi = self.phi
        return (self.nphi + np.einsum("...jil,...lk->...ijk", h, phi)
                - np.einsum("...jl,...lik->...ijk", phi, h))

    @cached_property
    def modified_nphi_reeb(self) -> np.ndarray:
        """Matrix of the modified derivative of phi along the Reeb field."""
        return np.einsum("...i,...ijk->...jk", self.xi, self.modified_nphi)


# ---------------------------------------------------------------------------
# probe generation (the sampled sectional curvatures of `curvature`)


def _accepted_draws(draw, keep, count: int, what: str) -> np.ndarray:
    """``count`` accepted items in the order drawn, stacked along the last
    axis. ``draw(n)`` returns n fresh items stacked that way and ``keep``
    marks the acceptable ones.

    No batch asks for more items than are missing, nor for more than the
    consecutive rejections left under ``MAX_PROBE_DRAWS``, so the random
    stream is consumed exactly as by drawing one item at a time, and
    DegenerateInputError ("no <what> in ... draws") is raised after the
    same draw."""
    parts, missing, run = [], count, 0
    while True:
        items = draw(min(missing, MAX_PROBE_DRAWS - run))
        ok = keep(items)
        parts.append(items[..., ok])
        missing -= int(np.count_nonzero(ok))
        if missing == 0:
            return np.concatenate(parts, axis=-1)
        hits = np.flatnonzero(ok)
        run = run + ok.size if hits.size == 0 else ok.size - 1 - int(hits[-1])
        if run >= MAX_PROBE_DRAWS:
            raise DegenerateInputError(f"no {what} in {MAX_PROBE_DRAWS} draws")


def unit_probes(gram, rng, count: int, *, projector=None) -> np.ndarray:
    """Stack of ``count`` g-unit vectors of the Gram matrix ``gram``, one
    per column, from standard normal draws (projected first when a
    projector is given), redrawing any whose g-norm is at most 1e-6.

    The draws are rows of one ``standard_normal((n, dim))`` matrix, which
    holds the same numbers as n draws of ``standard_normal(dim)``. Raises
    DegenerateInputError after ``MAX_PROBE_DRAWS`` consecutive redraws, as
    on a chart whose horizontal space is trivial."""
    def draw(n):
        v = rng.standard_normal((n, len(gram))).T
        return v if projector is None else projector @ v

    probes = _accepted_draws(draw, lambda v: norms(v, gram) > 1e-6, count,
                             "probe vector with g-norm above 1e-6")
    return probes / norms(probes, gram)


def _probe_tuples(gram, rng, k: int, count: int, *, projector=None) -> np.ndarray:
    """``count`` k-tuples of g-unit probes as a ``(k, dim, count)`` array,
    so that ``x, y = _probe_tuples(...)`` unpacks k stacks; the members of
    each tuple are consecutive in one draw of ``k * count`` from
    `unit_probes`."""
    probes = unit_probes(gram, rng, k * count, projector=projector)
    return probes.reshape(len(gram), count, k).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# tensors in a frame


def _in_frames(table, *mats) -> np.ndarray:
    """``table`` with each axis n contracted against the first axis of
    ``mats[n]``, one axis at a time: out[a, b, ...] = sum over i, j, ... of
    table[i, j, ...] mats[0][i, a] mats[1][j, b] ...; over a stack, every
    array carries the same leading axes, which ride along.

    An argument slot takes a frame (its columns the arguments); a vector
    output slot takes ``gram @ frame``, which gives the output's components
    g(v, f_a) in a g-orthonormal frame, or ``m.T @ gram @ frame`` for the
    components of ``m @ v``."""
    out = np.asarray(table)
    for mat in mats:  # the new axis goes last, so after every axis the order is back
        lead = mat.shape[:-2]
        rest = out.shape[len(lead) + 1:]
        out = (out.reshape(lead + (mat.shape[-2], -1)).swapaxes(-1, -2) @ mat).reshape(
            lead + rest + mat.shape[-1:])
    return out


def _t(mat) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return mat.swapaxes(-1, -2)


def _terms(out: str, *terms) -> np.ndarray:
    """Sum of ``sign * einsum(f"{spec}->{out}", *operands)`` over the terms
    ``(sign, spec, *operands)``: a tensor written index by index, with the
    leading axes of a stack riding along on every operand."""
    return sum(sign * np.einsum(f"...{spec.replace(',', ',...')}->...{out}", *ops)
               for sign, spec, *ops in terms)


# ---------------------------------------------------------------------------
# pointwise residuals


def killing_residual(pg: PointGeometry) -> float | np.ndarray:
    ga = pg.gram @ pg.reeb_gradient
    return max_entry(ga + ga.swapaxes(-1, -2), 2)


def reeb_deta_kernel_residual(pg: PointGeometry) -> float | np.ndarray:
    return max_entry((pg.deta @ pg.xi[..., None])[..., 0], 1)


def nearly_cosymplectic_residual(pg: PointGeometry) -> float | np.ndarray:
    """Residual of the defining symmetry (nabla_v phi) v = 0: the largest
    entry of its polarization (nabla_x phi) z + (nabla_z phi) x in the
    point's frame."""
    f = pg.frame
    n = _in_frames(pg.nphi, f, pg.gram @ f, f)  # n[..., x, a, z]: (nabla_x phi) z
    return max_entry(n + n.swapaxes(-1, -3), 3)


def skew_phi_anticommutation_residual(pg: PointGeometry) -> float | np.ndarray:
    """Anticommutator of the projected skew operator with phi, on the
    horizontal subspace."""
    b = pg.skew_projected
    phi = pg.phi
    m = pg.projector @ (b @ phi + phi @ b) @ pg.projector
    return max_entry(m, 2)


def bridge_residual(pg: PointGeometry) -> float | np.ndarray:
    """Gap between the exterior derivative of the contact form and the skew
    pairing g(Bx, y) of the Reeb gradient, on the horizontal frame."""
    h = pg.horizontal_basis
    return max_entry(h.swapaxes(-1, -2) @ (pg.deta - pg.dxi_skew.swapaxes(-1, -2) @ pg.gram)
                     @ h, 2)


# ---------------------------------------------------------------------------
# identity suites


def modified_connection_suite(pg: PointGeometry, *,
                              tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Structural checks of the modified connection plus the two-route
    agreement of its curvature on horizontal triples, at every point of
    ``pg``."""
    h, a, b = pg.correction, pg.reeb_gradient, pg.horizontal_basis
    gf = pg.gram @ pg.frame
    fix = max_entry(np.einsum("...kij,...i,...j->...k", h, pg.xi, pg.xi), 1)
    # h(x, xi) as the matrix h(., xi) times x: where that matrix is -A
    # exactly, both products round alike and cancel to 0
    reeb = max_entry(_t(gf) @ (a @ b + (h @ pg.xi[..., None, :, None])[..., 0] @ b), 2)
    phi_h = max_entry(_in_frames(pg.modified_nphi, b, gf, b), 3)
    # the differentiated route against the closed formula
    # P R(x, w) z + g(Aw, z) Ax - g(Ax, z) Aw + g(Bx, w) P B P z
    ab, af = operator_in_basis(a, b, pg.gram), _t(gf) @ a @ b
    bb, sf = operator_in_basis(pg.dxi_skew, b, pg.gram), _t(gf) @ pg.skew_projected @ b
    routes = _in_frames(pg.modified_riem - pg.riem, _t(pg.projector) @ gf, b, b, b)
    agree = max_entry(routes - _terms("azxw", (1, "zw,ax", ab, af), (-1, "zx,aw", ab, af),
                                      (1, "wx,az", bb, sf)), 4)
    return VerificationReport.of([
        Check.below("correction_kills_reeb_pair", worst(fix), tol.acms_exact),
        Check.below("modified_reeb_parallel", worst(reeb), tol.condition_gate),
        Check.below("modified_phi_horizontal", worst(phi_h), tol.condition_gate),
        Check.below("modified_curvature_mode_agreement", worst(agree), tol.identity),
    ])


def defect_collapse_suite(pg: PointGeometry, *,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Commutation defect of the modified curvature against phi, collapsed
    onto the Reeb-direction derivative of phi: on horizontal x, y, z,
    P(R(x, y) phi z - phi R(x, y) z) = 2 g(Bx, y) P (nabla_xi phi) z.

    Gated on the horizontal derivative of phi vanishing (the identity only
    holds on charts where it does)."""
    gate_resid = worst(pg.eta_parallel)
    gate_ok = bool(gate_resid < tol.condition_gate)
    checks = [Check("eta_parallel_gate", gate_resid, tol.condition_gate, gate_ok)]
    if not gate_ok:
        return VerificationReport.of(checks)
    b, phi, r = pg.horizontal_basis, pg.phi, pg.modified_riem
    pt = _t(pg.projector) @ pg.gram @ pg.frame
    rhs = 2.0 * np.einsum("...yx,...az->...azxy", operator_in_basis(pg.dxi_skew, b, pg.gram),
                          _t(pt) @ pg.modified_nphi_reeb @ b)
    resid = max_entry(_in_frames(r, pt, phi @ b, b, b)
                      - _in_frames(r, _t(phi) @ pt, b, b, b) - rhs, 4)
    checks.append(Check.below("defect_collapse", worst(resid), tol.identity))
    return VerificationReport.of(checks)


def defect_factorization_suite(pg: PointGeometry, *,
                               tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Fully expanded form of the commutation defect, phrased against the
    Levi-Civita curvature: on horizontal x, y, z,
    2 g(Bx, y) W z = P R(x, y) phi z - phi R(x, y) z + g(Ay, phi z) Ax
    - g(Ax, phi z) Ay - g(Ay, z) phi Ax + g(Ax, z) phi Ay, with
    W = P (nabla_xi phi) - P B P phi for the modified derivative.

    Needs both gates: the horizontal derivative of phi must vanish and the
    projected skew operator must anticommute with phi."""
    gate4 = worst(pg.eta_parallel)
    gate3 = worst(skew_phi_anticommutation_residual(pg))
    ok4 = bool(gate4 < tol.condition_gate)
    ok3 = bool(gate3 < tol.condition_gate)
    checks = [Check("eta_parallel_gate", gate4, tol.condition_gate, ok4),
              Check("skew_anticommutation_gate", gate3, tol.condition_gate, ok3)]
    if not (ok4 and ok3):
        return VerificationReport.of(checks)
    b, phi, a, r = pg.horizontal_basis, pg.phi, pg.reeb_gradient, pg.riem
    gf = pg.gram @ pg.frame
    w = pg.projector @ pg.modified_nphi_reeb - pg.skew_projected @ phi
    ab = _t(a @ b) @ pg.gram  # rows g(A h_i, .)
    a_phi, a_z, af, phi_af = ab @ phi @ b, ab @ b, _t(gf) @ a @ b, _t(gf) @ phi @ a @ b
    rhs = (_in_frames(r, _t(pg.projector) @ gf, phi @ b, b, b)
           - _in_frames(r, _t(phi) @ gf, b, b, b)
           + _terms("azxy", (1, "yz,ax", a_phi, af), (-1, "xz,ay", a_phi, af),
                    (-1, "yz,ax", a_z, phi_af), (1, "xz,ay", a_z, phi_af)))
    lhs = 2.0 * np.einsum("...yx,...az->...azxy", operator_in_basis(pg.dxi_skew, b, pg.gram),
                          _t(gf) @ w @ b)
    resid = max_entry(lhs - rhs, 4)
    checks.append(Check.below("defect_factorization", worst(resid), tol.identity))
    return VerificationReport.of(checks)


def _reconstruction_residuals(pg: PointGeometry, c: float):
    """(full, horizontal, pairing) residuals of the curvature
    reconstruction with phi-plane constant ``c``, one value per point."""
    f, b = pg.frame, pg.horizontal_basis
    gf = pg.gram @ f
    n = _in_frames(pg.nphi, f, gf, f)  # n[..., x, a, z]: (nabla_x phi) z
    a, phi = _t(gf) @ pg.reeb_gradient @ f, _t(gf) @ pg.phi @ f  # [i, j] = g(f_i, M f_j)
    e, one, aa = (pg.eta[..., None, :] @ f)[..., 0, :], np.eye(f.shape[-1]), _t(a) @ a

    # 4 g(R(w, x) y, z) from first derivatives of the structure
    lhs = 4.0 * np.einsum("...zywx->...wxyz", _in_frames(pg.riem, gf, f, f, f))
    rhs = _terms("wxyz", (1, "waz,xay", n, n), (-1, "way,xaz", n, n), (-2, "wax,yaz", n, n),
                 (1, "zw,yx", a, a), (-1, "yw,zx", a, a), (-2, "xw,zy", a, a),
                 (-1, "w,y,xz", e, e, aa), (1, "w,z,xy", e, e, aa),
                 (1, "x,y,wz", e, e, aa), (-1, "x,z,wy", e, e, aa))
    rhs = rhs + c * _terms("wxyz", (1, "xy,zw", one, one), (-1, "zx,yw", one, one),
                           (1, "z,x,yw", e, e, one), (-1, "y,x,zw", e, e, one),
                           (1, "y,w,zx", e, e, one), (-1, "z,w,yx", e, e, one),
                           (1, "xy,wz", phi, phi), (-1, "xz,wy", phi, phi),
                           (-2, "yz,wx", phi, phi))
    full = max_entry(lhs - rhs, 4)

    # its horizontal specialization, a vector identity in horizontal x, y, w
    ah, ph = pg.reeb_gradient @ b, pg.phi @ b
    pa, a_y = _t(ph) @ pg.gram @ ah, _t(ah) @ pg.gram @ b  # g(phi h_i, A h_j), g(A h_i, h_j)
    p_y = operator_in_basis(pg.phi, b, pg.gram)           # g(h_i, phi h_j)
    af, pf, paf, hf = _t(gf) @ ah, _t(gf) @ ph, _t(gf) @ pg.phi @ ah, _t(gf) @ b
    hone = np.eye(b.shape[-1])
    horizontal = max_entry(_terms(
        "axyw", (3 * c, "yx,aw", hone, hf), (-3 * c, "yw,ax", hone, hf),
        (1, "yx,aw", pa, paf), (-1, "yw,ax", pa, paf), (-2, "xw,ay", pa, paf),
        (-1, "xy,aw", a_y, af), (1, "wy,ax", a_y, af), (2, "wx,ay", a_y, af),
        (c, "xy,aw", p_y, pf), (-c, "wy,ax", p_y, pf), (-2 * c, "wx,ay", p_y, pf)), 4)

    # g((nabla_x phi) y, Az) = eta(y) g(A^2 x, phi z) - eta(x) g(A^2 y, phi z)
    q = _t(a @ a) @ phi
    pairing = max_entry(_terms("xyz", (1, "xay,az", n, a), (-1, "y,xz", e, q),
                               (1, "x,yz", e, q)), 3)
    return full, horizontal, pairing


def curvature_reconstruction_suite(pg: PointGeometry, *,
                                   tol: Tolerances = DEFAULT_TOLERANCES,
                                   c: float | None = None) -> VerificationReport:
    """Reconstruction of the full curvature from first derivatives of the
    structure tensors, valid on nearly cosymplectic charts whose phi-plane
    curvature is the constant ``c``; without ``c``, the mean over points of
    the mean of K(h, phi h) over the horizontal frame vectors h, and the
    first point where some phi-plane is degenerate raises
    DegenerateInputError.

    Includes the horizontal specialization and the pairing identity for the
    derivative of phi. Gated on the nearly cosymplectic residual."""
    gate = worst(nearly_cosymplectic_residual(pg))
    gate_ok = bool(gate < tol.nearly_gate)
    checks = [Check("nearly_cosymplectic_gate", gate, tol.nearly_gate, gate_ok)]
    if not gate_ok:
        return VerificationReport.of(checks)
    if c is None:
        riem, b = pg.riem, pg.horizontal_basis
        pb = pg.phi @ b
        try:
            sections = sectional(riem, pg.gram, b, pb, tol=pg.tol)
        except DegenerateInputError as exc:
            bad = np.any(_plane_areas(pg.gram, b, pb, pg.tol)[1], axis=-1)
            y = pg.y.reshape(-1, pg.chart.dim)[np.flatnonzero(bad)[0]]
            raise DegenerateInputError(
                f"cannot estimate c at point {y.tolist()}: phi maps a horizontal "
                "frame vector h to zero or into span{h}, so the phi-plane "
                "span{h, phi h} is degenerate; give c (--c) instead") from exc
        c = float(np.mean(np.mean(sections, axis=-1)))
    full, hor, pair = _reconstruction_residuals(pg, c)
    checks.append(Check.below("curvature_reconstruction_full", worst(full), tol.identity))
    checks.append(Check.below("curvature_reconstruction_horizontal", worst(hor), tol.identity))
    checks.append(Check.below("nabla_phi_pairing", worst(pair), tol.identity))
    return VerificationReport.of(checks)


def dual_mode_suite(chart: Chart, points, *,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> VerificationReport:
    """Relative agreement of symbolic and finite-difference derivatives for
    the Christoffel symbols, the Reeb gradient, the derivative of phi and
    the curvature, over the given points: one geometry per mode, each grid
    read once at the `identities` plan."""
    points = np.atleast_2d(np.asarray(points, float))
    one, two = (PointGeometry(chart.with_mode(mode), points, tol=tol,
                              reads=READ_PLANS["identities"])
                for mode in (SYMBOLIC, DerivativeMode("fd")))
    got = {
        "dual_mode_christoffel": (one.gamma, two.gamma),
        "dual_mode_reeb_gradient": (one.reeb_gradient, two.reeb_gradient),
        "dual_mode_nabla_phi": (one.nphi, two.nphi),
        "dual_mode_riemann": (one.riem, two.riem),
    }
    return VerificationReport.of([
        Check.below(name, worst(max_entry(a - b, a.ndim - 1)
                                / (1.0 + max_entry(a, a.ndim - 1))), tol.dual_mode)
        for name, (a, b) in got.items()
    ])


def horizontal_sectional_values(chart: Chart, points, seed: int = 0, *,
                                tol: Tolerances = DEFAULT_TOLERANCES,
                                planes: int = PROBES_PER_RESIDUAL) -> list[float]:
    """Sectional curvatures of random horizontal planes across the points.

    A probe pair with |g(x, w)| > 0.99 is redrawn; raises
    DegenerateInputError after ``MAX_PROBE_DRAWS`` consecutive redraws.
    The points are one geometry; each point's pairs are drawn in turn, as
    one stack, and every pair is evaluated at once."""
    rng = np.random.default_rng(seed)
    pg = PointGeometry(chart, np.atleast_2d(np.asarray(points, float)), tol=tol,
                       reads=READ_PLANS["curvature"])
    pairs = []
    for gram, projector in zip(pg.gram, pg.projector):
        pairs.append(_accepted_draws(
            lambda n: _probe_tuples(gram, rng, 2, n, projector=projector),
            lambda xw: np.abs(inners(*xw, gram)) <= 0.99, planes,
            "horizontal plane with |g(x, w)| <= 0.99"))
    x, w = np.stack(pairs, axis=1)
    return sectional(pg.riem, pg.gram, x, w, tol=tol).ravel().tolist()


def contact_residuals(pg: PointGeometry) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Pair (sigma_min of the horizontal skew operator, absolute top-form
    coefficient of the contact volume): floats at a point, one value per
    row each over a stack."""
    b = operator_in_basis(pg.skew_projected, pg.horizontal_basis, pg.gram)
    sigma = np.linalg.svd(b, compute_uv=False)[..., -1]
    volume = abs(contact_volume_coefficient(pg.eta, pg.deta))
    return (float(sigma), volume) if sigma.ndim == 0 else (sigma, volume)
