"""Unit tests for curvature assembly, the modified connection and the
identity suites."""
import importlib.util
import pathlib
from collections import Counter
from itertools import product

import numpy as np
import pytest

from acmslab import charts, curvature, linalg
from acmslab.charts import (FD_SECOND_STEP, DerivativeMode, chart_from_text, chart_to_text,
                            christoffel, christoffel_derivative, sample_points)
from acmslab.cli import main
from acmslab.config import DEFAULT_TOLERANCES, MAX_PROBE_DRAWS
from acmslab.curvature import (
    PointGeometry,
    _assemble_curvature,
    bridge_residual,
    contact_residuals,
    curvature_reconstruction_suite,
    defect_collapse_suite,
    defect_factorization_suite,
    dual_mode_suite,
    horizontal_sectional_values,
    killing_residual,
    modified_connection_suite,
    nearly_cosymplectic_residual,
    reeb_deta_kernel_residual,
    riemann,
    sectional,
    skew_phi_anticommutation_residual,
    unit_probes,
)
from acmslab.errors import DegenerateInputError, ShapeError
from acmslab.exprs import EvalError
from acmslab.gallery import GALLERY_NAMES, gallery_chart
from acmslab.linalg import check_gram, max_entry, norms
from acmslab.report import worst

SPHERE_TEXT = """\
dim = 2
g[1][1] = 1
g[2][2] = sin(x1)^2
domain[1] = 0.4 2.7
domain[2] = -3.0 3.0
"""

FLAT_POLAR_TEXT = """\
dim = 2
g[1][1] = 1
g[2][2] = x1^2
domain[1] = 0.5 3.0
"""


@pytest.fixture(scope="module")
def sphere():
    return chart_from_text(SPHERE_TEXT, name="sphere")


@pytest.fixture(scope="module")
def s5():
    return gallery_chart("s5")


@pytest.fixture(scope="module")
def s5_points(s5):
    return sample_points(s5, 2, seed=5)


def _riem_vec(comps, x, y, z):
    """The vector R(x, y) z from a curvature table."""
    return np.einsum("ijkl,k,l,j->i", comps, x, y, z)


def _nphi_vec(table, x, z):
    """The vector (nabla_x phi) z from a coordinate table."""
    return np.einsum("ijk,i,k->j", table, x, z)


def _antisymmetry(comps):
    """Largest entry of R(x, y) + R(y, x) in a curvature table."""
    return max_entry(comps + np.einsum("ijlk->ijkl", comps))


def _first_bianchi(comps):
    """Largest entry of the cyclic sum R(x, y) z + R(y, z) x + R(z, x) y."""
    return max_entry(comps + np.einsum("iklj->ijkl", comps) + np.einsum("iljk->ijkl", comps))


def _inner(pg, u, v):
    return float(u @ pg.gram @ v)


def _plane(pg, x, y):
    """Sectional curvature of the one plane span{x, y} at a point."""
    return float(sectional(pg.riem, pg.gram, np.c_[x], np.c_[y])[0])


class TestSectional:
    def test_degenerate_plane_rejected(self, sphere):
        pg = PointGeometry(sphere, [1.1, 0.4])
        v = np.array([1.0, 2.0])
        with pytest.raises(DegenerateInputError):
            _plane(pg, v, 2.0 * v)

    def test_degenerate_plane_at_any_row_rejected(self, sphere):
        # a stack of two points whose second plane is degenerate
        pg = PointGeometry(sphere, [[1.1, 0.4], [0.9, -0.2]])
        x = np.array([[[1.0], [0.0]], [[1.0], [2.0]]])
        y = np.array([[[0.0], [1.0]], [[2.0], [4.0]]])
        with pytest.raises(DegenerateInputError, match="degenerate plane"):
            sectional(pg.riem, pg.gram, x, y)

    def test_stack_is_each_point_alone(self, s5):
        points = sample_points(s5, 3, seed=9)
        stack = PointGeometry(s5, points)
        b = stack.horizontal_basis
        got = sectional(stack.riem, stack.gram, b, stack.phi @ b)
        for row, y in zip(got, points):
            pg = PointGeometry(s5, y)
            b = pg.horizontal_basis
            assert np.array_equal(row, sectional(pg.riem, pg.gram, b, pg.phi @ b))


class TestRiemann:
    def test_unit_sphere_curvature(self, sphere):
        for y in sample_points(sphere, 6, seed=11):
            assert _plane(PointGeometry(sphere, y), *np.eye(2)) == pytest.approx(1.0)

    def test_flat_polar_plane(self):
        chart = chart_from_text(FLAT_POLAR_TEXT)
        for y in sample_points(chart, 4, seed=12):
            assert np.max(np.abs(PointGeometry(chart, y).riem)) < 1e-12

    def test_invariants_tiny_in_symbolic_mode(self, sphere):
        r = PointGeometry(sphere, [0.9, -0.2]).riem
        assert _antisymmetry(r) < 1e-14
        assert _first_bianchi(r) < 1e-12

    def test_fd_mode_agrees(self, sphere):
        fd = sphere.with_mode(DerivativeMode("fd"))
        y = [1.3, 0.5]
        np.testing.assert_allclose(PointGeometry(fd, y).riem,
                                   PointGeometry(sphere, y).riem, atol=1e-6)

    def test_sectional_curvature_helper(self, sphere):
        pg = PointGeometry(sphere, [1.0, 0.0])
        assert _plane(pg, np.array([1.0, 0.3]), np.array([0.2, 2.0])) == pytest.approx(1.0)

    def test_round_sphere_five(self, s5, s5_points):
        values = horizontal_sectional_values(s5, s5_points, planes=5)
        np.testing.assert_allclose(values, 1.0, atol=1e-10)

    def test_full_planes_on_s5(self, s5):
        # the round metric has constant curvature on every plane, not just
        # horizontal ones
        pg = PointGeometry(s5, np.array([0.1, -0.05, 0.2, 0.0, 0.1]))
        rng = np.random.default_rng(7)
        for x, w in zip(unit_probes(pg.gram, rng, 6).T, unit_probes(pg.gram, rng, 6).T):
            if abs(x @ pg.gram @ w) > 0.95:
                continue
            assert _plane(pg, x, w) == pytest.approx(1.0, abs=1e-9)


def _central_difference(fn, y, h):
    """out[m] = (fn(y + h e_m) - fn(y - h e_m)) / 2h, one point at a time."""
    y = np.asarray(y, float)
    return np.array([(fn(y + e) - fn(y - e)) / (2.0 * h) for e in h * np.eye(len(y))])


def _fd_riemann_oracle(chart, y):
    """Levi-Civita curvature of a finite-difference chart one point at a
    time: every g read on its own, central differences of g at the chart's
    step, and of those at FD_SECOND_STEP, in the closed-form Christoffel
    symbols and their derivative."""
    def dg_at(p):
        return _central_difference(chart.g_at, p, chart.mode.step)

    gram = chart.g_at(y)
    check_gram(gram)
    ginv, dg = np.linalg.inv(gram), dg_at(y)
    ddg = _central_difference(dg_at, y, FD_SECOND_STEP)
    return _assemble_curvature(christoffel(ginv, dg), christoffel_derivative(ginv, dg, ddg))


class TestFdRiemann:
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_stacked_stencil_matches_pointwise_oracle(self, name):
        chart = gallery_chart(name).with_mode(DerivativeMode("fd"))
        for y in sample_points(chart, 3, seed=13):
            assert np.array_equal(PointGeometry(chart, y).riem, _fd_riemann_oracle(chart, y))


def _connections(seed, d=3):
    """(gam, dgam) of two connections: a torsion-free one with components
    near 1e6, whose curvature has components near 1e12 and keeps both
    invariants, and one with derivative tables of no symmetry, whose
    curvature has components near 1 and breaks the first Bianchi identity."""
    rng = np.random.default_rng(seed)
    gam, dgam = rng.standard_normal((d, d, d)), rng.standard_normal((d, d, d, d))
    valid = (1e6 * (gam + gam.swapaxes(-1, -2)), 1e6 * (dgam + dgam.swapaxes(-1, -2)))
    return valid, (np.zeros((d, d, d)), rng.standard_normal((d, d, d, d)))


def _gate_message(gam, dgam, gate):
    """The message `riemann` raises for one connection, from the invariants
    of its curvature table, scaled by its own largest component."""
    comps = _assemble_curvature(gam, dgam)
    return (f"curvature invariants fail: antisymmetry {_antisymmetry(comps):.3e}, "
            f"first Bianchi {_first_bianchi(comps):.3e} "
            f"(gate {gate * (1.0 + max_entry(comps)):.3e})")


class TestRiemannGate:
    """`riemann` checks each curvature tensor of a stack against its own
    largest component; the first failing one raises."""

    GATE = 1e-6

    def test_each_connection_alone(self):
        valid, broken = _connections(3)
        assert riemann(*valid, self.GATE).shape == (3,) * 4
        with pytest.raises(DegenerateInputError) as excinfo:
            riemann(*broken, self.GATE)
        assert str(excinfo.value) == _gate_message(*broken, self.GATE)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_a_broken_row_of_a_stack_raises(self, order):
        # the first failing row raises, whether or not a far larger row,
        # which would hide it under one scale for the whole stack, comes first
        rows = _connections(4)
        gam, dgam = (np.stack([rows[i][part] for i in order]) for part in (0, 1))
        with pytest.raises(DegenerateInputError) as excinfo:
            riemann(gam, dgam, self.GATE)
        assert str(excinfo.value) == _gate_message(*rows[1], self.GATE)
        # one scale for the stack would have passed it
        comps = _assemble_curvature(gam, dgam)
        assert _first_bianchi(comps[order.index(1)]) < self.GATE * max_entry(comps)

    def test_first_failing_row_in_order(self):
        (_, broken), (_, other) = _connections(5), _connections(6)
        gam, dgam = (np.stack([broken[part], other[part]]) for part in (0, 1))
        with pytest.raises(DegenerateInputError) as excinfo:
            riemann(gam, dgam, self.GATE)
        assert str(excinfo.value) == _gate_message(*broken, self.GATE)


# PointGeometry fields that between them compute every cached tensor, the
# curvature tensors first
GEOMETRY_FIELDS = ("gram", "gamma", "riem", "modified_riem", "horizontal_basis",
                   "dxi_skew", "nphi", "deta", "modified_nphi_reeb")


@pytest.mark.parametrize("mode", ["symbolic", "fd"])
def test_metric_checks_per_point_geometry(monkeypatch, mode):
    # one check, of the metric at the geometry's points, in either mode:
    # the derivatives of both connections read y alone, and an fd chart's
    # stencil rows take no inverse
    shapes = []
    for module in (linalg, curvature):
        def counted(gram, _check=module.check_gram):
            shapes.append(np.shape(gram))
            return _check(gram)

        monkeypatch.setattr(module, "check_gram", counted)
    chart = gallery_chart("s5").with_mode(DerivativeMode.parse(mode))
    pg = PointGeometry(chart, sample_points(chart, 1, seed=3)[0])
    for name in GEOMETRY_FIELDS:
        getattr(pg, name)
    assert shapes == [(1, 5, 5)]


def _outer_reads(monkeypatch):
    """The list, filled as they happen, of (mode, base grid, rows) of every
    read a geometry makes; the inner reads of an fd derivative's stacked
    stencils are part of its read."""
    reads, depth = [], []
    original = charts.Chart._grids_at

    def counted(self, name, points, order):
        if not depth:
            reads.append((self.mode.kind, name, np.asarray(points).tobytes()))
        depth.append(name)
        try:
            return original(self, name, points, order)
        finally:
            depth.pop()

    monkeypatch.setattr(charts.Chart, "_grids_at", counted)
    return reads


@pytest.mark.parametrize("mode", ["symbolic", "fd"])
@pytest.mark.parametrize("command, count", [("validate", 4), ("identities", 4),
                                            ("curvature", 3)])
def test_each_grid_is_read_once_per_geometry(monkeypatch, capsys, tmp_path, mode, command,
                                            count):
    # the same reads in either mode
    reads = _outer_reads(monkeypatch)
    path = tmp_path / "s5.chart"
    path.write_text(chart_to_text(gallery_chart("s5").with_mode(DerivativeMode.parse(mode))))
    assert main([command, "--chart", str(path), "--probes", "2"]) == 0
    capsys.readouterr()
    assert len(reads) == count
    assert max(Counter(reads).values()) == 1


def test_dual_mode_suite_reads_each_grid_once_per_geometry(monkeypatch):
    # one geometry per mode, each at the identities plan: g with the second
    # derivatives its curvature takes, phi and xi with their first
    reads = _outer_reads(monkeypatch)
    chart = gallery_chart("s5")
    dual_mode_suite(chart, sample_points(chart, 2, seed=3))
    assert Counter((mode, name) for mode, name, _ in reads) == {
        (mode, name): 1 for mode in ("symbolic", "fd") for name in ("g", "phi", "xi")}


def test_failed_fd_read_reads_its_grid_once(monkeypatch):
    # a stencil row of point 1 fails: the read returns the points' values,
    # whose metrics are checked, and its error, with no second read
    reads = _outer_reads(monkeypatch)
    chart = chart_from_text("dim = 1\ng[1][1] = 1 + sqrt(x1)\n").with_mode(DerivativeMode("fd"))
    with pytest.raises(EvalError) as alone:
        chart.g_at([5e-6 + -1e-5])
    reads.clear()
    with pytest.raises(EvalError) as excinfo:
        PointGeometry(chart, [[1.0], [5e-6]]).gram
    assert str(excinfo.value) == str(alone.value)
    assert [(mode, name) for mode, name, _ in reads] == [("fd", "g")]


def _read_grid_by_grid(chart, points, fields):
    """Oracle for a stack geometry: g at every row in turn, on a symbolic
    chart with the first derivatives its jet reads in the same pass, each
    metric checked right after its row; then each of ``fields`` ("dg",
    "xi", ...) at every row in turn, one point at a time, a symbolic phi
    and xi with their first derivatives."""
    grams = []
    symbolic = chart.mode.kind == "symbolic"
    for y in points:
        grams.append(chart.g_at(y))
        if symbolic:
            chart.dg_at(y)
        check_gram(grams[-1])

    def read(name, y):
        if symbolic and name in ("phi", "xi"):
            chart._grid_at("d" + name, y)
        return chart._grid_at(name, y)

    return (np.array(grams), *(np.array([read(name, y) for y in points]) for name in fields))


def _outcome(read):
    try:
        return read()
    except (EvalError, DegenerateInputError) as exc:
        return type(exc), str(exc)


class TestStackReads:
    """A stack `PointGeometry` reads grid by grid, each grid over all of its
    rows: the first failing row of the first failing grid raises, after the
    metrics of the g rows read before it are checked."""

    @pytest.mark.parametrize("text, mode, points, fields", [
        # every row reads
        ("g[1][1] = 1 + x1^2\nxi[1] = x1", "symbolic", [[0.5], [1.0]], ("dg", "xi")),
        # g fails at row 2; xi, which fails at row 1, is read after g
        ("g[1][1] = 1 + sqrt(x1)\nxi[1] = 1 / (x1 - 2)", "symbolic",
         [[3.0], [2.0], [-1.0]], ("dg", "xi")),
        # a non-positive-definite metric at row 0, a dg error at row 1
        ("g[1][1] = sqrt(x1) - 1", "symbolic", [[0.25], [0.0]], ("dg",)),
        # a non-positive-definite metric and a dg error at the same row: the
        # row's jet fails before its metric is checked
        ("g[1][1] = sqrt(x1) - 1", "symbolic", [[4.0], [0.0]], ("dg",)),
        # phi's derivative fails at row 1, which its jet reads with the value
        ("g[1][1] = 1\nphi[1][1] = 1 + sqrt(x1)", "symbolic", [[1.0], [0.0]], ("phi",)),
        # xi fails at row 0, but the metric at row 1 is checked first
        ("g[1][1] = 1 - x1\nxi[1] = 1 / x1", "symbolic", [[0.0], [2.0]], ("xi",)),
        # a g error at row 0, a degenerate metric at row 1
        ("g[1][1] = sqrt(x1)", "symbolic", [[-1.0], [0.0]], ("dg",)),
        # g fails at row 2; dg, whose stencil at row 1 steps below 0, comes after
        ("g[1][1] = 1 + sqrt(x1)", "fd", [[1.0], [5e-6], [-1.0]], ("dg",)),
        # a non-positive-definite metric at row 0 comes before a stencil row
        # of row 1 below 0
        ("g[1][1] = sqrt(x1) - 1", "fd", [[0.25], [5e-6]], ("dg",)),
    ])
    def test_matches_grid_by_grid_reads(self, text, mode, points, fields):
        chart = chart_from_text(f"dim = 1\n{text}\n").with_mode(DerivativeMode.parse(mode))
        pg = PointGeometry(chart, points)
        expected = _outcome(lambda: _read_grid_by_grid(chart, points, fields))
        got = _outcome(lambda: tuple(getattr(pg, name) for name in ("gram", *fields)))
        if isinstance(expected[0], type):
            assert got == expected
        else:
            assert len(got) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("y", [[0.5], [[[0.5, 0.3, 0.1]]], [[0.5, 0.3, 0.1]], 0.5])
    def test_points_must_end_in_the_chart_dimension(self, sphere, y):
        with pytest.raises(ShapeError):
            PointGeometry(sphere, y)

    def test_any_leading_axes(self, sphere):
        points = sample_points(sphere, 6, seed=4)
        grid = PointGeometry(sphere, points.reshape(2, 3, 2))
        assert np.array_equal(grid.riem.reshape(6, 2, 2, 2, 2), PointGeometry(sphere, points).riem)


class TestConnectionCorrection:
    def test_behavior_at_s5_origin(self, s5):
        # contract the correction table against frame pairs; the four
        # defining behaviors pin it completely
        pg = PointGeometry(s5, np.zeros(5))
        h = pg.correction
        a = pg.reeb_gradient
        e = np.eye(5)
        xi = pg.xi

        def pair(x, y):
            return np.einsum("kij,i,j->k", h, x, y)

        np.testing.assert_allclose(pair(xi, xi), np.zeros(5), atol=1e-14)
        # horizontal direction, Reeb argument: cancels the Reeb gradient
        np.testing.assert_allclose(pair(e[1], xi), -(a @ e[1]), atol=1e-12)
        # Reeb direction, horizontal argument: half the projected skew part
        np.testing.assert_allclose(pair(xi, e[1]), 0.5 * (a @ e[1]), atol=1e-12)
        # horizontal pair: vertical component weighted by the shape pairing
        np.testing.assert_allclose(pair(e[1], e[4]),
                                   _inner(pg, a @ e[1], e[4]) * xi, atol=1e-12)
        np.testing.assert_allclose(pair(e[1], e[2]), np.zeros(5), atol=1e-12)

    def test_vanishes_on_cosymplectic(self):
        chart = gallery_chart("cosymplectic_r5")
        h = PointGeometry(chart, np.zeros(5)).correction
        assert np.max(np.abs(h)) == 0.0


class _NestedGeometry(PointGeometry):
    """A geometry of one point of an fd chart whose second derivatives are
    the nested central difference: the central difference at FD_SECOND_STEP
    of the chart's first derivatives, each read at one stencil point on its
    own."""

    def _read(self, name, order):
        if order < 2:
            return super()._read(name, order)
        return _central_difference(lambda p: self.chart._grid_at("d" + name, p), self.y,
                                   FD_SECOND_STEP)


def _stencil_oracle(chart, y):
    """Modified curvature at the point ``y`` one stencil point at a time: on
    an fd chart from the nested central differences (`_NestedGeometry`); on
    a symbolic one the connection tables of a `PointGeometry` at each
    stencil point, differenced at FD_SECOND_STEP and half of it, with one
    Richardson step, which keeps the truncation error at fourth order."""
    if chart.mode.kind == "fd":
        return _NestedGeometry(chart, y).modified_riem

    def gam_at(p):
        pg = PointGeometry(chart, p)
        return pg.gamma + pg.correction

    coarse = _central_difference(gam_at, y, FD_SECOND_STEP)
    fine = _central_difference(gam_at, y, FD_SECOND_STEP / 2.0)
    return _assemble_curvature(gam_at(y), (4.0 * fine - coarse) / 3.0)


# the PointGeometry attribute holding each curvature tensor, by the function
# that assembles it
TENSORS = {"riemann": "riem", "modified_riemann": "modified_riem"}

# 3-D charts whose g[1][1] fails (or leaves g not positive definite) at the
# fd stencil point y - FD_SECOND_STEP e_1 of STENCIL_Y, which only the
# second derivatives of an fd chart read
STENCIL_TEXT = ("dim = 3\ng[2][2] = 1\ng[3][3] = 1\nphi[2][1] = 1\nphi[1][2] = -1\n"
                "xi[3] = 1\neta[3] = 1\n")
STENCIL_Y = (5e-5, 0.1, 0.2)

# a 3-D chart whose g, xi and eta all vary, with no structure identity
GENERIC_TEXT = """\
dim = 3
g[1][1] = 2 + x2^2
g[1][2] = 0.3*sin(x3)
g[2][1] = 0.3*sin(x3)
g[1][3] = 0.1*x2
g[3][1] = 0.1*x2
g[2][2] = 1 + x1*x3/4
g[3][3] = exp(x1/3)
phi[1][2] = x3
xi[1] = 0.2*x2*x3
xi[2] = cos(x1)
xi[3] = 1 + x1^2
eta[1] = 0.5*x3
eta[2] = sin(x2)
eta[3] = 1 - x1*x2
"""


class TestModifiedRiemann:
    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    @pytest.mark.parametrize("name", ["s5", "sasakian_r5", "cosymplectic_r5"])
    def test_stacked_stencil_matches_pointwise_oracle(self, name, mode):
        # an fd chart takes the nested central differences of the oracle bit
        # for bit; a symbolic chart differentiates exactly, so the two differ
        # by the oracle's fourth-order truncation error alone
        chart = gallery_chart(name).with_mode(DerivativeMode.parse(mode))
        for y in sample_points(chart, 3, seed=13):
            got, oracle = PointGeometry(chart, y).modified_riem, _stencil_oracle(chart, y)
            if mode == "fd":
                assert np.array_equal(got, oracle)
            else:
                np.testing.assert_allclose(got, oracle, rtol=0.0, atol=1e-9)

    def test_exact_route_matches_central_differences_at_dimension_9(self):
        chart = _darboux_chart(4)
        points = sample_points(chart, 2, seed=13)
        got = PointGeometry(chart, points).modified_riem
        for y, row in zip(points, got):
            np.testing.assert_allclose(row, _stencil_oracle(chart, y), rtol=0.0, atol=1e-9)

    def test_exact_correction_derivative_on_a_chart_with_no_structure(self):
        # every factor of the correction varies, and none of the structure
        # identities that simplify it holds
        chart = chart_from_text(GENERIC_TEXT)
        points = np.array([[0.3, -0.2, 0.4], [0.1, 0.5, -0.3]])
        got = curvature._correction_derivative(PointGeometry(chart, points))

        def h_at(p):
            return PointGeometry(chart, p).correction

        for y, row in zip(points, got):
            coarse = _central_difference(h_at, y, 1e-3)
            fine = _central_difference(h_at, y, 5e-4)
            np.testing.assert_allclose(row, (4.0 * fine - coarse) / 3.0, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("g11", ["sqrt(x1)", "x1", "x1 + 0*sqrt(x3 - 0.19995)"])
    def test_symbolic_route_reads_no_stencil_point(self, g11):
        # an fd chart's second derivatives read the stencil point y - h e_1
        # of these charts (test_first_failing_fd_stencil_point_names_the_error);
        # the symbolic route reads y alone, where the correction vanishes
        pg = PointGeometry(chart_from_text(STENCIL_TEXT + f"g[1][1] = {g11}\n"), STENCIL_Y)
        assert np.array_equal(pg.modified_riem, pg.riem)

    def test_symbolic_route_fails_at_the_centre(self):
        # x3 = 0.2 at the centre, where the jet of 0 * sqrt(x3 - 0.2) is
        # 0 * inf; the fd route fails first at the stencil point y - h e_3
        # (test_first_failing_fd_stencil_point_names_the_error)
        chart = chart_from_text(STENCIL_TEXT + "g[1][1] = x1 + 0*sqrt(x3 - 0.2)\n")
        with pytest.raises(EvalError) as excinfo:
            PointGeometry(chart, STENCIL_Y).modified_riem
        assert str(excinfo.value) == ("d g[1][1] / d x1 at point [5e-05, 0.1, 0.2]: non-finite "
                                      "value nan in 'x1 + 0 * sqrt(x3 - 0.2)'")

    @pytest.mark.parametrize("mode, message", [
        # the symbolic route reads xi's derivatives at the centre alone
        ("symbolic", "d xi[3] / d x2 at point [5e-05, 0.1, 0.2]: non-finite value nan in "
                     "'1 + 0 * sqrt(x2 - 0.1)'"),
        # the fd route reads g and xi at step h = 1e-5: xi fails at y - h e_2;
        # g is not positive definite only at y - FD_SECOND_STEP e_3, which
        # only the second derivatives read, and is never checked there
        ("fd", "xi[3] at point [5e-05, 0.09999000000000001, 0.2]: square root of negative "
               "value -1e-05 in 'sqrt(x2 - 0.1)'"),
    ])
    def test_modified_curvature_reads_grid_by_grid(self, mode, message):
        text = STENCIL_TEXT.replace("xi[3] = 1\n", "xi[3] = 1 + 0*sqrt(x2 - 0.1)\n")
        chart = chart_from_text(text + "g[1][1] = x3 - 0.19991\n")
        with pytest.raises(EvalError) as excinfo:
            PointGeometry(chart.with_mode(DerivativeMode.parse(mode)), STENCIL_Y).modified_riem
        assert str(excinfo.value) == message

    # In fd mode a first derivative reads a stencil of step h = 1e-5, and a
    # second derivative reads the first over a stencil of step
    # FD_SECOND_STEP. ``fn`` names the function that assembles the tensor;
    # both read g first with its first derivatives.
    @pytest.mark.parametrize("fn, g11, message", [
        *((fn, "sqrt(x1)",
           "g[1][1] at point [-5e-05, 0.1, 0.2]: square root of negative value -5e-05 "
           "in 'sqrt(x1)'") for fn in TENSORS),
        # the first dg read already steps below x3 = 0.2, at y - h e_3
        *((fn, "x1 + 0*sqrt(x3 - 0.2)",
           "g[1][1] at point [5e-05, 0.1, 0.19999]: square root of negative value -1e-05 "
           "in 'sqrt(x3 - 0.2)'") for fn in TENSORS),
        # the second derivatives read y - FD_SECOND_STEP e_1, where g is not
        # positive definite and is never checked, then fail at y - FD_SECOND_STEP e_3
        *((fn, "x1 + 0*sqrt(x3 - 0.19995)",
           "g[1][1] at point [5e-05, 0.1, 0.19990000000000002]: square root of negative "
           "value -5e-05 in 'sqrt(x3 - 0.19995)'") for fn in TENSORS),
    ])
    def test_first_failing_fd_stencil_point_names_the_error(self, fn, g11, message):
        chart = chart_from_text(STENCIL_TEXT + f"g[1][1] = {g11}\n")
        pg = PointGeometry(chart.with_mode(DerivativeMode("fd")), STENCIL_Y)
        with pytest.raises(EvalError) as excinfo:
            getattr(pg, TENSORS[fn])
        assert str(excinfo.value) == message

    def test_fd_stencil_metric_is_not_checked(self):
        # g = diag(x1, 1, 1) is not positive definite at y - FD_SECOND_STEP
        # e_1; no inverse is taken there, so both curvatures read, and equal
        # their one-point oracles bit for bit
        chart = chart_from_text(STENCIL_TEXT + "g[1][1] = x1\n").with_mode(DerivativeMode("fd"))
        pg = PointGeometry(chart, STENCIL_Y)
        assert np.array_equal(pg.riem, _fd_riemann_oracle(chart, np.array(STENCIL_Y)))
        assert np.array_equal(pg.modified_riem, _stencil_oracle(chart, np.array(STENCIL_Y)))

    def test_antisymmetry_survives(self, s5):
        r = PointGeometry(s5, np.zeros(5)).modified_riem
        assert _antisymmetry(r) < 1e-12

    def test_first_bianchi_fails_with_torsion(self, s5):
        # the cyclic identity needs a torsion-free connection; at the origin
        # of the sphere chart the violation is exactly 3
        r = PointGeometry(s5, np.zeros(5)).modified_riem
        assert _first_bianchi(r) == pytest.approx(3.0, abs=1e-6)


def _probes_one_at_a_time(gram, rng, count, projector=None):
    """Oracle for unit_probes: draw, project and normalize one vector at a
    time, with the same cap on consecutive redraws."""
    out = []
    while len(out) < count:
        for _ in range(MAX_PROBE_DRAWS):
            v = rng.standard_normal(len(gram))
            if projector is not None:
                v = projector @ v
            n = np.sqrt(max(v @ gram @ v, 0.0))
            if n > 1e-6:
                out.append(v / n)
                break
        else:
            raise DegenerateInputError(
                f"no probe vector with g-norm above 1e-6 in {MAX_PROBE_DRAWS} draws")
    return np.column_stack(out)


class _ScriptedRng:
    """Stand-in generator that replays fixed rows of length ``dim``, then
    zero rows (always rejected); ``standard_normal`` accepts the vector and
    the matrix form of ``size``."""

    def __init__(self, rows, dim):
        self.rows = [np.asarray(r, float) for r in rows]
        self.zero = np.zeros(dim)
        self.drawn = 0

    def standard_normal(self, size):
        take = size[0] if isinstance(size, tuple) else 1
        out = [self.rows[i] if i < len(self.rows) else self.zero
               for i in range(self.drawn, self.drawn + take)]
        self.drawn += take
        return np.array(out) if isinstance(size, tuple) else out[0]


class TestUnitProbes:
    @pytest.mark.parametrize("horizontal", [False, True])
    def test_batched_draw_matches_one_at_a_time(self, s5, horizontal):
        pg = PointGeometry(s5, np.array([0.2, -0.1, 0.3, 0.05, -0.2]))
        projector = pg.projector if horizontal else None
        one, two = np.random.default_rng(13), np.random.default_rng(13)
        got = unit_probes(pg.gram, one, 60, projector=projector)
        want = _probes_one_at_a_time(pg.gram, two, 60, projector=projector)
        assert got.shape == (5, 60)
        assert np.max(np.abs(got - want)) <= 4.4e-16
        assert one.bit_generator.state == two.bit_generator.state

    def test_rejected_rows_keep_order(self):
        gram = np.diag([1.0, 4.0, 9.0])
        zero = [0.0, 0.0, 0.0]
        # rejections mid-batch and at the end of the first batch of 5
        rows = [[1.0, 0.0, 0.0], zero, [0.0, 2.0, 0.0], zero, zero,
                [0.0, 0.0, 3.0], zero, [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]]
        batched, looped = _ScriptedRng(rows, 3), _ScriptedRng(rows, 3)
        got = unit_probes(gram, batched, 5)
        want = _probes_one_at_a_time(gram, looped, 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=4.4e-16)
        assert batched.drawn == looped.drawn == len(rows)
        accepted = np.array([r for r in rows if r != zero]).T
        np.testing.assert_allclose(got, accepted / norms(accepted, gram), atol=4.4e-16)

    @pytest.mark.parametrize("rejected", [MAX_PROBE_DRAWS - 1, MAX_PROBE_DRAWS])
    def test_cap_counts_consecutive_rejections_across_batches(self, rejected):
        gram = np.eye(3)
        rows = [[1.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * rejected + [[0.0, 1.0, 0.0]] * 2
        outcomes = []
        for draw in (unit_probes, _probes_one_at_a_time):
            rng = _ScriptedRng(rows, 3)
            try:
                outcomes.append((draw(gram, rng, 3).tolist(), rng.drawn))
            except DegenerateInputError as exc:
                outcomes.append((str(exc), rng.drawn))
        assert outcomes[0] == outcomes[1]
        # the cap stops the stream right after its 100th consecutive rejection
        want = len(rows) if rejected < MAX_PROBE_DRAWS else 1 + MAX_PROBE_DRAWS
        assert outcomes[0][1] == want

    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_all_rejected_raises_after_cap(self, count):
        rng = _ScriptedRng([], 3)
        with pytest.raises(DegenerateInputError) as err:
            unit_probes(np.eye(3), rng, count)
        assert str(err.value) == (
            f"no probe vector with g-norm above 1e-6 in {MAX_PROBE_DRAWS} draws")
        assert rng.drawn == MAX_PROBE_DRAWS


class TestPointResiduals:
    def test_s5_killing_and_kernel(self, s5, s5_points):
        for y in s5_points:
            pg = PointGeometry(s5, y)
            assert killing_residual(pg) < 1e-10
            assert reeb_deta_kernel_residual(pg) < 1e-12

    def test_s5_condition_residuals(self, s5, s5_points):
        for y in s5_points:
            pg = PointGeometry(s5, y)
            assert skew_phi_anticommutation_residual(pg) < 1e-10
            assert pg.eta_parallel < 1e-10

    def test_sasakian_skew_anticommutation_fails_exactly(self):
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        assert skew_phi_anticommutation_residual(pg) == pytest.approx(2.0)

    def test_sasakian_eta_parallel_holds(self):
        # horizontal triples never see the vertical terms of the Sasakian
        # derivative of phi
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        assert pg.eta_parallel < 1e-12

    def test_sasakian_nearly_residual_frozen(self):
        # (nabla_x phi) z + (nabla_z phi) x = 2 g(x, z) xi - eta(z) x - eta(x) z,
        # whose largest frame entry is 2, at a horizontal pair x = z
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.1, 0.2, -0.1, 0.3, 0.0]))
        assert nearly_cosymplectic_residual(pg) == pytest.approx(2.0, abs=1e-12)

    def test_bridge_residual(self, s5, s5_points):
        for y in s5_points:
            assert bridge_residual(PointGeometry(s5, y)) < 1e-10
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        assert bridge_residual(pg) < 1e-12

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_frame_is_g_orthonormal_and_adapted(self, name):
        chart = gallery_chart(name)
        for y in sample_points(chart, 3, seed=21):
            pg = PointGeometry(chart, y)
            f = pg.frame
            np.testing.assert_allclose(f.T @ pg.gram @ f, np.eye(5), atol=1e-12)
            assert np.array_equal(f[:, :4], pg.horizontal_basis)
            np.testing.assert_allclose(f[:, 4], pg.xi, atol=1e-12)


def _darboux_chart(n):
    """The benchmark's Darboux Sasakian chart of dimension 2n + 1."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "darboux.py"
    spec = importlib.util.spec_from_file_location("perfbench_darboux", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return chart_from_text(module.darboux_sasakian_text(n))


STACK_CHARTS = {
    **{name: (lambda name=name: gallery_chart(name))
       for name in ("s5", "sasakian_r5", "cosymplectic_r5")},
    "s5_fd": lambda: gallery_chart("s5").with_mode(DerivativeMode("fd")),
    **{f"darboux_d{2 * n + 1}": (lambda n=n: _darboux_chart(n)) for n in range(1, 6)},
}


class TestStackedResiduals:
    """Each residual over a stack of points is, row by row, exactly the
    residual of the point alone; a point gives a float."""

    RESIDUALS = {
        "killing": killing_residual,
        "reeb_deta_kernel": reeb_deta_kernel_residual,
        "skew_phi_anticommutation": skew_phi_anticommutation_residual,
        "nearly_cosymplectic": nearly_cosymplectic_residual,
        "bridge": bridge_residual,
        "contact_sigma": lambda pg: contact_residuals(pg)[0],
        "contact_volume": lambda pg: contact_residuals(pg)[1],
        "eta_parallel": lambda pg: pg.eta_parallel,
    }

    @pytest.mark.parametrize("name", sorted(STACK_CHARTS))
    def test_stack_equals_loop_of_points(self, name):
        chart = STACK_CHARTS[name]()
        points = sample_points(chart, 4, seed=31)
        stack = PointGeometry(chart, points)
        ones = [PointGeometry(chart, y) for y in points]
        for label, residual in self.RESIDUALS.items():
            got, want = residual(stack), [residual(pg) for pg in ones]
            assert all(isinstance(w, float) for w in want), label
            assert got.shape == (4,) and got.tolist() == want, label
        for tensor in ("horizontal_basis", "frame", "nphi", "deta"):
            assert np.array_equal(getattr(stack, tensor),
                                  [getattr(pg, tensor) for pg in ones]), tensor


# Reference formulas of the identity suites, written for one argument
# vector at a time as the suites computed them on random probes. The frame
# oracle below evaluates them on every tuple of frame vectors.


def _factorization_lhs(pg, x, y, z):
    v = (pg.projector @ (pg.modified_nphi_reeb @ z)
         - pg.skew_projected @ (pg.phi @ z))
    return 2.0 * _inner(pg, pg.dxi_skew @ x, y) * v


def _factorization_rhs(pg, x, y, z):
    """Curvature side of the factorization identity on a horizontal triple."""
    phi, a, r = pg.phi, pg.reeb_gradient, pg.riem
    phz = phi @ z
    ax, ay = a @ x, a @ y
    out = pg.projector @ _riem_vec(r, x, y, phz) - phi @ _riem_vec(r, x, y, z)
    out = out + _inner(pg, ay, phz) * ax - _inner(pg, ax, phz) * ay
    return out - _inner(pg, ay, z) * (phi @ ax) + _inner(pg, ax, z) * (phi @ ay)


def _reference_residuals(pg, c):
    """Largest frame entry of each identity's difference over every tuple of
    frame vectors, one tuple at a time; vector differences are written in
    the point's frame."""
    hor, full = pg.horizontal_basis.T, pg.frame.T
    p, phi, a, b = pg.projector, pg.phi, pg.reeb_gradient, pg.dxi_skew
    r, rt, eta = pg.riem, pg.modified_riem, pg.eta

    def ip(u, v):
        return _inner(pg, u, v)

    def biggest(values):
        return max(float(np.max(np.abs(pg.frame.T @ pg.gram @ v))) for v in values)

    def nv(x, z):
        return _nphi_vec(pg.nphi, x, z)

    def agreement(x, w, z):
        ax, aw = a @ x, a @ w
        closed = (p @ _riem_vec(r, x, w, z) + ip(aw, z) * ax - ip(ax, z) * aw
                  + ip(b @ x, w) * (pg.skew_projected @ z))
        return p @ _riem_vec(rt, x, w, z) - closed

    def collapse(x, y, z):
        lhs = _riem_vec(rt, x, y, phi @ z) - phi @ _riem_vec(rt, x, y, z)
        return p @ (lhs - 2.0 * ip(b @ x, y) * (pg.modified_nphi_reeb @ z))

    def full_reconstruction(w, x, y, z):
        lhs = 4.0 * ip(z, _riem_vec(r, w, x, y))
        aw, ax, ay, az = a @ w, a @ x, a @ y, a @ z
        ew, ex, ey, ez = eta @ w, eta @ x, eta @ y, eta @ z
        rhs = (ip(nv(w, z), nv(x, y)) - ip(nv(w, y), nv(x, z)) - 2.0 * ip(nv(w, x), nv(y, z))
               + ip(aw, z) * ip(ax, y) - ip(aw, y) * ip(ax, z) - 2.0 * ip(aw, x) * ip(ay, z)
               - ew * ey * ip(ax, az) + ew * ez * ip(ax, ay)
               + ex * ey * ip(aw, az) - ex * ez * ip(aw, ay))
        rhs += c * (ip(x, y) * ip(z, w) - ip(z, x) * ip(y, w)
                    + ez * ex * ip(y, w) - ey * ex * ip(z, w)
                    + ey * ew * ip(z, x) - ez * ew * ip(y, x)
                    + ip(phi @ y, x) * ip(phi @ z, w) - ip(phi @ z, x) * ip(phi @ y, w)
                    - 2.0 * ip(phi @ z, y) * ip(phi @ x, w))
        return lhs - rhs

    def horizontal_reconstruction(x, y, w):
        lhs = 3.0 * c * (ip(y, x) * w - ip(y, w) * x)
        py, px, pw = phi @ y, phi @ x, phi @ w
        ax, aw, ay = a @ x, a @ w, a @ y
        rhs = (-ip(py, ax) * (phi @ aw) + ip(py, aw) * (phi @ ax)
               + 2.0 * ip(px, aw) * (phi @ ay)
               + ip(ax, y) * aw - ip(aw, y) * ax - 2.0 * ip(aw, x) * ay)
        return lhs - rhs - c * (-ip(x, py) * pw + ip(py, w) * px + 2.0 * ip(px, w) * py)

    def pairing(x, y, z):
        a2 = a @ a
        return (ip(nv(x, y), a @ z)
                - (eta @ y) * ip(a2 @ x, phi @ z) + (eta @ x) * ip(a2 @ y, phi @ z))

    def tuples(frame, k):
        return product(frame, repeat=k)

    return {
        "modified_reeb_parallel": biggest(a @ x + (pg.correction @ pg.xi) @ x for x in hor),
        "modified_phi_horizontal": biggest(_nphi_vec(pg.modified_nphi, x, z)
                                           for x, z in tuples(hor, 2)),
        "modified_curvature_mode_agreement": biggest(agreement(*t) for t in tuples(hor, 3)),
        "defect_collapse": biggest(collapse(*t) for t in tuples(hor, 3)),
        "defect_factorization": biggest(_factorization_lhs(pg, *t) - _factorization_rhs(pg, *t)
                                        for t in tuples(hor, 3)),
        "curvature_reconstruction_full": max(abs(full_reconstruction(*t))
                                             for t in tuples(full, 4)),
        "curvature_reconstruction_horizontal": biggest(horizontal_reconstruction(*t)
                                                       for t in tuples(hor, 3)),
        "nabla_phi_pairing": max(abs(pairing(*t)) for t in tuples(full, 3)),
        "nearly_cosymplectic": biggest(nv(x, z) + nv(z, x) for x, z in tuples(full, 2)),
        "contact_bridge": max(abs(x @ pg.deta @ y - ip(b @ x, y)) for x, y in tuples(hor, 2)),
    }


# every gate open, so that each suite reports its identities on any chart
OPEN_GATES = DEFAULT_TOLERANCES.replace(condition_gate=np.inf, nearly_gate=np.inf)


class TestFrameOracle:
    """Each suite's frame contraction equals the largest entry of the probe
    formulas over every frame tuple, on a chart where the identities hold
    and on one where several fail."""

    @pytest.mark.parametrize("name, y", [
        ("s5", [0.1, -0.2, 0.15, 0.3, -0.05]),
        ("sasakian_r5", [0.2, -0.3, 0.1, 0.4, 0.25]),
    ])
    def test_contractions_match_loop_over_frame_tuples(self, name, y):
        pg = PointGeometry(gallery_chart(name), np.array(y))
        c = 1.0
        want = _reference_residuals(pg, c)
        reports = (modified_connection_suite(pg, tol=OPEN_GATES),
                   defect_collapse_suite(pg, tol=OPEN_GATES),
                   defect_factorization_suite(pg, tol=OPEN_GATES),
                   curvature_reconstruction_suite(pg, tol=OPEN_GATES, c=c))
        got = {check.name: check.residual for report in reports for check in report.checks}
        got["nearly_cosymplectic"] = nearly_cosymplectic_residual(pg)
        got["contact_bridge"] = bridge_residual(pg)
        for check, value in want.items():
            assert np.isclose(got[check], value, rtol=1e-12, atol=1e-12), (check, got[check], value)
        if name == "sasakian_r5":
            failing = {k for k, v in want.items() if v > 1e-3}
            assert failing == {"nearly_cosymplectic", "defect_factorization",
                               "curvature_reconstruction_full",
                               "curvature_reconstruction_horizontal", "nabla_phi_pairing"}
            assert got["nearly_cosymplectic"] == pytest.approx(2.0, abs=1e-12)
        else:
            assert max(want.values()) < 1e-9


# the suites, each with the one phi-plane constant every point shares (an
# estimated constant is the mean over the points given)
SUITES = {
    "modified": modified_connection_suite,
    "collapse": defect_collapse_suite,
    "factorization": defect_factorization_suite,
    "reconstruction": lambda pg, tol: curvature_reconstruction_suite(pg, tol=tol, c=1.0),
}


def _worst_of(reports):
    """The report of a stack from the reports of its points one at a time:
    the same checks, each at its worst point."""
    names = [[c.name for c in report.checks] for report in reports]
    assert all(n == names[0] for n in names)
    return [{**check, "residual": worst(r.checks[i].residual for r in reports),
             "pass": all(r.checks[i].passed for r in reports)}
            for i, check in enumerate(reports[0].to_dicts())]


class TestStackedSuites:
    """Each suite, and `dual_mode_suite`, over a stack of points reports
    exactly the worst of the points one at a time, every check value equal
    bit for bit."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("tol", [DEFAULT_TOLERANCES, OPEN_GATES], ids=["gated", "open"])
    @pytest.mark.parametrize("name", ["s5", "s5_fd", "sasakian_r5", "cosymplectic_r5"])
    def test_stack_reports_the_worst_point(self, name, tol, n):
        chart = STACK_CHARTS[name]()
        points = sample_points(chart, n, seed=37)
        stack = PointGeometry(chart, points, tol=tol)
        ones = [PointGeometry(chart, y, tol=tol) for y in points]
        for label, suite in SUITES.items():
            got = suite(stack, tol=tol).to_dicts()
            assert got == _worst_of([suite(pg, tol=tol) for pg in ones]), label
        got = dual_mode_suite(chart, points).to_dicts()
        assert got == _worst_of([dual_mode_suite(chart, y) for y in points])


class TestModifiedConnectionSuite:
    def test_s5(self, s5, s5_points):
        report = modified_connection_suite(PointGeometry(s5, s5_points))
        assert report.verdict
        assert report["modified_curvature_mode_agreement"].residual < 1e-9

    def test_cosymplectic_trivial(self):
        chart = gallery_chart("cosymplectic_r5")
        report = modified_connection_suite(PointGeometry(chart, np.zeros((1, 5))))
        assert report.verdict


class TestDefectCollapseSuite:
    def test_s5(self, s5, s5_points):
        report = defect_collapse_suite(PointGeometry(s5, s5_points))
        assert report.verdict
        assert report["defect_collapse"].residual < 1e-9

    def test_sasakian_gate_open_and_identity_holds(self):
        # the Reeb-direction derivative of phi vanishes for this chart, so
        # both sides of the collapsed identity are zero
        chart = gallery_chart("sasakian_r5")
        report = defect_collapse_suite(PointGeometry(chart, sample_points(chart, 2, seed=5)))
        assert report.verdict


class TestDefectFactorizationSuite:
    def test_s5(self, s5, s5_points):
        report = defect_factorization_suite(PointGeometry(s5, s5_points))
        assert report.verdict
        assert report["defect_factorization"].residual < 1e-12

    def test_sasakian_gated_out(self):
        chart = gallery_chart("sasakian_r5")
        report = defect_factorization_suite(PointGeometry(chart, sample_points(chart, 2, seed=5)))
        assert not report.verdict
        assert report["eta_parallel_gate"].passed
        assert not report["skew_anticommutation_gate"].passed
        names = {c.name for c in report.checks}
        assert "defect_factorization" not in names

    def test_lhs_vanishes_with_commuting_structure(self):
        # on the Sasakian chart the modified derivative of phi along the Reeb
        # field cancels against the projected skew operator acting through phi
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.1, -0.2, 0.3, 0.0, 0.2]))
        e = np.eye(5)
        assert np.max(np.abs(_factorization_lhs(pg, e[0], e[1], e[2]))) < 1e-10

    def test_rhs_with_injected_zero_curvature(self, s5):
        # dropping the curvature terms must leave exactly the four algebraic
        # shape-operator terms; frozen at the origin on frame vectors
        pg = PointGeometry(s5, np.zeros(5))
        pg.riem = np.zeros((5,) * 4)  # fills the cache
        e = np.eye(5)
        out = _factorization_rhs(pg, e[1], e[2], e[3])
        np.testing.assert_allclose(out, -e[2], atol=1e-14)
        phi = pg.phi
        a = pg.reeb_gradient
        x, y, z = e[1], e[2], e[3]
        manual = (_inner(pg, a @ y, phi @ z) * (a @ x)
                  - _inner(pg, a @ x, phi @ z) * (a @ y)
                  - _inner(pg, a @ y, z) * (phi @ (a @ x))
                  + _inner(pg, a @ x, z) * (phi @ (a @ y)))
        np.testing.assert_allclose(out, manual, atol=1e-14)


class TestCurvatureReconstructionSuite:
    def test_s5_with_given_constant(self, s5, s5_points):
        report = curvature_reconstruction_suite(PointGeometry(s5, s5_points), c=1.0)
        assert report.verdict
        assert report["curvature_reconstruction_full"].residual < 1e-12
        assert report["curvature_reconstruction_horizontal"].residual < 1e-12
        assert report["nabla_phi_pairing"].residual < 1e-12

    def test_s5_estimates_constant(self, s5, s5_points):
        report = curvature_reconstruction_suite(PointGeometry(s5, s5_points))
        assert report.verdict

    def test_cosymplectic_trivially_flat(self):
        chart = gallery_chart("cosymplectic_r5")
        report = curvature_reconstruction_suite(PointGeometry(chart, np.zeros((1, 5))))
        assert report.verdict

    def test_sasakian_gated_out(self):
        chart = gallery_chart("sasakian_r5")
        report = curvature_reconstruction_suite(PointGeometry(chart, sample_points(chart, 2, seed=5)))
        assert not report.verdict
        assert [c.name for c in report.checks] == ["nearly_cosymplectic_gate"]


class TestDualModeSuite:
    def test_s5(self, s5, s5_points):
        report = dual_mode_suite(s5, s5_points)
        assert report.verdict
        names = [c.name for c in report.checks]
        assert names == ["dual_mode_christoffel", "dual_mode_reeb_gradient",
                         "dual_mode_nabla_phi", "dual_mode_riemann"]

    def test_sasakian(self):
        chart = gallery_chart("sasakian_r5")
        report = dual_mode_suite(chart, sample_points(chart, 2, seed=8))
        assert report.verdict
