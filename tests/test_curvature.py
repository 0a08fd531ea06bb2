"""Unit tests for curvature assembly, the modified connection and the
identity suites."""
from collections import Counter

import numpy as np
import pytest

from acmslab import charts, curvature, linalg
from acmslab.charts import (DerivativeMode, chart_from_text, christoffel, sample_points,
                            stencil_points)
from acmslab.config import FD_SECOND_STEP, MAX_PROBE_DRAWS
from acmslab.curvature import (
    CurvatureTensor,
    PointGeometry,
    _assemble_curvature,
    bridge_residual,
    curvature_reconstruction_suite,
    defect_collapse_suite,
    defect_factorization_suite,
    dual_mode_suite,
    eta_parallel_residual,
    factorization_lhs,
    factorization_rhs,
    horizontal_sectional_values,
    killing_residual,
    modified_connection_suite,
    nearly_cosymplectic_residuals,
    reeb_deta_kernel_residual,
    skew_phi_anticommutation_residual,
    unit_probes,
)
from acmslab.errors import DegenerateInputError, ShapeError
from acmslab.exprs import EvalError
from acmslab.gallery import GALLERY_NAMES, gallery_chart
from acmslab.linalg import Metric

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


def _geoms(chart, points):
    return [PointGeometry(chart, y) for y in points]


class TestCurvatureTensor:
    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            CurvatureTensor(np.zeros((2, 2, 2)), Metric.euclidean(2))

    def test_apply_pair_consistent(self, sphere):
        r = PointGeometry(sphere, [1.1, 0.4]).riem
        rng = np.random.default_rng(1)
        w, x, y, z = (rng.normal(size=2) for _ in range(4))
        direct = r.pair(w, x, y, z)
        via_apply = float(w @ r.metric.gram @ r.apply(x, y, z))
        assert direct == pytest.approx(via_apply)

    def test_degenerate_plane_rejected(self, sphere):
        r = PointGeometry(sphere, [1.1, 0.4]).riem
        v = np.array([1.0, 2.0])
        with pytest.raises(DegenerateInputError):
            r.sectional(v, 2.0 * v)


class TestRiemann:
    def test_unit_sphere_curvature(self, sphere):
        for y in sample_points(sphere, 6, seed=11):
            r = PointGeometry(sphere, y).riem
            assert r.sectional(np.eye(2)[0], np.eye(2)[1]) == pytest.approx(1.0)

    def test_flat_polar_plane(self):
        chart = chart_from_text(FLAT_POLAR_TEXT)
        for y in sample_points(chart, 4, seed=12):
            r = PointGeometry(chart, y).riem
            assert np.max(np.abs(r.comps)) < 1e-12

    def test_invariants_tiny_in_symbolic_mode(self, sphere):
        r = PointGeometry(sphere, [0.9, -0.2]).riem
        assert r.antisymmetry_residual() < 1e-14
        assert r.first_bianchi_residual() < 1e-12

    def test_fd_mode_agrees(self, sphere):
        fd = sphere.with_mode(DerivativeMode("fd"))
        y = [1.3, 0.5]
        np.testing.assert_allclose(PointGeometry(fd, y).riem.comps,
                                   PointGeometry(sphere, y).riem.comps, atol=1e-6)

    def test_sectional_curvature_helper(self, sphere):
        r = PointGeometry(sphere, [1.0, 0.0]).riem
        got = r.sectional(np.array([1.0, 0.3]), np.array([0.2, 2.0]))
        assert got == pytest.approx(1.0)

    def test_round_sphere_five(self, s5, s5_points):
        values = horizontal_sectional_values(s5, s5_points, planes=5)
        np.testing.assert_allclose(values, 1.0, atol=1e-10)

    def test_full_planes_on_s5(self, s5):
        # the round metric has constant curvature on every plane, not just
        # horizontal ones
        r = PointGeometry(s5, np.array([0.1, -0.05, 0.2, 0.0, 0.1])).riem
        rng = np.random.default_rng(7)
        for x, w in zip(unit_probes(r.metric, rng, 6).T, unit_probes(r.metric, rng, 6).T):
            if abs(r.metric.inner(x, w)) > 0.95:
                continue
            assert r.sectional(x, w) == pytest.approx(1.0, abs=1e-9)


def _central_difference(fn, y, h):
    """out[m] = (fn(y + h e_m) - fn(y - h e_m)) / 2h, one point at a time."""
    y = np.asarray(y, float)
    return np.array([(fn(y + e) - fn(y - e)) / (2.0 * h) for e in h * np.eye(len(y))])


def _fd_riemann_oracle(chart, y):
    """Levi-Civita curvature of a finite-difference chart one point at a
    time: every g read on its own, central differences of g at the chart's
    step and of the Christoffel symbols at FD_SECOND_STEP."""
    def gam_at(p):
        dg = _central_difference(chart.g_at, p, chart.mode.step)
        return christoffel(np.linalg.inv(Metric(chart.g_at(p)).gram), dg)

    return _assemble_curvature(gam_at(y), _central_difference(gam_at, y, FD_SECOND_STEP))


class TestFdRiemann:
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_stacked_stencil_matches_pointwise_oracle(self, name):
        chart = gallery_chart(name).with_mode(DerivativeMode("fd"))
        for y in sample_points(chart, 3, seed=13):
            assert np.array_equal(PointGeometry(chart, y).riem.comps,
                                  _fd_riemann_oracle(chart, y))


# PointGeometry fields that between them compute every cached tensor, the
# curvature tensors first
GEOMETRY_FIELDS = ("metric", "gamma", "riem", "modified_riem", "point", "horizontal_basis",
                   "dxi_skew", "nphi", "deta", "modified_nphi_reeb")


@pytest.mark.parametrize("mode, derivative_rows", [("symbolic", 1), ("fd", 10)])
def test_metric_checks_per_point_geometry(monkeypatch, mode, derivative_rows):
    # one check for the geometry's metric, one over the rows the Christoffel
    # derivative reads (y alone in symbolic mode, whose metric is already
    # checked, or the 2d stencil points), and one over the modified
    # curvature's 4d Richardson rows: `Metric` checks a point, and a stack
    # geometry checks its rows
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
    stencil = [(derivative_rows, 5, 5)] if derivative_rows > 1 else []
    assert shapes == [(5, 5), *stencil, (20, 5, 5)]


@pytest.mark.parametrize("mode", ["symbolic", "fd"])
def test_each_grid_at_the_point_is_read_once(monkeypatch, mode):
    reads = []
    original = charts.Chart._grids_at

    def counted(self, name, points):
        reads.append((name, np.asarray(points).tolist()))
        return original(self, name, points)

    monkeypatch.setattr(charts.Chart, "_grids_at", counted)
    chart = gallery_chart("s5").with_mode(DerivativeMode.parse(mode))
    y = sample_points(chart, 1, seed=3)[0]
    pg = PointGeometry(chart, y)
    for name in GEOMETRY_FIELDS:
        getattr(pg, name)
    at_y = [name for name, rows in reads if rows == [y.tolist()]]
    grids = ["g", "dg", "ddg", "xi", "eta", "dxi", "phi", "dphi", "deta"]
    if mode == "fd":
        grids.remove("ddg")
    assert sorted(at_y) == sorted(grids)
    # the modified curvature's 4d Richardson rows, read as one stack per
    # grid; in fd mode the Christoffel derivative also reads g and dg at the
    # coarse stencil, which is the stencil of FD_SECOND_STEP, as one stack
    h = FD_SECOND_STEP
    coarse = stencil_points(y, h).tolist()
    richardson = [*coarse, *stencil_points(y, h / 2.0).tolist()]
    touching = Counter((name, len(rows)) for name, rows in reads
                       if any(row in richardson for row in rows))
    stacks = Counter((name, len(rows)) for name, rows in reads
                     if rows in (richardson, coarse))
    expected = {(name, 20): 1 for name in ("g", "dg", "xi", "eta", "dxi")}
    if mode == "fd":
        expected.update({("g", 10): 1, ("dg", 10): 1})
    assert touching == stacks == expected


def _read_grid_by_grid(chart, points, fields):
    """Oracle for a stack geometry: g at every row in turn, each metric
    checked right after its row, then each of ``fields`` ("dg", "xi", ...)
    at every row in turn, one point at a time."""
    grams = [Metric(chart.g_at(y)).gram for y in points]
    return (np.array(grams),
            *(np.array([chart._grid_at(name, y) for y in points]) for name in fields))


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
        # a non-positive-definite metric and a dg error at the same row
        ("g[1][1] = sqrt(x1) - 1", "symbolic", [[4.0], [0.0]], ("dg",)),
        # xi fails at row 0, but the metric at row 1 is checked first
        ("g[1][1] = 1 - x1\nxi[1] = 1 / x1", "symbolic", [[0.0], [2.0]], ("xi",)),
        # a g error at row 0, a degenerate metric at row 1
        ("g[1][1] = sqrt(x1)", "symbolic", [[-1.0], [0.0]], ("dg",)),
        # g fails at row 2; dg, whose stencil at row 1 steps below 0, comes after
        ("g[1][1] = 1 + sqrt(x1)", "fd", [[1.0], [5e-6], [-1.0]], ("dg",)),
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

    @pytest.mark.parametrize("y", [[0.5], [[[0.5, 0.3]]], [[0.5, 0.3, 0.1]], 0.5])
    def test_points_must_be_a_point_or_a_stack(self, sphere, y):
        with pytest.raises(ShapeError):
            PointGeometry(sphere, y)


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
                                   pg.inner(a @ e[1], e[4]) * xi, atol=1e-12)
        np.testing.assert_allclose(pair(e[1], e[2]), np.zeros(5), atol=1e-12)

    def test_vanishes_on_cosymplectic(self):
        chart = gallery_chart("cosymplectic_r5")
        h = PointGeometry(chart, np.zeros(5)).correction
        assert np.max(np.abs(h)) == 0.0


def _stencil_oracle(chart, y):
    """Modified curvature one stencil point at a time: a `PointGeometry` at
    each point, central differences at FD_SECOND_STEP and half of it, one
    Richardson step."""
    def gam_at(p):
        pg = PointGeometry(chart, p)
        return pg.gamma + pg.correction

    coarse = _central_difference(gam_at, y, FD_SECOND_STEP)
    fine = _central_difference(gam_at, y, FD_SECOND_STEP / 2.0)
    return _assemble_curvature(gam_at(y), (4.0 * fine - coarse) / 3.0)


# the PointGeometry attribute holding each curvature tensor, by the function
# that assembles it
TENSORS = {"riemann": "riem", "modified_riemann": "modified_riem"}

# 3-D charts that fail at the stencil point y - FD_SECOND_STEP e_1 of
# STENCIL_Y, before any other stencil point or the centre itself
STENCIL_TEXT = ("dim = 3\ng[2][2] = 1\ng[3][3] = 1\nphi[2][1] = 1\nphi[1][2] = -1\n"
                "xi[3] = 1\neta[3] = 1\n")
STENCIL_Y = (5e-5, 0.1, 0.2)


class TestModifiedRiemann:
    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    @pytest.mark.parametrize("name", ["s5", "sasakian_r5", "cosymplectic_r5"])
    def test_stacked_stencil_matches_pointwise_oracle(self, name, mode):
        chart = gallery_chart(name).with_mode(DerivativeMode.parse(mode))
        for y in sample_points(chart, 3, seed=13):
            assert np.array_equal(PointGeometry(chart, y).modified_riem.comps,
                                  _stencil_oracle(chart, y))

    @pytest.mark.parametrize("g11, error, message", [
        ("sqrt(x1)", EvalError,
         "g[1][1] at point [-5e-05, 0.1, 0.2]: square root of negative value -5e-05 "
         "in 'sqrt(x1)'"),
        ("x1", DegenerateInputError,
         "gram matrix is not positive definite (min eigenvalue -5.000e-05)"),
        # the metric check at y - h e_1 comes before the failing g read at y - h e_3
        ("x1 + 0*sqrt(x3 - 0.2)", DegenerateInputError,
         "gram matrix is not positive definite (min eigenvalue -5.000e-05)"),
    ])
    def test_first_failing_stencil_point_names_the_error(self, g11, error, message):
        chart = chart_from_text(STENCIL_TEXT + f"g[1][1] = {g11}\n")
        with pytest.raises(error) as excinfo:
            PointGeometry(chart, STENCIL_Y).modified_riem
        assert str(excinfo.value) == message

    def test_richardson_stack_reads_grid_by_grid(self):
        # xi fails at y - h e_2, a row before the first non-positive-definite
        # metric at y - h e_3; the stack reads and checks g over all of its
        # rows before it reads xi
        text = STENCIL_TEXT.replace("xi[3] = 1\n", "xi[3] = 1 + 0*sqrt(x2 - 0.1)\n")
        chart = chart_from_text(text + "g[1][1] = x3 - 0.19991\n")
        with pytest.raises(DegenerateInputError) as excinfo:
            PointGeometry(chart, STENCIL_Y).modified_riem
        assert str(excinfo.value) == ("gram matrix is not positive definite "
                                      "(min eigenvalue -1.000e-05)")

    # In fd mode every read of a derivative grid is itself a stencil of g
    # reads at step 1e-5. ``fn`` names the function that assembles the
    # tensor.
    @pytest.mark.parametrize("fn, g11, error, message", [
        *((fn, "sqrt(x1)", EvalError,
           "g[1][1] at point [-5e-05, 0.1, 0.2]: square root of negative value -5e-05 "
           "in 'sqrt(x1)'") for fn in TENSORS),
        *((fn, "x1", DegenerateInputError,
           "gram matrix is not positive definite (min eigenvalue -5.000e-05)")
          for fn in TENSORS),
        # the first dg read already steps below x3 = 0.2: riemann's at y,
        # modified_riemann's at its first stencil point y + h e_1
        ("riemann", "x1 + 0*sqrt(x3 - 0.2)", EvalError,
         "g[1][1] at point [5e-05, 0.1, 0.19999]: square root of negative value -1e-05 "
         "in 'sqrt(x3 - 0.2)'"),
        # modified_riemann reads g over all 4d Richardson rows first: the
        # metric at y - h e_1 fails before the g read at y - h e_3
        ("modified_riemann", "x1 + 0*sqrt(x3 - 0.2)", DegenerateInputError,
         "gram matrix is not positive definite (min eigenvalue -5.000e-05)"),
        # the metric check at y - h e_1 comes before the failing g read at y - h e_3
        *((fn, "x1 + 0*sqrt(x3 - 0.19995)", DegenerateInputError,
           "gram matrix is not positive definite (min eigenvalue -5.000e-05)")
          for fn in TENSORS),
    ])
    def test_first_failing_fd_stencil_point_names_the_error(self, fn, g11, error, message):
        chart = chart_from_text(STENCIL_TEXT + f"g[1][1] = {g11}\n")
        pg = PointGeometry(chart.with_mode(DerivativeMode("fd")), STENCIL_Y)
        with pytest.raises(error) as excinfo:
            getattr(pg, TENSORS[fn])
        assert str(excinfo.value) == message

    def test_antisymmetry_survives(self, s5):
        r = PointGeometry(s5, np.zeros(5)).modified_riem
        assert r.antisymmetry_residual() < 1e-12

    def test_first_bianchi_fails_with_torsion(self, s5):
        # the cyclic identity needs a torsion-free connection; at the origin
        # of the sphere chart the violation is exactly 3
        r = PointGeometry(s5, np.zeros(5)).modified_riem
        assert r.first_bianchi_residual() == pytest.approx(3.0, abs=1e-6)


def _probes_one_at_a_time(metric, rng, count, projector=None):
    """Oracle for unit_probes: draw, project and normalize one vector at a
    time, with the same cap on consecutive redraws."""
    out = []
    while len(out) < count:
        for _ in range(MAX_PROBE_DRAWS):
            v = rng.standard_normal(metric.dim)
            if projector is not None:
                v = projector @ v
            n = metric.norm(v)
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
        got = unit_probes(pg.metric, one, 60, projector=projector)
        want = _probes_one_at_a_time(pg.metric, two, 60, projector=projector)
        assert got.shape == (5, 60)
        assert np.max(np.abs(got - want)) <= 4.4e-16
        assert one.bit_generator.state == two.bit_generator.state

    def test_rejected_rows_keep_order(self):
        metric = Metric(np.diag([1.0, 4.0, 9.0]))
        zero = [0.0, 0.0, 0.0]
        # rejections mid-batch and at the end of the first batch of 5
        rows = [[1.0, 0.0, 0.0], zero, [0.0, 2.0, 0.0], zero, zero,
                [0.0, 0.0, 3.0], zero, [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]]
        batched, looped = _ScriptedRng(rows, 3), _ScriptedRng(rows, 3)
        got = unit_probes(metric, batched, 5)
        want = _probes_one_at_a_time(metric, looped, 5)
        np.testing.assert_allclose(got, want, rtol=0, atol=4.4e-16)
        assert batched.drawn == looped.drawn == len(rows)
        accepted = np.array([r for r in rows if r != zero]).T
        np.testing.assert_allclose(got, accepted / metric.norms(accepted), atol=4.4e-16)

    @pytest.mark.parametrize("rejected", [MAX_PROBE_DRAWS - 1, MAX_PROBE_DRAWS])
    def test_cap_counts_consecutive_rejections_across_batches(self, rejected):
        metric = Metric.euclidean(3)
        rows = [[1.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * rejected + [[0.0, 1.0, 0.0]] * 2
        outcomes = []
        for draw in (unit_probes, _probes_one_at_a_time):
            rng = _ScriptedRng(rows, 3)
            try:
                outcomes.append((draw(metric, rng, 3).tolist(), rng.drawn))
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
            unit_probes(Metric.euclidean(3), rng, count)
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
            assert eta_parallel_residual(pg) < 1e-10

    def test_sasakian_skew_anticommutation_fails_exactly(self):
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        assert skew_phi_anticommutation_residual(pg) == pytest.approx(2.0)

    def test_sasakian_eta_parallel_holds(self):
        # horizontal triples never see the vertical terms of the Sasakian
        # derivative of phi
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        assert eta_parallel_residual(pg) < 1e-12

    def test_sasakian_nearly_residual_frozen(self):
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.1, 0.2, -0.1, 0.3, 0.0]))
        rng = np.random.default_rng(3)
        res = nearly_cosymplectic_residuals(pg, rng, probes=16)
        assert res["horizontal"] == pytest.approx(1.0, abs=1e-12)
        assert res["full"] <= 1.0 + 1e-12

    def test_bridge_residual(self, s5, s5_points):
        rng = np.random.default_rng(9)
        for y in s5_points:
            assert bridge_residual(PointGeometry(s5, y), rng, pairs=10) < 1e-10
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        assert bridge_residual(pg, rng, pairs=10) < 1e-12


class TestModifiedConnectionSuite:
    def test_s5(self, s5, s5_points):
        report = modified_connection_suite(_geoms(s5, s5_points), probes=6)
        assert report.verdict
        assert report["modified_curvature_mode_agreement"].residual < 1e-9

    def test_cosymplectic_trivial(self):
        chart = gallery_chart("cosymplectic_r5")
        report = modified_connection_suite(_geoms(chart, np.zeros((1, 5))), probes=4)
        assert report.verdict


class TestDefectCollapseSuite:
    def test_s5(self, s5, s5_points):
        report = defect_collapse_suite(_geoms(s5, s5_points), probes=6)
        assert report.verdict
        assert report["defect_collapse"].residual < 1e-9

    def test_sasakian_gate_open_and_identity_holds(self):
        # the Reeb-direction derivative of phi vanishes for this chart, so
        # both sides of the collapsed identity are zero
        chart = gallery_chart("sasakian_r5")
        report = defect_collapse_suite(_geoms(chart, sample_points(chart, 2, seed=5)),
                                       probes=6)
        assert report.verdict


class TestDefectFactorizationSuite:
    def test_s5(self, s5, s5_points):
        report = defect_factorization_suite(_geoms(s5, s5_points), probes=6)
        assert report.verdict
        assert report["defect_factorization"].residual < 1e-12

    def test_sasakian_gated_out(self):
        chart = gallery_chart("sasakian_r5")
        report = defect_factorization_suite(
            _geoms(chart, sample_points(chart, 2, seed=5)), probes=6)
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
        assert np.max(np.abs(factorization_lhs(pg, e[0], e[1], e[2]))) < 1e-10

    def test_rhs_with_injected_zero_curvature(self, s5):
        # dropping the curvature terms must leave exactly the four algebraic
        # shape-operator terms; frozen at the origin on frame vectors
        pg = PointGeometry(s5, np.zeros(5))
        pg.riem = CurvatureTensor(np.zeros((5,) * 4), pg.metric)  # fills the cache
        e = np.eye(5)
        out = factorization_rhs(pg, e[1], e[2], e[3])
        np.testing.assert_allclose(out, -e[2], atol=1e-14)
        phi = pg.phi
        a = pg.reeb_gradient
        x, y, z = e[1], e[2], e[3]
        manual = (pg.inner(a @ y, phi @ z) * (a @ x)
                  - pg.inner(a @ x, phi @ z) * (a @ y)
                  - pg.inner(a @ y, z) * (phi @ (a @ x))
                  + pg.inner(a @ x, z) * (phi @ (a @ y)))
        np.testing.assert_allclose(out, manual, atol=1e-14)


class TestCurvatureReconstructionSuite:
    def test_s5_with_given_constant(self, s5, s5_points):
        report = curvature_reconstruction_suite(_geoms(s5, s5_points), tuples=8, c=1.0)
        assert report.verdict
        assert report["curvature_reconstruction_full"].residual < 1e-12
        assert report["curvature_reconstruction_horizontal"].residual < 1e-12
        assert report["nabla_phi_pairing"].residual < 1e-12

    def test_s5_estimates_constant(self, s5, s5_points):
        report = curvature_reconstruction_suite(_geoms(s5, s5_points), tuples=8)
        assert report.verdict

    def test_cosymplectic_trivially_flat(self):
        chart = gallery_chart("cosymplectic_r5")
        report = curvature_reconstruction_suite(_geoms(chart, np.zeros((1, 5))), tuples=8)
        assert report.verdict

    def test_sasakian_gated_out(self):
        chart = gallery_chart("sasakian_r5")
        report = curvature_reconstruction_suite(
            _geoms(chart, sample_points(chart, 2, seed=5)), tuples=8)
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
