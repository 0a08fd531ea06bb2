"""Unit tests for symbolic charts: evaluation, derivative grids, Christoffel
data, the exterior derivative convention and the file format."""
import importlib.util
import itertools
import math
import pathlib
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from acmslab.charts import (
    Chart,
    DerivativeMode,
    SYMBOLIC,
    chart_from_text,
    chart_to_text,
    contact_volume_coefficient,
    d_eta,
    load_chart,
    sample_points,
    save_chart,
)
from acmslab import charts, exprs
from acmslab.cli import main
from acmslab.curvature import PointGeometry
from acmslab.errors import ChartFormatError, ShapeError
from acmslab.exprs import (EvalError, Num, array_program, differentiate, evaluate, hash_cons,
                           parse, to_text)
from acmslab.gallery import GALLERY_NAMES, gallery_chart
from test_exprs import _random_expr

SPHERE_TEXT = """\
# round two-sphere in polar coordinates
dim = 2
g[1][1] = 1
g[2][2] = sin(x1)^2
domain[1] = 0.4 2.7
domain[2] = -3.0 3.0
"""

POLAR_PLANE_TEXT = """\
dim = 2
g[1][1] = 1
g[2][2] = x1^2
domain[1] = 0.5 3.0
"""


@pytest.fixture(scope="module")
def sphere():
    return chart_from_text(SPHERE_TEXT, name="sphere")


class TestDerivativeMode:
    def test_parse_symbolic(self):
        assert DerivativeMode.parse("symbolic") == SYMBOLIC

    def test_parse_fd_default_step(self):
        mode = DerivativeMode.parse("fd")
        assert mode.kind == "fd"
        assert mode.step == pytest.approx(1e-5)

    def test_parse_fd_custom_step(self):
        assert DerivativeMode.parse("fd:0.001").step == pytest.approx(1e-3)

    def test_format_round_trip(self):
        for text in ("symbolic", "fd:0.001"):
            mode = DerivativeMode.parse(text)
            assert DerivativeMode.parse(mode.format()) == mode

    def test_bad_modes(self):
        for text in ("central", "fd:abc", "fd:-1"):
            with pytest.raises(ChartFormatError):
                DerivativeMode.parse(text)

    def test_symbolic_takes_no_step(self):
        with pytest.raises(ChartFormatError):
            DerivativeMode("symbolic", 0.1)

    # a NaN step is no smaller than 0 either, and an infinite one takes
    # every difference quotient to zero
    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ChartFormatError,
                           match=f"step must be finite and positive, got {step}"):
            DerivativeMode("fd", step)


class TestChartConstruction:
    OUT_OF_RANGE = "expression 'x7 * x1' uses variables outside the chart: x7"

    def test_out_of_range_variable(self):
        text = "dim = 2\nxi[1] = x9\ng[2][2] = x1 + x3\ng[1][2] = x7 * x1\n"
        with pytest.raises(ChartFormatError) as exc:
            chart_from_text(text)
        # the first offender in the order g, phi, xi, eta, each in C order
        assert str(exc.value) == self.OUT_OF_RANGE

    def test_out_of_range_variable_in_constructor(self):
        zero, bad = Num(0.0), parse("x7 * x1")
        with pytest.raises(ChartFormatError) as exc:
            Chart(2, ((zero, bad), (bad, parse("x1 + x3"))), ((zero,) * 2,) * 2,
                  (parse("x9"), zero), (zero,) * 2)
        assert str(exc.value) == self.OUT_OF_RANGE

    def test_equal_subtrees_of_parsed_chart_are_one_object(self):
        # the S^5 metric repeats 1 - (x1^2 + ... + x5^2) in every entry
        g = [e for row in gallery_chart("s5").g for e in row]
        assert g[0].right.right is g[1].right
        distinct, stack = {}, list(g)
        while stack:
            node = stack.pop()
            if id(node) not in distinct:
                distinct[id(node)] = node
                stack.extend(getattr(node, f) for f in ("left", "right", "base", "arg")
                             if hasattr(node, f))
        assert len(distinct) == len(hash_cons(g)[0])

    def test_each_distinct_right_hand_side_is_parsed_once(self, monkeypatch):
        texts = []
        original = charts.parse

        def counting(text, nodes=None):
            texts.append(text)
            return original(text, nodes)

        monkeypatch.setattr(charts, "parse", counting)
        chart = chart_from_text("dim = 2\ng[1][1] = 1 + x1^2\ng[2][2] = 1 + x1^2\n"
                                "xi[2] = 1 + x1^2\neta[1] = x2\n")
        assert texts == ["1 + x1^2", "x2"]
        assert chart.g[0][0] is chart.g[1][1] is chart.xi[1]
        assert chart.g[0][0] == parse("1 + x1^2")

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_commands_never_differentiate_symbolically(self, monkeypatch, capsys, command):
        # every call through the module attribute, the recursive ones too
        calls = []
        original = exprs.differentiate

        def counting(e, index, memo=None):
            calls.append(e)
            return original(e, index, memo)

        monkeypatch.setattr(exprs, "differentiate", counting)
        for name in GALLERY_NAMES:
            main([command, "--gallery", name, "--probes", "2"])
        capsys.readouterr()
        assert calls == []

    @pytest.mark.parametrize("command", ["validate", "curvature", "identities"])
    def test_symbolic_commands_read_no_stencil(self, monkeypatch, capsys, command):
        # a symbolic chart differentiates both connections exactly, so no
        # finite-difference stencil is built on any command path; `charts`
        # is the only module that builds one (test_one_fd_scheme.py)
        calls = []
        original = charts.stencil_points

        def counting(y, h):
            calls.append(h)
            return original(y, h)

        monkeypatch.setattr(charts, "stencil_points", counting)
        for name in GALLERY_NAMES:
            main([command, "--gallery", name, "--probes", "2"])
        capsys.readouterr()
        assert calls == []

    def test_domain_length_checked(self):
        with pytest.raises(ShapeError):
            Chart(2, ((Num(1.0), Num(0.0)), (Num(0.0), Num(1.0))),
                  ((Num(0.0),) * 2,) * 2, (Num(0.0),) * 2, (Num(0.0),) * 2,
                  domain=((0.0, 1.0),))

    def test_empty_domain_interval(self):
        with pytest.raises(ChartFormatError):
            chart_from_text("dim = 1\ng[1][1] = 1\ndomain[1] = 2 2\n")

    # an infinite bound, a bound that overflows to inf, and a width that does
    @pytest.mark.parametrize("bounds, lo, hi", [("-inf inf", -math.inf, math.inf),
                                                ("0 1e400", 0.0, math.inf),
                                                ("-1e308 1e308", -1e308, 1e308)])
    def test_domain_must_be_finite(self, bounds, lo, hi):
        wide = "is unbounded or too wide: its bounds, width and midpoint must be finite"
        with pytest.raises(ChartFormatError) as exc:
            chart_from_text(f"dim = 1\ng[1][1] = 1\ndomain[1] = {bounds}\n")
        assert str(exc.value) == f"line 3: domain [{lo}, {hi}] {wide}"
        one, zero = (Num(1.0),), (Num(0.0),)
        with pytest.raises(ChartFormatError) as exc:
            Chart(1, (one,), (zero,), zero, zero, domain=((lo, hi),))
        assert str(exc.value) == f"domain[1] = [{lo}, {hi}] {wide}"

    def test_default_domain_is_unit_box(self):
        chart = chart_from_text("dim = 2\ng[1][1] = 1\ng[2][2] = 1\n")
        assert chart.domain == ((-1.0, 1.0), (-1.0, 1.0))

    def test_with_mode_preserves_everything_else(self, sphere):
        fd = sphere.with_mode(DerivativeMode("fd"))
        assert fd.mode.kind == "fd"
        assert fd.g == sphere.g
        assert fd.domain == sphere.domain


class TestEvaluation:
    def test_metric_at(self, sphere):
        g = sphere.g_at([math.pi / 2, 0.3])
        np.testing.assert_allclose(g, np.diag([1.0, 1.0]), atol=1e-12)

    def test_eval_error_names_component(self):
        chart = chart_from_text("dim = 1\ng[1][1] = 1 / x1\n")
        with pytest.raises(EvalError) as exc:
            chart.g_at([0.0])
        assert "g[1][1]" in str(exc.value)

    def test_point_shape_checked(self, sphere):
        with pytest.raises(ShapeError):
            sphere.g_at([1.0, 2.0, 3.0])


GRIDS = ("g", "phi", "xi", "eta", "dg", "ddg", "dphi", "dxi", "deta")

DARBOUX = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "darboux.py"


def _darboux_chart(n):
    """The benchmark's Darboux Sasakian chart on R^{2n+1}, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_darboux", DARBOUX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return chart_from_text(module.darboux_sasakian_text(n))


def _stack(chart, name, points):
    """Grid ``name`` ("g", "dg", "ddg") over the rows of ``points`` by
    `Chart._grids_at`: that derivative of its base grid's jet, and the
    error."""
    base = name.lstrip("d")
    jet, error = chart._grids_at(base, np.asarray(points, float), len(name) - len(base))
    return jet[-1], error


def _tree_walked(chart, name):
    """Grid ``name`` as a function of the point, by differentiate and
    evaluate alone: entry (m, k, i, j) of ddg is g[i][j] differentiated
    along x_k, then x_m."""
    base = name.lstrip("d")
    order = len(name) - len(base)
    comps = getattr(chart, base)
    shape = (chart.dim,) * (order + (2 if base in ("g", "phi") else 1))
    exprs = {}
    for index in np.ndindex(shape):
        comp = index[order:]
        e = comps[comp[0]] if len(comp) == 1 else comps[comp[0]][comp[1]]
        for k in reversed(index[:order]):
            e = differentiate(e, k + 1)
        exprs[index] = e

    def at(y):
        values = [float(v) for v in y]
        out = np.empty(shape)
        for index, e in exprs.items():
            out[index] = evaluate(e, values)
        return out

    return at


# The jets round differently from the symbolic derivative trees: on these
# charts the largest difference is 8.9e-16, on S^5's ddg.
ROUNDING = 8 * np.finfo(float).eps


SOURCES = {**{name: (lambda name=name: gallery_chart(name)) for name in GALLERY_NAMES},
           "polar_plane": lambda: chart_from_text(POLAR_PLANE_TEXT),
           "darboux_d9": lambda: _darboux_chart(4),
           "darboux_d13": lambda: _darboux_chart(6)}


@pytest.mark.parametrize("source", SOURCES)
def test_grids_equal_tree_walker(source):
    # the base grids bit for bit, their derivatives to rounding
    chart = SOURCES[source]()
    points = sample_points(chart, 2, seed=12)
    for name in GRIDS:
        want = _tree_walked(chart, name)
        for y in points:
            got = chart._grid_at(name, y)
            expected = want(y)
            assert got.shape == expected.shape
            if name.startswith("d"):
                assert np.all(np.abs(got - expected) <= ROUNDING * (1.0 + np.abs(expected))), \
                    (source, name, y)
            else:
                assert np.array_equal(got, expected), (source, name, y)


def _central_difference(fn, y, h):
    """out[m] = (fn(y + h e_m) - fn(y - h e_m)) / 2h, one point at a time."""
    y = np.asarray(y, float)
    return np.array([(fn(y + e) - fn(y - e)) / (2.0 * h) for e in h * np.eye(len(y))])


class TestStackedReads:
    """`Chart._grids_at` reads a stack of points as one array: the same
    numbers as reading one row at a time, and, with the rows before it, the
    error that the first failing row raises on its own."""

    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    @pytest.mark.parametrize("source", GALLERY_NAMES)
    def test_equals_row_by_row(self, source, mode):
        chart = gallery_chart(source).with_mode(DerivativeMode.parse(mode))
        points = sample_points(chart, 3, seed=21)
        for name in GRIDS:
            rows = [chart._grid_at(name, y) for y in points]
            if mode == "fd" and name.startswith("d"):
                # the central difference of the grid one order lower, read
                # one row at a time: base grids at the chart's step, first
                # derivatives at FD_SECOND_STEP
                lower = lambda p, name=name: chart._grid_at(name[1:], p)  # noqa: E731
                step = chart.mode.step if name.count("d") == 1 else charts.FD_SECOND_STEP
                rows = [_central_difference(lower, y, step) for y in points]
            got, error = _stack(chart, name, points)
            assert error is None, name
            assert np.array_equal(got, np.array(rows)), name

    @pytest.mark.parametrize("name", GRIDS)
    def test_long_stack_equals_rows_and_chunks(self, name):
        # bit for bit, signed zeros included: the origin, and -0.0 coordinates
        chart = gallery_chart("s5")
        points = sample_points(chart, 2100, seed=23)
        points[0] = 0.0
        points[1] = -0.0
        points[2, ::2] = -0.0
        got, error = _stack(chart, name, points)
        assert error is None
        for size in (1, 7):
            parts = [_stack(chart, name, points[i:i + size])
                     for i in range(0, len(points), size)]
            assert all(e is None for _, e in parts)
            assert got.tobytes() == np.concatenate([p for p, _ in parts]).tobytes(), size

    def test_intermediate_overflow_reads_as_the_tree_walker(self):
        # x1 * x1 overflows to inf in the middle row, and 1 / inf is 0.0
        chart = chart_from_text("dim = 1\ng[1][1] = 1 / (x1 * x1)\n")
        got, error = _stack(chart, "g", [[2.0], [1e200], [4.0]])
        assert error is None
        assert got.tolist() == [[[0.25]], [[0.0]], [[0.0625]]]

    def test_entries_near_the_largest_float_read_at_once(self, monkeypatch):
        # two entries near 1e308 would overflow a sum, but every value is
        # finite: no warning, and no row is flagged and walked
        monkeypatch.setattr(charts._Grid, "row_error", None)
        chart = chart_from_text("dim = 2\ng[1][1] = 1e308\ng[2][2] = 1e308 * x2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, error = _stack(chart, "dg", [[0.0, 1.0], [0.0, 1.5]])
        assert error is None
        assert got[:, 1].tolist() == [[[0.0, 0.0], [0.0, 1e308]]] * 2

    def test_overflow_returns_the_rows_before(self):
        chart = chart_from_text("dim = 2\ng[1][1] = 1\ng[2][2] = x2^2\n")
        got, error = _stack(chart, "g", [[0.0, 3.0], [0.0, 1e200], [0.0, 2.0]])
        assert got.tolist() == [[[1.0, 0.0], [0.0, 9.0]]]
        assert error.message == ("g[2][2] at point [0.0, 1e+200]: "
                                 "math error: overflow encountered in power")
        assert error.where == "x2^2"

    # x1 * x1 overflows to inf without raising; sqrt(x1) raises below 0
    @pytest.mark.parametrize("mode, name, rows, first", [
        ("symbolic", "g", [[1.0], [1e200], [-1.0]], 1),  # non-finite, then a raise
        ("symbolic", "g", [[1.0], [-1.0], [1e200]], 1),  # a raise, then non-finite
        ("symbolic", "g", [[4.0], [-1.0], [-4.0]], 1),   # two raising rows
        ("symbolic", "dg", [[4.0], [1e308], [0.0]], 1),
    ])
    def test_first_failing_row_names_the_error(self, mode, name, rows, first):
        chart = chart_from_text("dim = 1\ng[1][1] = x1 * x1 + sqrt(x1)\n")
        chart = chart.with_mode(DerivativeMode.parse(mode))
        with pytest.raises(EvalError) as alone:
            chart._grid_at(name, rows[first])
        prefix, error = _stack(chart, name, rows)
        assert isinstance(error, EvalError)
        assert str(error) == str(alone.value)
        assert error.where == alone.value.where
        assert np.array_equal(prefix, [chart._grid_at(name, y) for y in rows[:first]])

    # An fd read stacks its points before their stencil rows, and at order 2
    # the outer stencil rows before the inner ones. A failed read returns the
    # values of the points before the first failing point.
    @pytest.mark.parametrize("name, rows, failing, before", [
        # point 1's stencil steps below 0, and point 2 fails: the point first
        ("dg", [[1.0], [5e-6], [-1.0]], [-1.0], 2),
        ("dg", [[1.0], [1e200], [5e-6]], [1e200], 1),
        ("ddg", [[1.0], [5e-5], [-1.0]], [-1.0], 2),
        ("ddg", [[1.0], [1.05e-4], [-1.0]], [-1.0], 2),
        # only a stencil row fails: the values of every point
        ("dg", [[1.0], [5e-6], [2.0]], [5e-6 + -1e-5], 3),
        # an inner stencil row of point 0 (below its outer row 1.05e-4 - 1e-4)
        # and an outer stencil row of point 1 fail: the outer row first
        ("ddg", [[1.05e-4], [5e-5], [2.0]], [5e-5 + -1e-4], 3),
    ])
    def test_fd_reads_points_before_stencil_rows(self, name, rows, failing, before):
        chart = chart_from_text("dim = 1\ng[1][1] = x1 * x1 + sqrt(x1)\n")
        chart = chart.with_mode(DerivativeMode("fd"))
        with pytest.raises(EvalError) as alone:
            chart.g_at(failing)
        jet, error = chart._grids_at("g", np.array(rows), len(name) - 1)
        assert str(error) == str(alone.value)
        assert error.where == alone.value.where
        assert len(jet) == 1
        assert np.array_equal(jet[0], [chart.g_at(y) for y in rows[:before]])

    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    def test_failing_read_runs_its_program_once(self, monkeypatch, mode):
        # a 20-point xi read whose last point fails: one pass, however many
        # rows it stacks (220 on the fd chart), and the flagged row walked
        runs = []

        def counted(exprs):
            program = array_program(exprs)
            return lambda *args: runs.append(1) or program(*args)

        monkeypatch.setattr(charts, "array_program", counted)
        mode = DerivativeMode.parse(mode)
        chart = chart_from_text(chart_to_text(gallery_chart("s5").with_mode(mode)))
        points = sample_points(chart, 20, seed=5)
        points[-1] = [1.0, 1.0, 0.0, 0.0, 0.0]
        jet, error = chart._grids_at("xi", points, 1)
        assert error.message == ("xi[1] at point [1.0, 1.0, 0.0, 0.0, 0.0]: "
                                 "square root of negative value -1")
        assert len(jet[0]) == 19
        assert len(runs) == 1


def _row_by_row(chart, name, points, order):
    """Oracle for `Chart._grids_at`: its former per-row loop. The base
    grid's program runs on one row at a time, in order, and every row's
    values are walked with the tree-walker and its derivatives tested, up
    to the first row that fails. An fd read recurses as `_grids_at` does,
    over the points and then their stencil rows."""
    if order and chart.mode.kind == "fd":
        h, n = (chart.mode.step, charts.FD_SECOND_STEP)[order - 1], len(points)
        stencils = charts.stencil_points(points, h).reshape(-1, chart.dim)
        jet, error = _row_by_row(chart, name, np.concatenate([points, stencils]), order - 1)
        if error is not None:
            return [jet[0][:n]], error
        top = jet[-1][n:].reshape((n, 2 * chart.dim) + jet[-1].shape[1:])
        return [part[:n] for part in jet] + [charts.stencil_difference(top, h, 1)], None
    grid = chart._grid(name)
    rows, error = [], None
    for y in points:
        jet = grid.program(y[None], order)[0]
        error = _row_failure(grid, y.tolist(), jet)
        if error is not None:
            break
        rows.append(jet)
    return grid.shaped([np.array([row[k][0] for row in rows]).reshape(
        (len(rows),) + (chart.dim,) * k + (len(grid.exprs),)) for k in range(order + 1)]), error


def _row_failure(grid, values, jet):
    """The `EvalError` of one row whose one-row jet is ``jet``, or None: the
    first component the tree-walker rejects, else the first whose value is
    not finite, else the first non-finite derivative, in C order."""
    row = []
    try:
        for e in grid.exprs:
            row.append(evaluate(e, values))
    except EvalError as exc:
        return EvalError(f"{grid.label(len(row))} at point {values}: {exc.message}", exc.where)
    bad = [n for n, v in enumerate(row) if not math.isfinite(v)]
    if bad:
        return EvalError(f"{grid.label(bad[0])} at point {values}: non-finite value "
                         f"{row[bad[0]]!r}", to_text(grid.exprs[bad[0]]))
    for k in range(1, len(jet)):
        bad = np.flatnonzero(~np.isfinite(jet[k]))
        if bad.size:
            n = int(bad[0])
            return EvalError(f"{grid.label(n, k)} at point {values}: non-finite value "
                             f"{float(jet[k].flat[n])!r}", to_text(grid.exprs[n % len(grid.exprs)]))
    return None


def _same_read(chart, name, points, order):
    """Assert that `Chart._grids_at` and `_row_by_row` read the same bytes
    and the same error; return the error."""
    got, error = chart._grids_at(name, points, order)
    want, expected = _row_by_row(chart, name, points, order)
    assert str(error) == str(expected)
    assert getattr(error, "where", None) == getattr(expected, "where", None)
    assert [(part.shape, part.tobytes()) for part in got] == \
        [(part.shape, part.tobytes()) for part in want]
    return error


class TestOnePassOracle:
    """The one-pass reader walks only the rows its program flags: it reads
    what the former per-row loop read, error text and ``where`` included."""

    # IEEE hides each exception in the output: 1 / inf is 0.0, NaN^0 is 1.0
    @pytest.mark.parametrize("text, point, message", [
        ("1 / (1 / (x1 - 1))", 1.0, "division by zero"),
        ("sqrt(x1 - 2)^0", 0.0, "square root of negative value -2"),
        ("1 / (x1 * x1)", 1e200, None),  # reads 0.0
    ])
    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    def test_hidden_exceptions(self, text, point, message, mode):
        chart = chart_from_text(f"dim = 1\ng[1][1] = {text}\n")
        chart = chart.with_mode(DerivativeMode.parse(mode))
        points = np.array([[3.0], [point], [4.0]])
        expected = None if message is None else f"g[1][1] at point [{point}]: {message}"
        for order in (0, 1, 2):
            error = _same_read(chart, "g", points, order)
            assert (None if error is None else error.message) == expected
        if message is None:
            assert chart.g_at([point]).tolist() == [[0.0]]

    @pytest.mark.parametrize("mode", ["symbolic", "fd"])
    def test_random_expressions_and_singular_rows(self, mode):
        # a singular coordinate, at a point or one fd step away from one, is
        # 0 (a zero to a negative power), tiny (a derivative that overflows)
        # or huge (a value that overflows)
        rng = random.Random(35)
        pool = [0.0, -0.0, 1e-5, -1e-5, 1e-4, -1e-4, 1e-150, 1e-300, 1e103, 1e200]
        zero = Num(0.0)
        outcomes = Counter()
        for _ in range(200):
            g = [[_random_expr(rng, 3, exponents=range(-3, 4)) for _ in range(2)]
                 for _ in range(2)]
            chart = Chart(2, g, [[zero] * 2] * 2, [zero] * 2, [zero] * 2,
                          mode=DerivativeMode.parse(mode))
            points = np.array([[rng.choice(pool) if rng.random() < 0.25 else rng.uniform(-2, 2)
                                for _ in range(2)] for _ in range(4)])
            labels = [f" at point {y}: " for y in points.tolist()]
            for order in (0, 1, 2):
                error = _same_read(chart, "g", points, order)
                outcomes["read" if error is None
                         else "derivative" if error.message.startswith("d")
                         else "point" if any(label in error.message for label in labels)
                         else "stencil row"] += 1
        assert outcomes["read"] > 400 and outcomes["point"] > 80, outcomes
        assert outcomes["derivative" if mode == "symbolic" else "stencil row"] >= 5, outcomes


class TestGridErrors:
    """Grid methods raise the tree-walker's EvalError, with the component
    label in front, whatever the array program raised first."""

    @pytest.mark.parametrize("text,point", [
        ("1 / x1", [0.0]),        # division by zero
        ("sqrt(x1)", [-4.0]),     # square root of a negative value
        ("x1^-3", [0.0]),         # zero raised to a negative power
        ("exp(x1)", [1e6]),       # exp overflow
        ("x1^2", [1e200]),        # ** overflow
    ])
    def test_message_matches_tree_walker(self, text, point):
        chart = chart_from_text(f"dim = 1\ng[1][1] = {text}\n")
        with pytest.raises(EvalError) as tree:
            evaluate(parse(text), point)
        with pytest.raises(EvalError) as grid:
            chart.g_at(point)
        assert grid.value.message == f"g[1][1] at point {point}: {tree.value.message}"
        assert grid.value.where == tree.value.where

    def test_derivative_label(self):
        # a derivative names its base component and direction; the jet's
        # derivative is 0.5 / sqrt(0) = inf
        chart = chart_from_text("dim = 1\ng[1][1] = sqrt(x1)\n")
        with pytest.raises(EvalError) as exc:
            chart.dg_at([0.0])
        assert exc.value.message == "d g[1][1] / d x1 at point [0.0]: non-finite value inf"
        assert exc.value.where == "sqrt(x1)"

    def test_first_failing_component_in_order(self):
        # phi[1][2] fails at 1 / x2 first; sqrt(x1), shared with phi[2][1],
        # fails too, and the array program may reach it first
        chart = chart_from_text(
            "dim = 2\nphi[1][2] = 1 / x2 + sqrt(x1)\nphi[2][1] = sqrt(x1)\n")
        with pytest.raises(EvalError) as exc:
            chart.phi_at([-1.0, 0.0])
        assert exc.value.message == "phi[1][2] at point [-1.0, 0.0]: division by zero"
        assert exc.value.where == "1 / x2"

    def test_first_failing_direction_in_order(self):
        # finite values and x1 derivatives; the x2 derivative overflows
        chart = chart_from_text("dim = 2\ng[1][1] = 1\ng[2][2] = 1 + x1 + 1e308 * x2^2\n")
        with pytest.raises(EvalError) as exc:
            chart.dg_at([0.5, 1.0])
        assert exc.value.message == ("d g[2][2] / d x2 at point [0.5, 1.0]: "
                                     "non-finite value inf")
        assert exc.value.where == "1 + x1 + 1e+308 * x2^2"

    def test_non_finite_value(self):
        # finite metric and first derivatives; the second overflows to inf
        chart = chart_from_text("dim = 1\ng[1][1] = 1e307 * x1^5\n")
        chart.dg_at([1.0])
        with pytest.raises(EvalError) as exc:
            chart.ddg_at([1.0])
        assert exc.value.message == "dd g[1][1] / d x1 d x1 at point [1.0]: non-finite value inf"
        assert exc.value.where == to_text(chart.g[0][0])

    # finite stencil values whose difference overflows: at the first
    # point the difference is 0, at the second it names its derivative
    # as the symbolic chart does
    @pytest.mark.parametrize("name, text, points", [
        ("dg", "1e308 * sin(100000 * x1)", [[math.pi / 2e5], [0.0]]),
        ("ddg", "1e303 * sin(10000 * x1)", [[0.0], [math.pi / 2e4]]),
    ])
    def test_fd_difference_overflow_is_named(self, name, text, points):
        chart = chart_from_text(f"dim = 1\ng[1][1] = {text}\n")
        fd = chart.with_mode(DerivativeMode("fd"))
        with pytest.raises(EvalError) as symbolic:
            getattr(chart, f"{name}_at")(points[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jet, error = fd._grids_at("g", np.array(points), len(name) - 1)
        assert error.message == symbolic.value.message
        assert error.where == symbolic.value.where == to_text(chart.g[0][0])
        assert len(jet) == 1
        assert np.array_equal(jet[0], [fd.g_at(points[0])])

    def test_zero_gradient_meets_singular_rule(self):
        # x2 - x2 is 0 with a zero gradient: the symbolic route folds the
        # derivative of its square root to 0, while the jet's sqrt rule
        # divides by sqrt(0) and 0 * inf is NaN, so the read fails along
        # x2; g does not use x1, so its x1 derivatives are 0
        chart = chart_from_text("dim = 2\ng[1][1] = 1 + sqrt(x2 - x2)\ng[2][2] = 1\n")
        assert evaluate(differentiate(chart.g[0][0], 2), [0.5, 0.5]) == 0.0
        assert chart.g_at([0.5, 0.5]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(EvalError) as exc:
            chart.dg_at([0.5, 0.5])
        assert exc.value.message == ("d g[1][1] / d x2 at point [0.5, 0.5]: "
                                     "non-finite value nan")
        assert exc.value.where == "1 + sqrt(x2 - x2)"


class TestChristoffel:
    def test_sphere_frozen_values(self, sphere):
        theta = math.pi / 3
        gam = PointGeometry(sphere, [theta, 1.0]).gamma
        # Gam[k, i, j] has the upper index first
        assert gam[0, 1, 1] == pytest.approx(-math.sqrt(3.0) / 4.0)
        assert gam[1, 0, 1] == pytest.approx(1.0 / math.sqrt(3.0))
        assert gam[1, 1, 0] == pytest.approx(1.0 / math.sqrt(3.0))
        assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_polar_plane_frozen_values(self):
        chart = chart_from_text(POLAR_PLANE_TEXT)
        gam = PointGeometry(chart, [2.0, 0.7]).gamma
        assert gam[0, 1, 1] == pytest.approx(-2.0)
        assert gam[1, 0, 1] == pytest.approx(0.5)

    def test_symmetric_in_lower_indices(self, sphere):
        for y in sample_points(sphere, 5, seed=2):
            gam = PointGeometry(sphere, y).gamma
            np.testing.assert_allclose(gam, np.transpose(gam, (0, 2, 1)),
                                       atol=1e-12)

    def test_fd_mode_agrees(self, sphere):
        fd = sphere.with_mode(DerivativeMode("fd"))
        for y in sample_points(sphere, 5, seed=3):
            np.testing.assert_allclose(PointGeometry(fd, y).gamma,
                                       PointGeometry(sphere, y).gamma, atol=1e-8)

    def test_derivative_fd_agrees(self, sphere):
        fd = sphere.with_mode(DerivativeMode("fd"))
        for y in sample_points(sphere, 3, seed=4):
            np.testing.assert_allclose(PointGeometry(fd, y).dgamma,
                                       PointGeometry(sphere, y).dgamma,
                                       atol=1e-6)

    def test_fd_second_derivatives_are_nested_central_differences(self):
        # bit for bit the central difference at FD_SECOND_STEP of the
        # central differences at the chart's step, one point at a time; the
        # symbolic jets within 1e-6 relative, the rounding of dividing by
        # 2h * 2H = 4e-9 (largest seen 9.7e-8, on g)
        chart = gallery_chart("s5")
        fd = chart.with_mode(DerivativeMode("fd"))

        def nested(name, y):
            def first(p):
                return _central_difference(lambda q: fd._grid_at(name, q), p, fd.mode.step)

            return _central_difference(first, y, charts.FD_SECOND_STEP)

        for y in sample_points(fd, 3, seed=5):
            ddxi = fd._grids_at("xi", y[None], 2)[0][2][0]
            for name, got in (("g", fd.ddg_at(y)), ("xi", ddxi)):
                exact = chart._grid_at("dd" + name, y)
                assert np.array_equal(got, nested(name, y)), name
                assert np.all(np.abs(got - exact) <= 1e-6 * (1.0 + np.abs(exact))), name


class TestStructureDerivatives:
    def test_nabla_xi_flat(self):
        chart = chart_from_text("dim = 2\ng[1][1] = 1\ng[2][2] = 1\nxi[1] = x2\n")
        op = PointGeometry(chart, [0.2, 0.4]).reeb_gradient
        np.testing.assert_allclose(op, [[0.0, 1.0], [0.0, 0.0]], atol=1e-13)

    def test_nabla_phi_flat(self):
        chart = chart_from_text(
            "dim = 2\ng[1][1] = 1\ng[2][2] = 1\nphi[1][2] = x1\n")
        table = PointGeometry(chart, [0.3, 0.1]).nphi
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = 1.0
        np.testing.assert_allclose(table, expected, atol=1e-13)

    def test_d_eta_antisymmetrization(self):
        chart = chart_from_text("dim = 2\ng[1][1] = 1\ng[2][2] = 1\neta[1] = x2\n")
        mat = d_eta(PointGeometry(chart, [0.0, 0.0]).deta)
        np.testing.assert_allclose(mat, [[0.0, -0.5], [0.5, 0.0]], atol=1e-14)

    def test_d_eta_of_closed_form_vanishes(self):
        # eta = d(x1 x2) is exact, so its exterior derivative is zero
        chart = chart_from_text(
            "dim = 2\ng[1][1] = 1\ng[2][2] = 1\neta[1] = x2\neta[2] = x1\n")
        np.testing.assert_allclose(d_eta(PointGeometry(chart, [0.7, -0.3]).deta), np.zeros((2, 2)),
                                   atol=1e-13)


def test_contact_volume_coefficient_dim3():
    eta = np.array([0.0, 0.0, 1.0])
    deta = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert contact_volume_coefficient(eta, deta) == pytest.approx(1.0)
    assert contact_volume_coefficient(eta, np.zeros((3, 3))) == 0.0


def _perm_sum(eta, deta):
    """The definition of the contact volume coefficient, summed over all d!
    permutations: works on floats and on Fractions."""
    d = len(eta)
    n = (d - 1) // 2
    total = 0
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[a] > perm[b] for a in range(d) for b in range(a + 1, d))
        term = (-1) ** inversions * eta[perm[0]]
        for p in range(n):
            term *= deta[perm[1 + 2 * p]][perm[2 + 2 * p]]
        total += term
    return total / 2 ** n


class TestContactVolumePfaffian:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_matches_permutation_sum(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(4):
            eta = rng.normal(size=d)
            a = rng.normal(size=(d, d))
            for deta in (a - a.T, a):  # the sum only sees the skew part
                expected = _perm_sum(eta, deta)
                got = contact_volume_coefficient(eta, deta)
                assert np.sign(got) == np.sign(expected)
                assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_exact_at_fd_s5_points(self):
        # eta and d eta at the fd S^5 points of the validate_s5_fd golden case;
        # against the exact rational value of the same float inputs
        chart = gallery_chart("s5").with_mode(DerivativeMode.parse("fd"))
        for y in sample_points(chart, 4, seed=17):
            pg = PointGeometry(chart, y)
            exact = _perm_sum([Fraction(v) for v in pg.eta],
                              [[Fraction(v) for v in row] for row in pg.deta])
            got = contact_volume_coefficient(pg.eta, pg.deta)
            assert abs(Fraction(got) - exact) <= Fraction(4e-16) * abs(exact)

    def test_closed_form_is_exactly_zero(self):
        eta = np.random.default_rng(0).normal(size=5)
        assert contact_volume_coefficient(eta, np.zeros((5, 5))) == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_leading_eta_pivots(self, sign):
        # the first pivot column of the bordered matrix is -eta; a zero
        # leading entry forces a row and column swap, which flips the sign
        eta = np.array([0.0, 0.0, 0.0, 0.0, sign])
        deta = np.zeros((5, 5))
        deta[0, 1], deta[2, 3] = 1.0, 2.0
        deta = deta - deta.T
        assert contact_volume_coefficient(eta, deta) == sign * 4.0  # 2! * 1 * 2
        assert _perm_sum(eta, deta) == sign * 4.0

    def test_even_dimension_is_zero(self):
        # the bordered matrix has odd size, so its Pfaffian vanishes
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        assert contact_volume_coefficient(rng.normal(size=4), a - a.T) == 0.0


class TestStackedPfaffian:
    """The batched Parlett-Reid elimination pivots each matrix on its own and
    gives, matrix by matrix, exactly the one-matrix Pfaffian."""

    @staticmethod
    def _skew(rng, size):
        a = rng.normal(size=(size, size))
        return a - a.T

    def test_matches_per_matrix(self):
        rng = np.random.default_rng(12)
        mats = [self._skew(rng, 6) for _ in range(5)]
        mats[1][0, :] = mats[1][:, 0] = 0.0  # column 0 zero: a zero pivot
        # the largest entry of column 0 sits two rows under the diagonal: a swap
        mats[2][1:, 0] = [1e-3, 5.0, -0.2, 0.1, 0.3]
        mats[2][0, 1:] = -mats[2][1:, 0]
        stack = np.array(mats)
        got = charts._pfaffian(stack)
        want = [charts._pfaffian(m) for m in mats]
        assert all(isinstance(w, float) for w in want)
        assert got.shape == (5,) and got.tolist() == want
        assert want[1] == 0.0 and want[2] != 0.0
        assert charts._pfaffian(stack.reshape(5, 1, 6, 6)).shape == (5, 1)

    def test_odd_size_is_zero(self):
        rng = np.random.default_rng(13)
        stack = np.array([self._skew(rng, 5) for _ in range(3)])
        assert charts._pfaffian(stack).tolist() == [0.0, 0.0, 0.0]
        assert charts._pfaffian(stack[0]) == 0.0

    def test_contact_volume_per_row(self):
        rng = np.random.default_rng(14)
        eta, deta = rng.normal(size=(4, 7)), rng.normal(size=(4, 7, 7))
        eta[2, 0] = 0.0  # the first pivot column of the bordered matrix is -eta
        got = contact_volume_coefficient(eta, deta)
        assert got.tolist() == [contact_volume_coefficient(e, d) for e, d in zip(eta, deta)]


class TestSamplePoints:
    def test_deterministic(self, sphere):
        a = sample_points(sphere, 10, seed=42)
        b = sample_points(sphere, 10, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_respects_shrunk_domain(self, sphere):
        pts = sample_points(sphere, 200, seed=1)
        lo = np.array([b[0] for b in sphere.domain])
        hi = np.array([b[1] for b in sphere.domain])
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        assert np.all(pts <= center + 0.9 * half + 1e-12)
        assert np.all(pts >= center - 0.9 * half - 1e-12)


def _entries(chart) -> list:
    return [e for name in ("g", "phi", "xi", "eta")
            for e in charts._components(name, getattr(chart, name), chart.dim)[1]]


def _component_texts(text: str) -> list[str]:
    """The right-hand side of each component line of a chart file."""
    return [line.split("=", 1)[1] for line in text.splitlines()
            if line.startswith(("g[", "phi[", "xi[", "eta["))]


class TestParsedDag:
    """`chart_from_text` reads each repeated parenthesized group from its
    node table; the DAG is the one a parse of every copy would build."""

    @pytest.mark.parametrize("mode", [SYMBOLIC, DerivativeMode("fd")], ids=["symbolic", "fd"])
    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_round_trip_keeps_components(self, name, mode):
        chart = gallery_chart(name).with_mode(mode)
        again = chart_from_text(chart_to_text(chart))
        assert _entries(again) == _entries(chart)
        assert [to_text(e) for e in _entries(again)] == [to_text(e) for e in _entries(chart)]

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_shared_table_equals_fresh_tables(self, name):
        texts = _component_texts(chart_to_text(gallery_chart(name)))
        nodes: dict = {}
        assert [parse(t, nodes) for t in texts] == [parse(t) for t in texts]

    def test_equal_groups_are_one_object(self):
        chart = chart_from_text(chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd"))))
        group = chart.g[0][1].right  # x1 * x2 / (1 - (...))
        assert to_text(group) == "1 - (x1^2 + x2^2 + x3^2 + x4^2 + x5^2)"
        assert chart.phi[1][0].right.right.arg is group  # x3 - x1 * x4 / sqrt(1 - (...))
        assert chart.xi[0].arg is group

    def test_repeated_group_is_parsed_once(self, monkeypatch):
        text = chart_to_text(gallery_chart("s5").with_mode(DerivativeMode("fd")))
        outer = exprs._TOKEN.findall("1 - (x1^2 + x2^2 + x3^2 + x4^2 + x5^2)")[:-1]
        inner = outer[3:-1]
        assert text.count("(1 - (x1^2 + x2^2 + x3^2 + x4^2 + x5^2))") == 56
        starts = []
        parse_expr = exprs._Parser.parse_expr

        def counted(parser):
            starts.append(parser.lexemes[parser.pos:])
            return parse_expr(parser)

        monkeypatch.setattr(exprs._Parser, "parse_expr", counted)
        chart_from_text(text)
        assert sum(s[:len(outer)] == outer for s in starts) == 1
        assert sum(s[:len(inner)] == inner for s in starts) == 1


class TestChartCache:
    """`chart_from_text` keeps the last ``_CACHED_CHARTS`` charts by text
    and name; a text that fails is not kept."""

    def test_same_text_and_name_give_one_chart(self):
        chart = chart_from_text(SPHERE_TEXT, name="a")
        assert chart_from_text(SPHERE_TEXT, name="a") is chart
        other = chart_from_text(SPHERE_TEXT, name="b")
        assert other is not chart and other.name == "b"
        assert chart.with_mode(chart.mode) is not chart  # a fresh chart, not a cached one

    def test_failing_text_raises_every_call(self):
        size = chart_from_text.cache_info().currsize
        messages = []
        for _ in range(2):
            with pytest.raises(ChartFormatError) as exc:
                chart_from_text("dim = 2\ng[1][1] = 1 +\n")
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert chart_from_text.cache_info().currsize == size

    def test_rewritten_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "flat.chart"
        path.write_text("dim = 1\ng[1][1] = 2\n")
        first = load_chart(path)
        assert load_chart(path) is first
        path.write_text("dim = 1\ng[1][1] = 3\n")
        again = load_chart(path)
        assert again is not first
        assert again.g_at([0.0])[0, 0] == 3.0

    def test_least_recently_used_text_is_evicted(self):
        texts = [f"dim = 1\ng[1][1] = {k + 1}\n" for k in range(charts._CACHED_CHARTS + 1)]
        made = [chart_from_text(t) for t in texts[:-1]]
        assert chart_from_text(texts[0]) is made[0]  # now texts[1] is the oldest
        chart_from_text(texts[-1])
        assert chart_from_text.cache_info().currsize == charts._CACHED_CHARTS
        assert chart_from_text(texts[0]) is made[0]
        assert chart_from_text(texts[1]) is not made[1]

    def test_second_run_on_unchanged_file_builds_nothing(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "s5.chart"
        path.write_text(chart_to_text(gallery_chart("s5")))
        builds = []

        def counted(exprs):
            builds.append(1)
            return array_program(exprs)

        monkeypatch.setattr(charts, "array_program", counted)
        argv = ["validate", "--chart", str(path), "--probes", "2", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(builds) == 4  # g, phi, xi, eta
        builds.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert builds == []


class TestFileFormat:
    def test_metric_mirroring(self):
        chart = chart_from_text("dim = 2\ng[1][1] = 1\ng[1][2] = x1\ng[2][2] = 1\n")
        assert chart.g[1][0] == parse("x1")

    def test_comments_and_blanks_ignored(self):
        text = "\n# header\ndim = 1  # trailing\n\ng[1][1] = 2  # unit scale\n"
        chart = chart_from_text(text)
        assert chart.g_at([0.0])[0, 0] == 2.0

    def test_round_trip(self, sphere):
        again = chart_from_text(chart_to_text(sphere), name="sphere")
        assert again == sphere

    def test_negative_zero_component_survives(self):
        chart = chart_from_text("dim = 1\ng[1][1] = 1\nxi[1] = -0\neta[1] = 0\n")
        text = chart_to_text(chart)
        assert "xi[1] = -0\n" in text and "eta" not in text
        again = chart_from_text(text)
        assert math.copysign(1.0, again.xi[0].value) == -1.0

    def test_round_trip_fd_mode(self):
        chart = chart_from_text(
            "dim = 1\nderivative_mode = fd:0.01\ng[1][1] = 1\ndomain[1] = 0 2\n")
        again = chart_from_text(chart_to_text(chart))
        assert again.mode == chart.mode
        assert again.domain == chart.domain

    def test_save_load(self, sphere, tmp_path):
        path = tmp_path / "sphere.chart"
        save_chart(sphere, path)
        loaded = load_chart(path, name="sphere")
        assert loaded == sphere

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_byte_order_mark_accepted(self, tmp_path, name):
        # some editors start a UTF-8 file with the byte-order mark U+FEFF
        text = chart_to_text(gallery_chart(name)).encode("utf-8")
        plain, marked = tmp_path / "plain.chart", tmp_path / "marked.chart"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_chart(marked, name=name) == load_chart(plain, name=name)

    @pytest.mark.parametrize("text,fragment", [
        ("g[1][1] = 1\n", "dim must be set before"),
        ("dim = 2\ndim = 3\n", "line 2: duplicate"),
        ("dim = one\n", "dim must be an integer"),
        ("# cap\ndim = 65\n", "line 2: dim must be at most 64, got 65"),
        ("dim = 2\ng[3][1] = 1\n", "index out of range"),
        ("dim = 2\ng[1][1] = 1 +\n", "line 2"),
        ("dim = 2\ng[1][1] = 1\ng[2][2] = 1 + $x1\n",
         "line 3, column 15: unexpected character '$'"),
        ("dim = 2\ng[1][1] = (x1 + x2)\ng[2][2] = (x1 + x2) * (x1 + x2) + y\n",
         "line 3, column 35: unknown variable name 'y'"),
        ("dim = 2\nbogus[1] = 1\n", "unrecognized field"),
        ("dim = 2\njust words\n", "expected 'name = value'"),
        ("dim = 2\ndomain[1] = 1\n", "domain wants"),
        ("dim = 2\ndomain[1] = 2 1\n", "empty domain"),
        ("dim = 2\nderivative_mode = central\n", "unknown derivative mode"),
        ("", "never sets dim"),
    ])
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ChartFormatError) as exc:
            chart_from_text(text)
        assert fragment in str(exc.value)
