"""Unit tests for the report primitives."""
import math

import pytest

from acmslab.report import Check, VerificationReport, least, worst


def test_below_boundary_is_strict():
    assert Check.below("x", 0.5, 1.0).passed
    assert not Check.below("x", 1.0, 1.0).passed


def test_above_boundary_is_strict():
    assert Check.above("x", 2.0, 1.0).passed
    assert not Check.above("x", 1.0, 1.0).passed


def test_flag_encoding():
    ok = Check.flag("x", True)
    assert ok.passed and ok.residual == 0.0
    bad = Check.flag("x", False)
    assert not bad.passed and bad.residual == 1.0


def test_to_dict_uses_pass_key():
    d = Check.below("x", 0.1, 1.0).to_dict()
    assert d == {"name": "x", "residual": 0.1, "tolerance": 1.0, "pass": True}


def test_report_verdict_and_lookup():
    report = VerificationReport.of([Check.flag("a", True), Check.flag("b", False)])
    assert not report.verdict
    assert report["a"].passed
    with pytest.raises(KeyError):
        report["c"]


def test_merged_preserves_order():
    one = VerificationReport.of([Check.flag("a", True)])
    two = VerificationReport.of([Check.flag("b", True)])
    assert [c.name for c in one.merged(two).checks] == ["a", "b"]


def test_format_table_lines():
    report = VerificationReport.of([Check.below("ok", 1e-12, 1e-8),
                                    Check.below("broken", 2.0, 1e-8)])
    lines = report.format_table().splitlines()
    assert lines[0].startswith("[PASS] ok")
    assert lines[1].startswith("[FAIL] broken")
    assert "residual=2.000000e+00" in lines[1]


@pytest.mark.parametrize("values, expected", [
    ([], 0.0),
    ([0.5, 2.0, 1.0], 2.0),
    ([-0.0], 0.0),
    ([-3.0], 0.0),
])
def test_worst_is_max_floored_at_zero(values, expected):
    got = worst(values)
    assert got == expected
    assert math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("values, expected", [
    ([], math.inf),
    ([0.5, -2.0, 1.0], -2.0),
])
def test_least_is_min_from_infinity(values, expected):
    assert least(values) == expected


@pytest.mark.parametrize("reduce", [worst, least])
@pytest.mark.parametrize("values", [[math.nan], [0.0, math.nan], [math.nan, 1.0],
                                    [1.0, math.nan, 2.0]])
def test_any_nan_gives_nan(reduce, values):
    # the builtins keep whichever operand comes first: max(0.0, nan) == 0.0
    assert math.isnan(reduce(values))
    assert math.isnan(reduce(iter(values)))
