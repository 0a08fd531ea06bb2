"""Unit tests for the built-in chart gallery and the seven-dimensional cross
product behind the sphere chart."""
import numpy as np
import pytest

from acmslab.charts import chart_from_text, chart_to_text, sample_points
from acmslab.curvature import PointGeometry, contact_residuals, killing_residual
from acmslab.errors import PreconditionError
from acmslab.gallery import (
    FANO_TRIPLES,
    GALLERY_NAMES,
    cayley_structure_tensor,
    gallery_chart,
    nearly_kahler_j,
    octonion_cross,
)
from acmslab.structure import validate_acms


def _unit(v):
    return np.asarray(v, float) / np.linalg.norm(v)


class TestOctonionCross:
    def test_multiplication_table(self):
        eye = np.eye(7)
        for (i, j, k) in FANO_TRIPLES:
            np.testing.assert_allclose(octonion_cross(eye[i - 1], eye[j - 1]),
                                       eye[k - 1], atol=1e-14)
            np.testing.assert_allclose(octonion_cross(eye[j - 1], eye[k - 1]),
                                       eye[i - 1], atol=1e-14)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u, v = rng.normal(size=7), rng.normal(size=7)
            np.testing.assert_allclose(octonion_cross(u, v),
                                       -octonion_cross(v, u), atol=1e-12)

    def test_orthogonal_to_factors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v = rng.normal(size=7), rng.normal(size=7)
            w = octonion_cross(u, v)
            assert abs(w @ u) < 1e-11
            assert abs(w @ v) < 1e-11

    def test_norm_identity(self):
        # |u x v|^2 = |u|^2 |v|^2 - <u, v>^2, as for the three-dimensional
        # cross product
        rng = np.random.default_rng(4)
        for _ in range(20):
            u, v = rng.normal(size=7), rng.normal(size=7)
            w = octonion_cross(u, v)
            want = (u @ u) * (v @ v) - (u @ v) ** 2
            assert w @ w == pytest.approx(want, rel=1e-10)

    def test_structure_tensor_totally_antisymmetric(self):
        c = cayley_structure_tensor()
        np.testing.assert_allclose(c, -np.transpose(c, (1, 0, 2)), atol=1e-14)
        np.testing.assert_allclose(c, -np.transpose(c, (0, 2, 1)), atol=1e-14)

    def test_structure_tensor_immutable(self):
        with pytest.raises(ValueError):
            cayley_structure_tensor()[0, 0, 0] = 1.0


class TestNearlyKahlerJ:
    def test_square_on_tangent_space(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = _unit(rng.normal(size=7))
            j = nearly_kahler_j(p)
            v = rng.normal(size=7)
            v -= (v @ p) * p
            np.testing.assert_allclose(j @ (j @ v), -v, atol=1e-10)
            assert np.linalg.norm(j @ p) < 1e-12

    def test_tangent_isometry(self):
        rng = np.random.default_rng(6)
        p = _unit(rng.normal(size=7))
        j = nearly_kahler_j(p)
        v = rng.normal(size=7)
        v -= (v @ p) * p
        assert np.linalg.norm(j @ v) == pytest.approx(np.linalg.norm(v))

    def test_requires_unit_point(self):
        with pytest.raises(PreconditionError):
            nearly_kahler_j(np.ones(7))


class TestGalleryAccess:
    def test_names(self):
        assert GALLERY_NAMES == ("s5", "sasakian_r5", "cosymplectic_r5")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            gallery_chart("s7")

    def test_charts_cached(self):
        assert gallery_chart("s5") is gallery_chart("s5")

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_round_trip_through_file_format(self, name):
        chart = gallery_chart(name)
        again = chart_from_text(chart_to_text(chart), name=chart.name)
        assert again == chart

    @pytest.mark.parametrize("name", GALLERY_NAMES)
    def test_structures_validate_at_sample_points(self, name):
        chart = gallery_chart(name)
        for y in sample_points(chart, 6, seed=13):
            assert validate_acms(PointGeometry(chart, y).point).verdict


class TestSphereChart:
    def test_origin_tensors_frozen(self):
        s5 = gallery_chart("s5")
        origin = np.zeros(5)
        np.testing.assert_allclose(s5.g_at(origin), np.eye(5), atol=1e-14)
        e1 = np.eye(5)[0]
        pg = PointGeometry(s5, origin)
        np.testing.assert_allclose(pg.xi, e1, atol=1e-14)
        np.testing.assert_allclose(pg.eta, e1, atol=1e-14)
        phi = np.zeros((5, 5))
        phi[1, 3], phi[2, 4] = -1.0, 1.0
        phi[3, 1], phi[4, 2] = 1.0, -1.0
        np.testing.assert_allclose(s5.phi_at(origin), phi, atol=1e-14)

    def test_origin_reeb_gradient_frozen(self):
        s5 = gallery_chart("s5")
        a = np.zeros((5, 5))
        a[1, 4], a[2, 3] = -1.0, -1.0
        a[3, 2], a[4, 1] = 1.0, 1.0
        np.testing.assert_allclose(PointGeometry(s5, np.zeros(5)).reeb_gradient, a,
                                   atol=1e-12)

    def test_contact_at_origin_frozen(self):
        pg = PointGeometry(gallery_chart("s5"), np.zeros(5))
        sigma, volume = contact_residuals(pg)
        assert sigma == pytest.approx(1.0)
        assert volume == pytest.approx(2.0)

    def test_reeb_is_killing(self):
        s5 = gallery_chart("s5")
        for y in sample_points(s5, 5, seed=21):
            assert killing_residual(PointGeometry(s5, y)) < 1e-9


class TestSasakianChart:
    def test_reeb_gradient_is_minus_phi(self):
        chart = gallery_chart("sasakian_r5")
        for y in sample_points(chart, 6, seed=31):
            a = PointGeometry(chart, y).reeb_gradient
            phi = chart.phi_at(y)
            assert np.max(np.abs(a + phi)) < 1e-12

    def test_contact_frozen(self):
        chart = gallery_chart("sasakian_r5")
        pg = PointGeometry(chart, np.array([0.2, -0.3, 0.1, 0.4, 0.25]))
        sigma, volume = contact_residuals(pg)
        assert sigma == pytest.approx(1.0)
        assert volume == pytest.approx(1.0 / 16.0)

    def test_reeb_is_killing(self):
        chart = gallery_chart("sasakian_r5")
        for y in sample_points(chart, 5, seed=33):
            assert killing_residual(PointGeometry(chart, y)) < 1e-12


class TestCosymplecticChart:
    def test_contact_form_closed(self):
        chart = gallery_chart("cosymplectic_r5")
        for y in sample_points(chart, 5, seed=41):
            np.testing.assert_allclose(PointGeometry(chart, y).deta, np.zeros((5, 5)),
                                       atol=1e-15)

    def test_contact_fails_exactly(self):
        chart = gallery_chart("cosymplectic_r5")
        sigma, volume = contact_residuals(PointGeometry(chart, np.zeros(5)))
        assert sigma == 0.0
        assert volume == 0.0

    def test_reeb_gradient_vanishes(self):
        chart = gallery_chart("cosymplectic_r5")
        assert np.max(np.abs(PointGeometry(chart, np.zeros(5)).reeb_gradient)) == 0.0
