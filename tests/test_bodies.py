"""Support-function calculus: constructors, algebra, metrics, mixed areas."""

import numpy as np
import pytest

from setflow import bodies as B
from setflow.errors import GridMismatchError

import helpers

RNG = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# constructors


class TestConstructors:
    def test_unit_ball(self):
        # the sampled disc is the regular M-gon about it: area M tan(pi/M)
        k = B.make_ball(1.0)
        assert np.allclose(k.values, 1.0)
        assert B.area(k) == pytest.approx(helpers.sampled_disc_area(512), abs=1e-12)
        assert B.perimeter(k) == pytest.approx(2 * helpers.sampled_disc_area(512), abs=1e-12)

    def test_point_is_a_shifted_cosine(self):
        p = B.make_ball(0.0, center=(1.0, 2.0))
        theta = p.angles
        assert np.allclose(p.values, np.cos(theta) + 2 * np.sin(theta))

    def test_ball_scaling_law(self):
        assert B.area(B.make_ball(2.0)) == pytest.approx(helpers.sampled_disc_area(512, 2.0),
                                                         abs=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            B.make_ball(-0.1)

    def test_unit_square_area_and_perimeter(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        assert B.area(q) == pytest.approx(1.0, abs=1e-12)
        assert B.perimeter(q) == pytest.approx(4.0, rel=1e-12)
        assert B.validate(q) == []

    def test_segment_support_values(self):
        seg = B.make_segment(4.0)
        assert np.allclose(seg.values, 2.0 * np.abs(np.cos(seg.angles)))
        assert B.area(seg) == pytest.approx(0.0, abs=1e-12)
        assert B.validate(seg) == []

    def test_single_point_polygon(self):
        p = B.make_polygon([[3.0, 0.0]])
        assert np.allclose(p.values, 3.0 * np.cos(p.angles))
        assert B.hausdorff_distance(p, B.make_ball(0.0)) == pytest.approx(3.0)

    def test_empty_polygon_rejected(self):
        with pytest.raises(ValueError):
            B.make_polygon([])

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            B.SupportFunction2D(np.ones(7))
        with pytest.raises(ValueError):
            B.SupportFunction2D(np.ones(15))
        with pytest.raises(ValueError):
            B.SupportFunction2D(np.full(32, np.nan))


# ---------------------------------------------------------------------------
# Minkowski algebra and metric


class TestAlgebra:
    def test_ball_plus_ball(self):
        k = B.make_ball(1.0)
        assert B.hausdorff_distance(B.minkowski_add(k, k), B.make_ball(2.0)) == 0.0

    def test_translation_leaves_area_unchanged(self):
        u = helpers.random_polygon(RNG)
        shifted = B.minkowski_add(u, B.make_ball(0.0, center=(0.7, -0.3)))
        assert B.area(shifted) == pytest.approx(B.area(u), abs=1e-12)

    def test_sausage_area_against_point_sampling_oracle(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        sausage = B.minkowski_add(q, B.make_ball(1.0))
        oracle = helpers.square_plus_disc_area(1.0)
        assert B.area(sausage) == pytest.approx(oracle, abs=2e-2)

    def test_grid_mismatch_raises(self):
        with pytest.raises(GridMismatchError):
            B.minkowski_add(B.make_ball(1.0, grid_size=512),
                            B.make_ball(1.0, grid_size=256))

    def test_scale(self):
        k = B.make_ball(1.0)
        assert B.hausdorff_distance(B.scale(k, 2.0), B.make_ball(2.0)) == 0.0
        q = helpers.random_polygon(RNG)
        origin = B.scale(q, 0.0)
        assert np.all(origin.values == 0.0)
        assert B.hausdorff_distance(B.scale(q, 1.0), q) == 0.0
        with pytest.raises(ValueError):
            B.scale(k, -1.0)

    def test_hausdorff_examples(self):
        k = B.make_ball(1.0)
        assert B.hausdorff_distance(k, B.scale(k, 2.0)) == pytest.approx(1.0)
        assert B.hausdorff_distance(k, k) == 0.0
        q = helpers.random_polygon(RNG)
        moved = B.minkowski_add(q, B.make_ball(0.0, center=(1.0, 0.0)))
        assert B.hausdorff_distance(q, moved) == pytest.approx(1.0, abs=1e-12)

    def test_metric_axioms_sampled(self):
        for _ in range(20):
            u = helpers.random_polygon(RNG)
            v = helpers.random_polygon(RNG)
            w = helpers.random_polygon(RNG)
            duv = B.hausdorff_distance(u, v)
            assert duv == B.hausdorff_distance(v, u)
            assert duv <= B.hausdorff_distance(u, w) + B.hausdorff_distance(w, v) + 1e-12
        assert B.hausdorff_distance(u, u) == 0.0

    def test_translation_isometry_exact(self):
        for _ in range(10):
            u = helpers.random_polygon(RNG)
            v = helpers.random_polygon(RNG)
            w = helpers.random_polygon(RNG)
            assert (B.hausdorff_distance(B.minkowski_add(u, w), B.minkowski_add(v, w))
                    == pytest.approx(B.hausdorff_distance(u, v), abs=1e-12))


# ---------------------------------------------------------------------------
# linear images


class TestLinearImage:
    def test_ellipse_area(self):
        # against the polygon circumscribed about the ellipse on the grid
        # normals, from its exact support values
        e = B.linear_image(B.make_ball(1.0), [[2.0, 0.0], [0.0, 1.0]])
        theta = e.angles
        exact = helpers.sampled_polygon_area(np.hypot(2.0 * np.cos(theta), np.sin(theta)))
        assert B.area(e) == pytest.approx(exact, rel=1e-10)

    def test_quarter_turn_of_segment(self):
        seg = B.make_segment(6.0)
        turned = B.linear_image(seg, [[0.0, -1.0], [1.0, 0.0]])
        vertical = B.make_segment(6.0, angle=np.pi / 2)
        assert B.hausdorff_distance(turned, vertical) < 1e-12

    def test_identity_is_exact(self):
        q = helpers.random_polygon(RNG)
        assert B.hausdorff_distance(B.linear_image(q, np.eye(2)), q) == 0.0

    def test_determinant_scaling_smooth(self):
        # the bodies' areas scale by |det|; the sampled polygons have their
        # normals at the grid in both cases, so the image is compared with
        # the polygon of its exact samples |M^T p| h_u(M^T p / |M^T p|)
        for _ in range(5):
            u = helpers.random_smooth_body(RNG)
            mat = RNG.uniform(-1.2, 1.2, size=(2, 2))
            if abs(np.linalg.det(mat)) < 0.2:
                mat += np.eye(2)
            w = B.grid_directions(u.grid_size) @ mat
            exact = np.hypot(w[:, 0], w[:, 1]) * helpers.band_limited_support(
                u.values, np.arctan2(w[:, 1], w[:, 0]))
            assert (B.area(B.linear_image(u, mat))
                    == pytest.approx(helpers.sampled_polygon_area(exact), rel=1e-4))

    def test_zero_matrix_gives_origin(self):
        q = helpers.random_polygon(RNG)
        img = B.linear_image(q, np.zeros((2, 2)))
        assert np.all(img.values == 0.0)

    @pytest.mark.parametrize("angle", [0.0, np.pi / 2, 2 * np.pi / 3],
                             ids=["identity", "quarter_turn", "rotation_120"])
    def test_a_tiny_map_keeps_the_shape_of_its_image(self, angle):
        # a direction counts as vanishing relative to the largest |M^T p|
        # (the scalar, gather and spline pull-backs, in this order)
        disc = B.make_ball(1.0, grid_size=64)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        img = B.linear_image(disc, 1e-14 * rot)
        assert B.area(img) == pytest.approx(1e-28 * B.area(disc), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c", [1.0, 1e-20])
    def test_a_singular_map_zeroes_its_null_directions(self, c):
        m = 64
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]], m)
        img = B.linear_image(q, c * np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.all(img.values[[m // 4, 3 * m // 4]] == 0.0)
        assert B.hausdorff_distance(img, B.scale(B.make_segment(1.0, grid_size=m), c)) <= 1e-15 * c

    def test_rank_one_image_is_degenerate(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        img = B.linear_image(q, [[0.0, 1.0], [0.0, 0.0]])
        seg = B.make_segment(1.0)
        assert B.hausdorff_distance(img, seg) < 1e-12


# ---------------------------------------------------------------------------
# areas and mixed areas


class TestMixedArea:
    def test_mixed_of_equal_bodies_is_area(self):
        k = B.make_ball(1.0)
        assert B.mixed_area(k, k) == pytest.approx(helpers.sampled_disc_area(512), abs=1e-12)
        u = helpers.random_polygon(RNG)
        assert B.mixed_area(u, u) == pytest.approx(B.area(u), abs=1e-12)

    def test_segment_with_its_quarter_turn(self):
        for n in (4.0, 8.0):
            seg = B.make_segment(n)
            turned = B.linear_image(seg, [[0.0, -1.0], [1.0, 0.0]])
            assert B.mixed_area(seg, turned) == pytest.approx(n * n / 2, rel=1e-12)

    def test_square_with_disc_from_steiner_oracle(self):
        # fit a quadratic in rho to the point-sampling areas of Q + rho K and
        # read the mixed area off the linear coefficient
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        rhos = np.array([0.0, 0.5, 1.0])
        oracle_areas = [helpers.square_plus_disc_area(r) for r in rhos]
        c = np.polyfit(rhos, oracle_areas, 2)
        oracle_mixed = c[1] / 2.0
        assert oracle_mixed == pytest.approx(2.0, abs=2e-2)
        assert B.mixed_area(q, B.make_ball(1.0)) == pytest.approx(oracle_mixed, abs=2e-2)

    def test_symmetry_is_exact(self):
        for _ in range(10):
            u = helpers.random_polygon(RNG)
            v = helpers.random_polygon(RNG)
            a = B._mixed_form(u.values, v.values)
            b = B._mixed_form(v.values, u.values)
            assert a == pytest.approx(b, rel=1e-14, abs=1e-14)

    def test_multilinearity(self):
        u = helpers.random_polygon(RNG)
        v = helpers.random_polygon(RNG)
        w = helpers.random_polygon(RNG)
        lp, lq = 0.7, 1.3
        combo = B.minkowski_add(B.scale(w, lp), B.scale(v, lq))
        lhs = B.mixed_area(u, combo)
        rhs = lp * B.mixed_area(u, w) + lq * B.mixed_area(u, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_brunn_minkowski_slack(self):
        for _ in range(50):
            u = helpers.random_polygon(RNG)
            v = helpers.random_polygon(RNG)
            rep = B.mixed_area_report(u, v)
            assert rep.bm_slack >= -1e-6

    def test_steiner_fit_ball(self):
        k = B.make_ball(1.0)
        c0, c1, c2 = B.steiner_fit(k, k, [0.0, 1.0, 2.0])
        disc = helpers.sampled_disc_area(512)
        assert c0 == pytest.approx(disc, abs=1e-9)
        assert c1 == pytest.approx(2 * disc, abs=1e-9)
        assert c2 == pytest.approx(disc, abs=1e-9)

    def test_steiner_fit_square_disc(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        _, c1, _ = B.steiner_fit(q, B.make_ball(1.0), [0.0, 0.5, 1.0])
        assert c1 / 2 == pytest.approx(B.mixed_area(q, B.make_ball(1.0)), rel=1e-10)
        assert c1 == pytest.approx(4.0, abs=2e-2)

    def test_steiner_fit_with_point(self):
        u = helpers.random_polygon(RNG)
        p = B.make_ball(0.0, center=(0.4, 0.2))
        c0, c1, c2 = B.steiner_fit(u, p, [0.0, 1.0, 2.0, 3.0])
        assert c0 == pytest.approx(B.area(u), rel=1e-10)
        assert c1 == pytest.approx(0.0, abs=1e-10)
        assert c2 == pytest.approx(0.0, abs=1e-10)

    def test_steiner_fit_needs_three_samples(self):
        k = B.make_ball(1.0)
        with pytest.raises(ValueError):
            B.steiner_fit(k, k, [0.0, 1.0])
        with pytest.raises(ValueError):
            B.steiner_fit(k, k, [0.0, 1.0, 1.0])

    def test_steiner_consistency_random(self):
        for _ in range(20):
            u = helpers.random_polygon(RNG)
            k = B.make_ball(1.0)
            _, c1, _ = B.steiner_fit(u, k, [0.0, 0.5, 1.0])
            m = B.mixed_area(u, k)
            assert abs(c1 / 2 - m) <= 1e-6 * max(1.0, abs(m))


# ---------------------------------------------------------------------------
# Hukuhara differences


class TestHukuhara:
    def test_roundtrip(self):
        for _ in range(10):
            u = helpers.random_polygon(RNG)
            v = helpers.random_polygon(RNG)
            w = B.hukuhara_difference(B.minkowski_add(u, v), v)
            assert w is not None
            assert B.hausdorff_distance(w, u) <= 1e-6

    def test_smaller_minus_larger_ball(self):
        k = B.make_ball(1.0)
        assert B.hukuhara_difference(k, B.scale(k, 2.0)) is None

    def test_larger_minus_smaller_ball(self):
        k = B.make_ball(1.0)
        w = B.hukuhara_difference(B.scale(k, 2.0), k)
        assert w is not None
        assert B.hausdorff_distance(w, k) == 0.0

    def test_square_minus_ball_has_no_difference(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        assert B.hukuhara_difference(q, B.make_ball(0.4)) is None


# ---------------------------------------------------------------------------
# validation


class TestValidate:
    def test_ball_and_segment_are_valid(self):
        assert B.validate(B.make_ball(1.0)) == []
        assert B.validate(B.make_segment(8.0)) == []

    def test_concave_profile_is_flagged(self):
        theta = B.grid_angles(512)
        bad = B.SupportFunction2D(1.0 + 0.5 * np.cos(2 * theta))
        problems = B.validate(bad)
        assert problems and "convexity" in problems[0]

    def test_values_are_immutable(self):
        k = B.make_ball(1.0)
        with pytest.raises(ValueError):
            k.values[0] = 5.0
