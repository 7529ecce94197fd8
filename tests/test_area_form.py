"""The area form of the sampled polygon: its algebra, an independent shoelace
oracle, Steiner's formula and a ladder over grid sizes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from setflow import bodies as B, certificates as CERT, flow as F, scenarios

import helpers

EPS = np.finfo(float).eps
SQUARE = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
# no edge normal of this triangle is a grid direction at any M below
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.3], [0.2, 0.9]])

COORDS = st.floats(-1.0, 1.0, allow_nan=False)
POINTS = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=8).map(np.array)
GRIDS = st.sampled_from([16, 64, 256, 512])
PROPERTIES = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def scale_of(*bodies):
    return max(1.0, *(float(np.abs(b.values).max()) for b in bodies))


@PROPERTIES
@given(m=GRIDS, p=POINTS, q=POINTS)
def test_the_form_is_symmetric_bit_for_bit(m, p, q):
    u, v = B.make_polygon(p, m), B.make_polygon(q + 3.0, m)
    assert B.mixed_area(u, v) == B.mixed_area(v, u)
    assert B._mixed_form(u.values, v.values) == B._mixed_form(v.values, u.values)


@PROPERTIES
@given(m=GRIDS, p=POINTS, q=POINTS, r=POINTS, a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@example(m=64, p=np.array([[1.0, 0.0]]), q=np.array([[0.5, 0.0]]), r=np.array([[0.0, 0.0]]),
         a=2.225073858507203e-309, b=0.0)
def test_the_form_is_bilinear(m, p, q, r, a, b):
    u, v, w = (B.make_polygon(x, m) for x in (p, q, r))
    combo = a * v.values + b * w.values
    lhs = B.mixed_area(u, combo)
    rhs = a * B.mixed_area(u, v) + b * B.mixed_area(u, w)
    # rounding is relative to the scale of the terms, and absolute among the
    # subnormals: a subnormal a gives lhs = 1e-322 against rhs = 0
    bound = (64 * EPS * scale_of(u) * (abs(a) * scale_of(v) + abs(b) * scale_of(w))
             + 16 * np.finfo(float).smallest_subnormal)
    assert abs(lhs - rhs) <= bound


@PROPERTIES
@given(m=GRIDS, p=POINTS, q=POINTS, shift=st.floats(-5.0, 5.0))
def test_minkowskis_inequality(m, p, q, shift):
    u, v = B.make_polygon(p, m), B.make_polygon(q + shift, m)
    slack = B.mixed_area(u, v) ** 2 - B.area(u) * B.area(v)
    assert slack >= -64 * EPS * (scale_of(u) * scale_of(v)) ** 2


@PROPERTIES
@given(m=GRIDS, p=POINTS, q=POINTS, angle=st.floats(0.0, 2.0 * np.pi),
       reach=st.floats(0.0, 1e3))
def test_translations_leave_the_form_unchanged(m, p, q, angle, reach):
    # shifted by up to 1e3 times the diameter, as in the cone fuzz
    diameter = float(np.max(np.linalg.norm(p[:, None] - p[None], axis=2)))
    shift = reach * max(diameter, 1e-3) * np.array([np.cos(angle), np.sin(angle)])
    u, far, v = B.make_polygon(p, m), B.make_polygon(p + shift, m), B.make_polygon(q, m)
    bound = 64 * EPS * scale_of(far) ** 2
    assert abs(B.area(far) - B.area(u)) <= bound
    assert abs(B.mixed_area(far, v) - B.mixed_area(u, v)) <= bound


@pytest.mark.parametrize("m", (16, 64, 512, 8192))
def test_the_form_matches_the_shoelace_area_of_the_sampled_polygon(m):
    rng = np.random.default_rng(m)
    for _ in range(20):
        u = B.make_polygon(rng.uniform(-1.0, 1.0, (rng.integers(1, 9), 2)) + rng.uniform(-3, 3, 2), m)
        v = helpers.random_smooth_body(rng, m)
        bound = 1e-12 * scale_of(u, v) ** 2
        assert abs(B.area(u) - helpers.sampled_polygon_area(u.values)) <= bound
        assert abs(B.area(v) - helpers.sampled_polygon_area(v.values)) <= bound
        # polarization: 2 V[u, v] = V[u + v] - V[u] - V[v]
        polar = 0.5 * (helpers.sampled_polygon_area(u.values + v.values)
                       - helpers.sampled_polygon_area(u.values)
                       - helpers.sampled_polygon_area(v.values))
        assert abs(B.mixed_area(u, v) - polar) <= 4 * bound


@PROPERTIES
@given(m=GRIDS, p=POINTS, r=st.floats(0.0, 10.0))
def test_steiners_formula(m, p, r):
    u, disc = B.make_polygon(p, m), B.make_ball(1.0, grid_size=m)
    inflated = B.area(B.minkowski_add(u, B.scale(disc, r)))
    assert B.perimeter(u) == pytest.approx(2.0 * B.mixed_area(u, disc), rel=1e-14, abs=1e-14)
    assert inflated == pytest.approx(B.area(u) + r * B.perimeter(u) + r * r * B.area(disc),
                                     rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# a ladder over grid sizes


@pytest.mark.parametrize("m", (16, 64, 512, 8192))
def test_the_grid_ladder(m):
    square = B.make_polygon(SQUARE + (2.0, -1.0), m)
    assert B.area(square) == pytest.approx(1.0, abs=1e-12)
    assert B.perimeter(square) == pytest.approx(4.0, abs=1e-12)
    for length in (1.0, 4.0, 100.0):
        seg = B.make_segment(length, grid_size=m)
        assert abs(B._mixed_form(seg.values, seg.values)) <= 1e-12 * length ** 2
        assert B.perimeter(seg) == pytest.approx(2.0 * length, rel=1e-12)
    assert B.area(B.make_ball(1.0, grid_size=m)) == pytest.approx(m * math.tan(math.pi / m),
                                                                  rel=1e-14)


def test_an_off_grid_triangle_converges_at_first_order():
    # the sampled polygon puts a triangle of base L and base angles adding
    # up to dtheta over each edge, of area at most L^2 tan(dtheta / 2) / 4
    edges = np.linalg.norm(TRIANGLE - np.roll(TRIANGLE, 1, axis=0), axis=1)
    exact = helpers.shoelace_area(TRIANGLE)
    errors = []
    for m in (16, 64, 512, 8192):
        u = B.make_polygon(TRIANGLE, m)
        assert B.area(u) == pytest.approx(helpers.sampled_polygon_area(u.values), abs=1e-12)
        errors.append(B.area(u) - exact)
        assert 0.0 < errors[-1] <= np.sum(edges ** 2) * math.tan(math.pi / m) / 4
    assert all(b < a for a, b in zip(errors, errors[1:])), errors


@pytest.mark.parametrize("m", (16, 64, 512))
def test_segment_growth_has_area_from_its_first_step(m):
    # the FFT quadrature read the segment as -0.029 (M=512) to -0.97 (M=16),
    # so its clamped area stayed 0 for the first steps
    params = scenarios.parse_scenario(scenarios.builtin_scenarios()["segment_growth"]).params
    traj = F.evolve(B.make_segment(4.0, grid_size=m), params, horizon=5e-3, dt=1e-3,
                    tracked={"V": B.area})
    volumes = traj.tracked["V"]
    assert np.all(volumes[1:] > 0.0)
    exact = [CERT.segment_growth_value(t, 4.0) for t in traj.times[1:]]
    np.testing.assert_allclose(volumes[1:], exact, rtol=1e-6)
