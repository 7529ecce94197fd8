"""The discrete convex cone: the edge-length test, the polygon pull-back, and
a geometry fuzz of sourceless flows against their exact solution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import bodies as B, flow as F

import helpers

SQUARE = np.array([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
ROT120 = np.array([[np.cos(2 * np.pi / 3), -np.sin(2 * np.pi / 3)],
                   [np.sin(2 * np.pi / 3), np.cos(2 * np.pi / 3)]])
NON_NORMAL = np.array([[-1.0, 0.3], [0.0, -2.0]])
# half the cyclic k=3 ratio threshold: the least positive root of
# 3 l^3 + 14 l^2 - 16, 0.972504718287837
CYCLIC3_PSI = 0.4862523591439185


def sourceless(a_mat, clock=1.0):
    return F.SemiflowParams(A=a_mat, phi=F.constant(clock), source=F.zero_source())


@pytest.mark.parametrize("m", (16, 64, 512))
@pytest.mark.parametrize("centre", ((0.0, 0.0), (3.0, 0.0), (10.0, 0.0), (-1e3, 2e3)))
def test_a_translated_polygon_is_in_the_cone(m, centre):
    # the stencil vanishes on translations: the sampled square passes
    # wherever it sits (the old h'' + h stencil flagged the square centred
    # at (10, 0) at M=64)
    u = B.make_polygon(SQUARE + centre, m)
    assert B.validate(u) == []
    rounding = 8 * np.finfo(float).eps * np.abs(u.values).max()
    assert B.convexity_defect(u.values).min() >= -rounding


@pytest.mark.parametrize("m", (16, 64, 512))
def test_the_defect_is_the_edge_lengths_of_the_sampled_polygon(m):
    # an axis square has two grid normals per edge at M = 0 mod 4: each
    # edge's length, times sin(dtheta), sits on the normal p_j of its own
    u = B.make_polygon(SQUARE * 2.0 + (0.3, -0.7), m)
    expected = np.zeros(m)
    expected[::m // 4] = 2.0 * np.sin(2.0 * np.pi / m)
    rounding = 8 * np.finfo(float).eps * np.abs(u.values).max()
    assert np.max(np.abs(B.convexity_defect(u.values) - expected)) <= rounding


@pytest.mark.parametrize("m", (64, 512))
def test_the_rotation_of_a_square_is_exact(m):
    # the spline overshoots at the corners; the polygon formula is the
    # support of the rotated square itself (area 1.455 against 1.031 at M=64
    # with the spline and a convex projection)
    got = B.linear_image(B.make_polygon(SQUARE, m), ROT120)
    exact = B.make_polygon(SQUARE @ ROT120.T, m)
    assert B.hausdorff_distance(got, exact) <= 1e-15
    assert B._pullback_plan(ROT120.tobytes(), m).cells is not None


@pytest.mark.parametrize("m", (64, 128, 256))
def test_a_translated_square_decays_like_the_centred_one(m):
    # V(1) was 4.21, 5.25 and 1.18 at M = 64, 128, 256 against 0.135
    # before the edge-length stencil
    params = sourceless(-np.eye(2))
    far = F.evolve(B.make_polygon(SQUARE + (3.0, 0.0), m), params, 1.0, 1e-3)
    near = F.evolve(B.make_polygon(SQUARE, m), params, 1.0, 1e-3)
    v0 = far.tracked["V"][0]
    assert abs(far.tracked["V"][-1] - np.exp(-2.0) * v0) <= 1e-12 * np.exp(-2.0) * v0
    np.testing.assert_allclose(far.tracked["V"], near.tracked["V"], rtol=1e-12, atol=0)


def test_a_square_under_a_non_normal_map_converges_with_the_grid():
    # this flow blew up at t=0.115 under the spline and a convex projection;
    # what is left is the re-circumscription of each step, of order 1/2 in M
    errors = []
    for m in (64, 128, 256, 512, 1024):
        traj = F.evolve(B.make_polygon(SQUARE, m), sourceless(NON_NORMAL), 1.0, 1e-3,
                        tracked=helpers.FRAMES)
        exact = helpers.sourceless_polygon(SQUARE, NON_NORMAL, 1.0, 1.0, m)
        errors.append(B.hausdorff_distance(traj.final, exact))
        assert all(B.validate(b) == [] for b in helpers.frames(traj))
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[0] <= 2e-2 and errors[3] <= 7e-3, errors


def _cyclic3_area(times, w0, w1):
    # with B^3 = I, (W0, W1) = (V, V[u, Bu]) solve W0' = -2 W0 + 2 psi W1,
    # W1' = psi W0 + (psi - 2) W1; the modes (1, 1) and (2, -1) decay at
    # rates 2 - 2 psi and psi + 2
    a, b = (w0 + 2.0 * w1) / 3.0, (w0 - w1) / 3.0
    return (a * np.exp((2.0 * CYCLIC3_PSI - 2.0) * times)
            + 2.0 * b * np.exp(-(CYCLIC3_PSI + 2.0) * times))


@pytest.mark.parametrize("m, rtol", [(64, 2e-2), (512, 2e-3)])
def test_the_cyclic3_square_follows_its_closed_form(m, rtol):
    # it blew up at t=0.31 (M=64) and t=0.125 (M=512) under the spline and
    # a convex projection
    u0 = B.make_polygon(SQUARE, m)
    params = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                              source=F.linear_source(F.constant(CYCLIC3_PSI), ROT120))
    traj = F.evolve(u0, params, 1.0, 1e-3)
    ref = _cyclic3_area(traj.times, B.area(u0), B.mixed_area(u0, B.linear_image(u0, ROT120)))
    assert np.max(np.abs(traj.tracked["V"] - ref) / ref) <= rtol


def _ellipse(m):
    theta = B.grid_angles(m)
    return B.SupportFunction2D(np.hypot(np.cos(theta), 0.6 * np.sin(theta)))


@pytest.mark.parametrize("body", [lambda m: B.make_ball(1.0, grid_size=m), _ellipse],
                         ids=["disc", "ellipse"])
def test_smooth_bodies_keep_the_spline(monkeypatch, body):
    # every spline pull-back, whichever kernel asks for it, goes through
    # _spline_or_polygon, which falls back to the polygon off the cone
    spline_or_polygon = B._spline_or_polygon
    pullbacks, fallbacks = [], []

    def counted(values, plan):
        out = spline_or_polygon(values, plan)
        pullbacks.append(plan)
        if not np.array_equal(out, B._spline_image(values, plan)):
            fallbacks.append(plan)
        return out

    monkeypatch.setattr(B, "_spline_or_polygon", counted)
    cyclic3 = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                               source=F.linear_source(F.constant(CYCLIC3_PSI), ROT120))
    for params in (sourceless(NON_NORMAL), cyclic3):
        F.evolve(body(128), params, 1.0, 1e-3)
    assert len(pullbacks) == 3000 and fallbacks == []


# ---------------------------------------------------------------------------
# geometry fuzz: sourceless flows under a constant clock against the exact
# image of the polygon


def _generator(kind, x, y):
    """A rotating, shearing, non-normal or singular A from two numbers."""
    return {
        "rotating": np.array([[y, -x], [x, y]]),
        "shearing": np.array([[0.0, x], [0.0, 0.0]]),
        "non_normal": np.array([[-1.0, x], [0.0, -1.0 + y]]),
        "singular": np.outer([1.0, y], [x, 1.0]),
    }[kind]


def _check_sourceless_flow(points, offset, a_mat, clock, m):
    """The flow of the polygon ``points + offset`` stays in the cone and within
    the re-circumscription bound of the exact image of the polygon."""
    vertices = points + offset
    dt, steps = 1e-2, 20
    u0 = B.make_polygon(vertices, m)
    traj = F.evolve(u0, sourceless(a_mat, clock), steps * dt, dt,
                    tracked=helpers.FRAMES)                         # no BlowupError
    for body in helpers.frames(traj):
        assert B.validate(body) == []

    # each step re-circumscribes the grid polygon about the moved one, which
    # moves it by at most diameter * tan(dtheta / 2) / 2, and each later step
    # stretches that by at most |M| sec(dtheta / 2)
    exact = helpers.sourceless_polygon(vertices, a_mat, clock, steps * dt, m)
    step_map = F.expm(a_mat * (clock * dt))
    stretch = np.linalg.norm(step_map, 2) / np.cos(np.pi / m)
    widest = max(np.ptp(points @ np.linalg.matrix_power(step_map, k).T, axis=0).max()
                 for k in range(steps + 1))
    bound = steps * widest * np.sqrt(2.0) * np.tan(np.pi / m) / 2 * max(stretch, 1.0) ** steps
    # rounding is relative to the scale of the body, and absolute among the
    # subnormals: a point at (0, 5e-324) ends one subnormal from its image
    rounding = 1e-12 * np.abs(exact.values).max() + 16 * np.finfo(float).smallest_subnormal
    assert B.hausdorff_distance(traj.final, exact) <= bound + rounding
    return u0


def test_a_subnormal_point_under_rotation_stays_near_its_image():
    # a draw of the fuzz below: the point ends within a few subnormals of
    # its exact image, which only the absolute rounding term admits
    _check_sourceless_flow(np.array([[0.0, 5e-324]]), np.zeros(2),
                           _generator("rotating", 2.0, 0.0), 2.0, 16)


def test_a_tiny_rotation_is_not_snapped_to_a_gather():
    # a draw of the fuzz below: a rotation of 1e-11 rad a step, 4e-11 cells
    # at M = 16, pulls back between the nodes; a gather would snap it away,
    # and the point would not turn at all and end 2e-13 from its image
    _check_sourceless_flow(np.zeros((1, 2)), np.array([1e-3, 0.0]),
                           _generator("rotating", 1e-9, 0.0), 1.0, 16)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sourceless_flows_of_polygons_stay_in_the_cone_and_near_the_exact_image(data):
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    points = np.array(data.draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=8)))
    diameter = float(np.max(np.linalg.norm(points[:, None] - points[None], axis=2)))
    angle = data.draw(st.floats(0.0, 2.0 * np.pi))
    shift = data.draw(st.floats(0.0, 1e3)) * max(diameter, 1e-3)
    m = data.draw(st.sampled_from([16, 64, 256, 512]))
    a_mat = _generator(data.draw(st.sampled_from(["rotating", "shearing", "non_normal",
                                                  "singular"])),
                       data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-1.0, 0.5)))
    clock = data.draw(st.floats(0.5, 2.0))
    u0 = _check_sourceless_flow(points, shift * np.array([np.cos(angle), np.sin(angle)]),
                                a_mat, clock, m)

    c = data.draw(st.floats(1e-3, 1e3))
    assert np.array_equal(B.linear_image(u0, c * np.eye(2)).values, c * u0.values)
