"""Shared generators and independent oracles for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from setflow import bodies, flow

GRID = 512
# the tracked column of the frames of a run: one row of support values each
FRAMES = {"h": lambda u: u.values}


def run_python(*args):
    """Run ``python ARGS`` in a fresh interpreter that imports this setflow."""
    src = str(Path(flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def frames(traj):
    """The bodies of the ``h`` column (see ``FRAMES``) of a trajectory."""
    return [bodies.SupportFunction2D(h) for h in traj.tracked["h"]]


def random_polygon(rng, grid_size=GRID, max_vertices=10, spread=1.5):
    """Convex hull of a random point cloud (always a valid convex body)."""
    n = int(rng.integers(3, max_vertices + 1))
    pts = rng.uniform(-spread, spread, size=(n, 2))
    return bodies.make_polygon(pts, grid_size=grid_size)


def random_smooth_body(rng, grid_size=GRID):
    """Random band-limited support function, convex by construction.

    The curvature margin is kept positive: the harmonic amplitudes are small
    enough that h + h'' stays bounded away from zero, so linear images and
    flow pull-backs interpolate it with spectral accuracy.
    """
    theta = bodies.grid_angles(grid_size)
    r0 = rng.uniform(0.6, 1.4)
    h = np.full(grid_size, r0)
    shift = rng.uniform(0.0, 0.3)
    alpha = rng.uniform(0.0, 2 * np.pi)
    h += shift * np.cos(theta - alpha)
    budget = 0.7 * r0
    for k in range(2, 6):
        amp = rng.uniform(0.0, budget / (4 * (k * k - 1)))
        phase = rng.uniform(0.0, 2 * np.pi)
        h += amp * np.cos(k * theta - phase)
    return bodies.SupportFunction2D(h)


def random_mild_params(rng, grid_size=GRID):
    """Flow parameters gentle enough for the Picard contraction horizon."""
    a_mat = rng.uniform(-0.6, 0.6, size=(2, 2))
    phi = flow.constant(rng.uniform(0.3, 1.0))
    kind = rng.integers(0, 4)
    if kind == 0:
        source = flow.zero_source()
    elif kind == 1:
        source = flow.ball_source(flow.constant(rng.uniform(0.1, 0.5)))
    elif kind == 2:
        source = flow.linear_source(flow.constant(rng.uniform(0.1, 0.5)),
                                    rng.uniform(-0.7, 0.7, size=(2, 2)))
    else:
        source = flow.constant_source(
            bodies.scale(random_smooth_body(rng, grid_size), 0.3))
    return flow.SemiflowParams(A=a_mat, phi=phi, source=source)


def square_plus_disc_area(rho, half=0.5, n=3001):
    """Point-sampling oracle for the area of [−half, half]^2 + rho * disc.

    Counts midpoints of a uniform grid whose distance to the square is at
    most rho.  Independent of the support-function quadrature.
    """
    reach = half + rho + 0.05
    xs = np.linspace(-reach, reach, n)
    cell = xs[1] - xs[0]
    x, y = np.meshgrid(xs, xs, sparse=True)
    dx = np.maximum(np.abs(x) - half, 0.0)
    dy = np.maximum(np.abs(y) - half, 0.0)
    inside = dx * dx + dy * dy <= rho * rho + 1e-15
    return float(np.count_nonzero(inside)) * cell * cell


def sourceless_polygon(vertices, a_mat, clock, t, grid_size=GRID):
    """The exact body at time ``t`` of a flow with no source and a constant
    clock, from the hull of ``vertices``: ``exp(A clock t) K0``, sampled.

    The polygon's image is the hull of the images of its vertices, so its
    samples are exact up to rounding; scipy's ``expm`` is independent of
    ``flow.expm``.
    """
    from scipy.linalg import expm

    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    return bodies.make_polygon(verts @ expm(np.asarray(a_mat) * (clock * t)).T, grid_size)


def sampled_disc_area(m, radius=1.0):
    """Area of the sampled disc: the regular M-gon circumscribed about it."""
    return m * math.tan(math.pi / m) * radius * radius


def sampled_polygon_vertices(values):
    """Vertices of the polygon ``{x : <x, p_j> <= h_j}`` of the samples.

    The vertex between the normals ``p_j`` and ``p_{j+1}`` is
    ``(h_j p_{j+1} - h_{j+1} p_j)^perp / sin(dtheta)`` with
    ``(a, b)^perp = (b, -a)``: it solves ``<x, p_j> = h_j`` and
    ``<x, p_{j+1}> = h_{j+1}``.
    """
    p = bodies.grid_directions(values.size)
    q = np.roll(p, -1, axis=0)
    v = values[:, None] * q - np.roll(values, -1)[:, None] * p
    return np.column_stack([v[:, 1], -v[:, 0]]) / math.sin(2.0 * math.pi / values.size)


def shoelace_area(vertices):
    """Area of the polygon through ``vertices`` in counter-clockwise order."""
    x, y = (vertices - vertices.mean(axis=0)).T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def sampled_polygon_area(values):
    """Independent oracle of ``bodies.area``: the shoelace formula on the
    vertices of the sampled polygon."""
    return shoelace_area(sampled_polygon_vertices(values))


def band_limited_support(values, angles):
    """The trigonometric interpolant of the samples, at arbitrary angles.

    Exact for a support function without a mode at or above M/2, such as
    the bodies of :func:`random_smooth_body`.
    """
    m = values.size
    coeffs = np.fft.rfft(values)[:m // 2] / m
    weights = np.full(coeffs.size, 2.0)
    weights[0] = 1.0
    k = np.arange(coeffs.size)
    return (weights * coeffs * np.exp(1j * np.outer(angles, k))).real.sum(axis=1)


# ---------------------------------------------------------------------------
# uncached reference kernels: the plain formulas that the cached kernels in
# ``bodies`` and ``flow.step`` must reproduce bit for bit


def reference_image_values(values, mat):
    """Pull-back samples of M u, recomputing the resampling plan every call.

    The spline branch evaluates the cubic term by term instead of through
    cached cell indices and weights, and where its image leaves the convex
    cone, the support of the sampled polygon the same way.  A positive
    scalar matrix ``c I`` scales the samples: ``h_{cu} = c h_u``.
    """
    if mat[0, 1] == 0.0 and mat[1, 0] == 0.0 and mat[0, 0] == mat[1, 1] > 0.0:
        return mat[0, 0] * values
    m = values.size
    w = bodies.grid_directions(m) @ mat
    norms = np.hypot(w[:, 0], w[:, 1])
    out = np.zeros(m)
    nz = norms > 1e-14 * np.max(norms)
    if not np.any(nz):
        return out
    ang = np.arctan2(w[nz, 1], w[nz, 0])
    dtheta = 2.0 * np.pi / m
    idx = (ang / dtheta) % m
    nearest = np.rint(idx)
    if np.max(np.abs(idx - nearest)) < 16 * np.finfo(float).eps * m:
        out[nz] = norms[nz] * values[nearest.astype(int) % m]
        return out
    # periodic cubic spline: the curvatures c = (dtheta^2 / 6) h'' solve the
    # circulant system c[j-1] + 4 c[j] + c[j+1] = h[j-1] - 2 h[j] + h[j+1]
    s = np.sin(np.pi / m * np.arange(m // 2 + 1))
    s2 = s * s
    curv = np.fft.irfft(np.fft.rfft(values) * (-2.0 * s2 / (3.0 - 2.0 * s2)), m)
    cell = np.floor(idx)
    t = idx - cell
    a = 1.0 - t
    j = cell.astype(int) % m
    k = (j + 1) % m
    n = norms[nz]
    out[nz] = ((n * a) * values[j] + (n * t) * values[k]
               + (n * (-(a * t) * (1.0 + a))) * curv[j]
               + (n * (-(a * t) * (1.0 + t))) * curv[k])
    if np.all(np.isfinite(out)) and np.min(reference_convexity_defect(out)) < 0.0:
        # the polygon {x : <x, p_j> <= h_j} has the support
        # (sin(a dtheta) h_j + sin(t dtheta) h_{j+1}) / sin(dtheta) on the cell
        out[nz] = ((n * (np.sin(a * dtheta) / np.sin(dtheta))) * values[j]
                   + (n * (np.sin(t * dtheta) / np.sin(dtheta))) * values[k])
    return out


def reference_mixed_form(hu, hv):
    """The mixed area of the sampled polygons, with the periodic differences
    taken by ``np.roll`` and the coefficients recomputed every call."""
    m = hu.size
    du = np.roll(hu, -1) - hu
    dv = np.roll(hv, -1) - hv
    return (math.tan(math.pi / m) * float(np.dot(hu, hv))
            - float(np.dot(du, dv)) / (2.0 * math.sin(2.0 * math.pi / m)))


def reference_convexity_defect(values):
    """The polygon's edge lengths times sin(dtheta)."""
    return (np.roll(values, 1) + np.roll(values, -1)
            - 2.0 * np.cos(2.0 * np.pi / values.size) * values)


def _reference_area(values):
    raw = reference_mixed_form(values, values)
    return raw if raw > 0.0 else 0.0


def _reference_source(source, volume, values):
    # psi is called every time: nothing resolved by the source is read
    if source.kind in ("ball", "linear"):
        c = float(source.psi(volume))
        if c < 0:
            raise ValueError("psi must be nonnegative")
        if source.kind == "ball":
            return np.full(values.size, c)
        return c * reference_image_values(values, source.matrix)
    return source.values(volume, bodies.SupportFunction2D(values))


def _reference_linear_image(u, mat):
    if mat[0, 0] == 1.0 and mat[1, 1] == 1.0 and mat[0, 1] == 0.0 and mat[1, 0] == 0.0:
        return u
    return bodies.SupportFunction2D(reference_image_values(u.values, mat))


def reference_step(u, params, dt):
    """``flow.step`` built from the reference kernels, with nothing cached.

    ``flow.expm`` is the uncached closed form; ``flow.step`` reads it
    through the ``(A, s)`` cache ``flow._flow_matrix``.
    """
    def scaled(vals, f, factor):
        return vals if f is None else vals + factor * f

    v0 = _reference_area(u.values)
    f0 = _reference_source(params.source, v0, u.values)
    half = scaled(u.values, f0, 0.5 * dt)
    rate = params.trace * float(params.phi(v0)) * v0
    if f0 is not None:
        rate += 2.0 * reference_mixed_form(u.values, f0)
    v_mid = max(v0 + 0.5 * dt * rate, 0.0)
    phi_mid = float(params.phi(v_mid))
    start = bodies.SupportFunction2D(half)
    moved = _reference_linear_image(start, flow.expm(params.A * (phi_mid * dt)))
    # the second source half is evaluated at the predictor of the end state
    pred = scaled(moved.values, f0, 0.5 * dt)
    f1 = _reference_source(params.source, _reference_area(pred), pred)
    return bodies.SupportFunction2D(scaled(moved.values, f1, 0.5 * dt))


# ---------------------------------------------------------------------------
# the adaptive Dormand-Prince 5(4) loop as Hairer's DOPRI5 writes it: one
# state, which the right-hand side sees as a ``(dim,)`` array at a
# Python-float time, each stage and the error estimate summed term by term
# from the coefficients of the paper (Dormand and Prince, J. Comput. Appl.
# Math. 6, 1980), and the dense output in Hairer's form
# ``y0 + theta (dy + (1 - theta) (r3 + theta (r4 + (1 - theta) r5)))``.
# ``comparison.integrate``, which sums its stages and its dense output as
# matrix products, matches it to rounding (``assert_matches_reference``),
# with the same times, counters and escapes.  An accepted state whose xi_0
# reaches the ceiling escapes, as one past the guard does.

_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
# fifth-order weights minus the fourth-order ones
_DP_ERR = (35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695, 125 / 192 - 393 / 640,
           -2187 / 6784 + 92097 / 339200, 11 / 84 - 187 / 2100, -1 / 40)
_DP_DENSE = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
             -10690763975 / 1880347072, 701980252875 / 199316789632,
             -1453857185 / 822651844, 69997945 / 29380423)


def reference_step_factor(tol, err, ok):
    if ok:
        return min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
    return max(0.1, 0.9 * (tol / err) ** 0.2)


def _weighted(h, weights, slopes):
    total = 0.0 * slopes[0]
    for w, k in zip(weights, slopes):
        total = total + (h * w) * k
    return total


def reference_integrate(system, xi0, times, rtol=1e-8, ceiling=math.inf):
    from setflow.comparison import GUARD_FACTOR, STEP_ATOL, ComparisonTrajectory
    from setflow.errors import BlowupError

    xi = np.asarray(xi0, dtype=float).copy()
    assert xi.shape == (system.dim,) and np.all(xi >= 0)
    times = np.asarray(times, dtype=float)
    end, last = times[-1], len(times) - 1
    # a step ending at t reaches output j once t >= reach[j]; the output is
    # the accepted state itself unless it lies inside the step, before inside[j]
    margin = 1e-14 * end
    reach, inside = times - margin, times + margin

    guard = GUARD_FACTOR * max(1.0, float(np.max(np.abs(xi))))
    states = np.empty((len(times), system.dim))
    states[0] = xi
    nxt = 1                             # index of the next output time
    clamped = steps = rejected = 0
    t = 0.0
    h = (end / max(last, 1)) / 4.0
    k1 = system(t, xi)

    def result():
        return ComparisonTrajectory(times[:nxt], states[:nxt], clamped, steps, rejected)

    while nxt <= last:
        h_try = min(h, end - t)
        slopes = [k1]
        for c, row in zip(_DP_C, _DP_A):
            new = xi + _weighted(h_try, row, slopes)
            slopes.append(system(t + c * h_try, new))
        err = float(np.max(np.abs(_weighted(h_try, _DP_ERR, slopes))))
        tol = STEP_ATOL + rtol * max(float(np.max(np.abs(xi))),
                                     float(np.max(np.abs(new))), 1e-300)
        if err <= tol:
            t0, x0 = t, xi
            t += h_try
            xi = new
            steps += 1
            low = bool(np.any(xi < 0))
            if low:
                clamped += int(np.sum(xi < 0))
                xi = np.maximum(xi, 0.0)
            if not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > guard or xi[0] >= ceiling:
                raise BlowupError(
                    f"comparison state escaped the guard at t={t:.6g}",
                    reached_time=t, partial=result())
            k = int(np.searchsorted(inside, t))
            if k > nxt:
                theta = ((times[nxt:k] - t0) / h_try)[:, None]
                dy = new - x0
                r3 = h_try * slopes[0] - dy
                r4 = dy - h_try * slopes[6] - r3
                r5 = _weighted(h_try, _DP_DENSE, slopes)
                dense = x0 + theta * (dy + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))
                states[nxt:k] = np.maximum(dense, 0.0)
                nxt = k
            k = int(np.searchsorted(reach, t, side="right"))
            if k > nxt:
                states[nxt:k] = xi
                nxt = k
            if nxt <= last:
                k1 = system(t, xi) if low else slopes[6]
        else:
            rejected += 1
        if nxt <= last:
            h = h_try * reference_step_factor(tol, err, err <= tol)
            if h < 1e-13 * end:
                raise BlowupError("step size underflow in adaptive dopri5",
                                  reached_time=t, partial=result())
    return result()


def reference_doubling_final(system, xi0, times, rtol):
    """The last state of the adaptive RK4 by step doubling that ``integrate``
    stepped before the Dormand-Prince pair, and its right-hand side calls: the
    full step and the two half steps from one slope, 11 calls an attempt,
    the two half steps accepted and clamped to the cone, under the same
    controller; the baseline of the pair's gains."""
    from setflow.comparison import STEP_ATOL

    calls = []

    def f(t, x):
        calls.append(t)
        return system(t, x)

    def rk4(t, x, h, k1):
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    xi = np.asarray(xi0, dtype=float)
    end = float(times[-1])
    t, h = 0.0, (end / max(len(times) - 1, 1)) / 4.0
    while t < end - 1e-14 * end:
        h_try = min(h, end - t)
        k1 = f(t, xi)
        big = rk4(t, xi, h_try, k1)
        half = rk4(t, xi, 0.5 * h_try, k1)
        two = rk4(t + 0.5 * h_try, half, 0.5 * h_try, f(t + 0.5 * h_try, half))
        err = float(np.max(np.abs(big - two))) / 15.0
        tol = STEP_ATOL + rtol * max(float(np.max(np.abs(xi))),
                                     float(np.max(np.abs(two))), 1e-300)
        if err <= tol:
            t += h_try
            xi = np.maximum(two, 0.0)
        h = h_try * reference_step_factor(tol, err, err <= tol)
    return xi, len(calls)


def assert_matches_reference(run, ref, rtol=1e-8):
    """``run`` of ``comparison.integrate`` against ``ref`` of ``reference_integrate`` at
    ``rtol``, trajectories or escapes (``BlowupError``).  The two round differently,
    and the error estimate, a sum of nearly cancelling stages, carries that
    rounding into the step sizes (by some 1e-8 relative at rtol 1e-10), so they
    take the same output times and counters, end at the same time to 1e-6
    relative, and their states agree to ``rtol`` of the largest, one step's
    error allowance."""
    from setflow.errors import BlowupError

    assert isinstance(run, BlowupError) == isinstance(ref, BlowupError)
    if isinstance(ref, BlowupError):
        assert str(run).split()[:3] == str(ref).split()[:3]
        assert math.isclose(run.reached_time, ref.reached_time, rel_tol=1e-6)
        run, ref = run.partial, ref.partial
    assert np.array_equal(run.times, ref.times)
    assert ((run.clamp_events, run.steps, run.rejected)
            == (ref.clamp_events, ref.steps, ref.rejected))
    scale = float(np.max(np.abs(ref.states), initial=0.0))
    assert np.max(np.abs(run.states - ref.states), initial=0.0) <= rtol * scale


# ---------------------------------------------------------------------------
# the corner search: every level bisected on its own, each trial one run of
# ``integrate`` (by default the scalar loop ``reference_integrate``) from the
# corner of its delta box; the oracle of the deltas that
# ``comparison.check_xi0_stability`` finds in closed form


def reference_check_xi0_stability(system, eps_grid=(0.1, 1.0), T_check=50.0,
                                  bisect_iters=40, seed=0, rtol=1e-6, decay_factor=1e-3,
                                  integrate=None):
    from setflow import comparison
    from setflow.errors import BlowupError

    if system.matrix is None:
        monotone = reference_check_wazewski(system, (0.0, max(eps_grid)), seed=seed)
        if not monotone.passed:
            return comparison.StabilityVerdict(kind="inconclusive", witness={
                "wazewski": monotone, "T_check": T_check,
                "note": "not quasimonotone on [0, max eps]: the corner bounds no box"})
    times = np.linspace(0.0, T_check, 33)

    def final(delta, eps):
        start = np.full(system.dim, delta * (1 - 1e-12))
        try:
            x = (integrate or reference_integrate)(system, start, times, rtol=rtol,
                                                   ceiling=eps).states[:, 0]
        except BlowupError:
            return None
        return None if np.max(x) >= eps else x[-1]

    table = []
    floor = 1e-12
    for eps in sorted(eps_grid):
        hi = float(eps)
        if final(hi, eps) is not None:
            table.append((eps, hi))
            continue
        lo = 0.0
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if mid <= floor:
                break
            if final(mid, eps) is not None:
                lo = mid
            else:
                hi = mid
        if lo <= floor:
            return comparison.StabilityVerdict(
                kind="unstable",
                witness={"failed_eps": eps, "delta_floor": floor, "T_check": T_check,
                         "delta_table": table, "note": comparison.SAMPLED_EVIDENCE_NOTE})
        table.append((eps, lo))

    half = 0.5 * min(d for _, d in table)
    end = final(half, min(eps_grid))
    decays = end is not None and end < decay_factor * (half * (1 - 1e-12))
    return comparison.StabilityVerdict(
        kind="asymptotically_stable" if decays else "stable",
        witness={"delta_table": table, "T_check": T_check,
                 "note": comparison.SAMPLED_EVIDENCE_NOTE})


# ---------------------------------------------------------------------------
# per-sample sampled checks: one single-state right-hand side per sampled
# point, which the batched ``check_wazewski`` and ``lyapunov_quadratic_check``
# must match


def reference_check_wazewski(system, sample_box, n_samples=256, seed=0, tol=1e-9):
    from setflow import comparison

    lo, hi = comparison._box_bounds(sample_box, system.dim)
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        xi = rng.uniform(lo, hi)
        eta = xi + rng.uniform(0.0, 1.0, system.dim) * (hi - xi)
        for i in range(system.dim):
            eta_i = eta.copy()
            eta_i[i] = xi[i]
            gx = system(0.0, xi)[i]
            ge = system(0.0, eta_i)[i]
            if gx > ge + tol:
                return comparison.WazewskiReport(
                    passed=False, samples=n_samples,
                    violation={"component": i, "xi": xi, "eta": eta_i,
                               "g_xi": gx, "g_eta": ge})
    return comparison.WazewskiReport(passed=True, samples=n_samples)


def reference_lyapunov_quadratic_check(system, weights=None, sample_box=(1e-3, 10.0),
                                       n_samples=4096, seed=0):
    from setflow import comparison

    beta = np.ones(system.dim) if weights is None else np.asarray(weights, dtype=float)
    lo, hi = comparison._box_bounds(sample_box, system.dim)
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(n_samples, system.dim))
    worst, worst_pt = -np.inf, pts[0]
    for xi in pts:
        ratio = float(np.dot(beta * xi, system(0.0, xi))) / float(np.dot(beta, xi * xi))
        if ratio > worst:
            worst, worst_pt = ratio, xi
    return comparison.QuadraticDecayReport(passed=worst < 0.0, worst_ratio=worst,
                                           worst_point=worst_pt, samples=n_samples)


# ---------------------------------------------------------------------------
# clocks that a document can name, as hypothesis strategies


def _accepted_rational(num, den):
    try:
        return flow.rational(num, den)
    except ValueError:
        return None


# p/q of degree up to 2 each, q with positive coefficients (no root on the
# axis), coefficients to three decimals; the p that are negative somewhere
# on the axis are left out
COEFFICIENTS = st.integers(-1000, 2000).map(lambda n: n / 1000)
RATIONAL_CLOCKS = st.builds(
    _accepted_rational, st.lists(COEFFICIENTS, min_size=1, max_size=3),
    st.lists(st.integers(200, 2000).map(lambda n: n / 1000), min_size=1, max_size=3),
).filter(lambda f: f is not None)
TABLE_CLOCKS = st.integers(2, 5).flatmap(lambda n: st.builds(
    lambda start, gaps, values: flow.table(np.cumsum([start, *gaps]).tolist(), values),
    st.floats(0.0, 0.5), st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
