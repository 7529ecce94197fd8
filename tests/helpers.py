"""Shared generators and independent oracles for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from setflow import bodies, flow

GRID = 512


def run_python(*args):
    """Run ``python ARGS`` in a fresh interpreter that imports this setflow."""
    src = str(Path(flow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


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
    if np.max(np.abs(idx - nearest)) < 1e-9:
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
    if source.kind == "linear":
        c = float(source.psi(volume))
        if c < 0:
            raise ValueError("psi must be nonnegative")
        return c * reference_image_values(values, source.matrix)
    return source.values(volume, values)


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
# the per-direction stability search: one single-state integrate per sampled
# direction, which the batched ``comparison.check_xi0_stability`` must match


def reference_check_xi0_stability(system, eps_grid=(0.1, 1.0), T_check=50.0,
                                  n_directions=64, bisect_iters=40, seed=0,
                                  rtol=1e-6, decay_factor=1e-3):
    from setflow import comparison
    from setflow.errors import BlowupError

    rng = np.random.default_rng(seed)
    dirs = rng.uniform(0.0, 1.0, size=(n_directions, system.dim))
    dirs[n_directions // 2:] /= np.maximum(
        np.max(dirs[n_directions // 2:], axis=1, keepdims=True), 1e-30)

    def survives(delta, eps, collect=None):
        for d in dirs:
            xi0 = delta * d * (1 - 1e-12)
            stop = lambda t, xi: xi[0] >= eps
            try:
                traj = comparison.integrate(system, xi0, horizon=T_check,
                                            dt_out=T_check / 32, rtol=rtol,
                                            stop_condition=stop)
            except BlowupError:
                return False
            if traj.stopped_early or np.max(traj.states[:, 0]) >= eps:
                return False
            if collect is not None:
                collect.append((xi0[0], traj.states[-1, 0]))
        return True

    table = []
    floor = 1e-12
    for eps in sorted(eps_grid):
        hi = float(eps)
        if survives(hi, eps):
            table.append((eps, hi))
            continue
        lo = 0.0
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if mid <= floor:
                break
            if survives(mid, eps):
                lo = mid
            else:
                hi = mid
        if lo <= floor:
            return comparison.StabilityVerdict(
                kind="unstable",
                witness={"failed_eps": eps, "delta_floor": floor,
                         "samples": n_directions, "T_check": T_check,
                         "delta_table": table,
                         "note": comparison.SAMPLED_EVIDENCE_NOTE})
        table.append((eps, lo))

    # a direction that fails the decay run voids the decay evidence of all
    finals = []
    failed = not survives(0.5 * min(d for _, d in table), min(e for e, _ in table),
                          collect=finals)
    decays = [] if failed else [f < decay_factor * x0 for x0, f in finals if x0 > 0]
    kind = "asymptotically_stable" if decays and all(decays) else "stable"
    witness = {"delta_table": table, "samples": n_directions, "T_check": T_check,
               "decay_checked": len(decays), "note": comparison.SAMPLED_EVIDENCE_NOTE}
    if failed:
        witness["decay_run_failed"] = True
    return comparison.StabilityVerdict(kind=kind, witness=witness)


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
