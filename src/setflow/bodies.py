"""Support-function calculus for planar convex compacts.

A convex compact ``u`` in the plane is stored as samples of its support
function ``h_u(theta) = sup_{x in u} <x, (cos theta, sin theta)>`` on a
uniform angular grid.  In this representation Minkowski sums are pointwise
sums, nonnegative scaling is pointwise scaling, the Hausdorff metric is the
sup norm of the difference, and area / mixed area are quadratic forms that
the FFT evaluates with spectral accuracy.  Degenerate compacts (segments,
single points) are first-class citizens: their support functions satisfy
``h + h'' >= 0`` only distributionally, which the discrete quadrature
handles without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_GRID_SIZE = 512
MIN_GRID_SIZE = 16

# Discrete convexity is enforced up to a tolerance proportional to the body
# scale, which keeps honest geometric violations distinguishable from
# discretization noise.
CONVEXITY_RTOL = 1e-8


def _frozen(arr):
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=32)
def _grid_cache(m: int):
    theta = np.arange(m) * (2.0 * np.pi / m)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    theta.setflags(write=False)
    dirs.setflags(write=False)
    return theta, dirs


def grid_angles(m: int) -> np.ndarray:
    """Angles theta_j = 2*pi*j/m, j = 0..m-1."""
    return _grid_cache(m)[0]


def grid_directions(m: int) -> np.ndarray:
    """Unit direction vectors (cos theta_j, sin theta_j) as an (m, 2) array."""
    return _grid_cache(m)[1]


@dataclass(frozen=True, eq=False)
class SupportFunction2D:
    """A planar convex compact sampled as support values on the angular grid.

    ``values[j]`` is ``h(theta_j)`` with ``theta_j = 2*pi*j/M``.  The grid
    size must be even and at least 16.  Instances are immutable; every
    operation in this module returns a new body.  A body keeps the rFFT of
    its samples once an area form has needed it.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("support values must be a one-dimensional array")
        m = vals.size
        if m < MIN_GRID_SIZE or m % 2 != 0:
            raise ValueError(
                f"grid size must be even and >= {MIN_GRID_SIZE}, got {m}")
        if not np.isfinite(vals).all():
            raise ValueError("support values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def grid_size(self) -> int:
        return self.values.size

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # computed on first use and stored in the instance dict, which the
        # frozen dataclass leaves writable to cached_property
        return _frozen(np.fft.rfft(self.values))

    @property
    def angles(self) -> np.ndarray:
        return grid_angles(self.grid_size)

    def __repr__(self):
        return (f"SupportFunction2D(grid_size={self.grid_size}, "
                f"max|h|={np.max(np.abs(self.values)):.6g})")


def _adopt(values: np.ndarray) -> SupportFunction2D:
    """A body on ``values`` without the validating copy; ``values`` is made
    read-only.

    Only for a one-dimensional float array of valid samples that nothing
    writes to again, such as a row of the frame store of
    :func:`setflow.flow.evolve` or a temporary of :func:`setflow.flow.step`.
    """
    values.setflags(write=False)
    body = object.__new__(SupportFunction2D)
    object.__setattr__(body, "values", values)
    return body


def as_matrix(op) -> np.ndarray:
    """Coerce a 2x2 array-like with finite entries to an ndarray."""
    mat = np.asarray(op, dtype=float)
    if mat.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    return mat


def convexity_tolerance(values: np.ndarray) -> float:
    """``CONVEXITY_RTOL * max(1, max|h|)``; not finite when a sample is not."""
    # the array extremes come first, so that a NaN one propagates
    return CONVEXITY_RTOL * max(values.max(), -values.min(), 1.0)


def convexity_defect(values: np.ndarray) -> np.ndarray:
    """Three-point discretization of ``h + h''`` (times dtheta^2).

    Nonnegative entries (up to tolerance) characterize sampled support
    functions; degenerate bodies sit exactly on the boundary of the cone.
    """
    values = np.asarray(values, dtype=float)
    dtheta = 2.0 * np.pi / values.size
    # periodic neighbours: ext[j] = h[j-1], ext[j+2] = h[j+1]
    ext = np.concatenate((values[-1:], values, values[:1]))
    return (ext[:-2] - 2.0 * values + ext[2:]
            + dtheta * dtheta * values)


def first_derivative(values: np.ndarray) -> np.ndarray:
    """Spectral first derivative; the Nyquist mode is dropped (its slope is ambiguous)."""
    values = np.asarray(values, dtype=float)
    m = values.size
    k = np.arange(m // 2 + 1, dtype=float)
    coef = 1j * k * np.fft.rfft(values)
    coef[-1] = 0.0
    return np.fft.irfft(coef, m)


def _check_same_grid(u: SupportFunction2D, v: SupportFunction2D):
    if u.grid_size != v.grid_size:
        from .errors import GridMismatchError
        raise GridMismatchError(
            f"grid sizes differ: {u.grid_size} vs {v.grid_size}")


# ---------------------------------------------------------------------------
# constructors


def make_ball(radius: float, center=(0.0, 0.0),
              grid_size: int = DEFAULT_GRID_SIZE) -> SupportFunction2D:
    """Disc of given radius; ``h(theta) = radius + <center, p(theta)>``."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    center = np.asarray(center, dtype=float)
    return SupportFunction2D(radius + grid_directions(grid_size) @ center)


def make_polygon(vertices, grid_size: int = DEFAULT_GRID_SIZE) -> SupportFunction2D:
    """Convex hull of a nonempty point set, as a sampled support function."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if verts.size == 0:
        raise ValueError("need at least one vertex")
    if verts.shape[1] != 2:
        raise ValueError("vertices must be points in the plane")
    return SupportFunction2D(np.max(grid_directions(grid_size) @ verts.T, axis=1))


def make_segment(length: float, angle: float = 0.0,
                 grid_size: int = DEFAULT_GRID_SIZE) -> SupportFunction2D:
    """Centered segment of the given length along the given direction."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    tip = 0.5 * length * np.array([np.cos(angle), np.sin(angle)])
    return make_polygon([tip, -tip], grid_size)


# ---------------------------------------------------------------------------
# Minkowski algebra and metric


def minkowski_add(u: SupportFunction2D, v: SupportFunction2D) -> SupportFunction2D:
    """Minkowski sum {x + y}; support functions add pointwise."""
    _check_same_grid(u, v)
    return SupportFunction2D(u.values + v.values)


def scale(u: SupportFunction2D, factor: float) -> SupportFunction2D:
    """Nonnegative dilation {factor * x}."""
    if factor < 0:
        raise ValueError("scale factor must be nonnegative")
    return SupportFunction2D(factor * u.values)


def hausdorff_distance(u: SupportFunction2D, v: SupportFunction2D) -> float:
    """Hausdorff distance: sup-norm of the support-function difference."""
    _check_same_grid(u, v)
    return float(np.max(np.abs(u.values - v.values)))


def hukuhara_difference(u: SupportFunction2D, v: SupportFunction2D):
    """The body ``w`` with ``u = v + w``, or None when no such body exists.

    The candidate ``h_u - h_v`` is a support function iff it passes the
    discrete convexity test; failure is a legitimate outcome, not an error.
    """
    _check_same_grid(u, v)
    w = u.values - v.values
    if np.min(convexity_defect(w)) < -convexity_tolerance(w):
        return None
    return SupportFunction2D(w)


# ---------------------------------------------------------------------------
# area functionals

@lru_cache(maxsize=32)
def _form_weights(m: int) -> np.ndarray:
    # rFFT bin weights (1 for the mean and Nyquist bins, 2 otherwise) times
    # the multiplier 1 - k^2 of h -> h + h''.
    k = np.arange(m // 2 + 1, dtype=float)
    weight = np.full(m // 2 + 1, 2.0)
    weight[0] = 1.0
    weight[-1] = 1.0
    weights = weight * (1.0 - k * k)
    weights.setflags(write=False)
    return weights


def _spectral_form(fu: np.ndarray, fv: np.ndarray, m: int) -> float:
    # (1/2) * integral of h_u (h_v + h_v'') dtheta by the trapezoid rule,
    # evaluated in Fourier space from the rFFTs of the two sample arrays.
    # The expression is a symmetric bilinear form with Lorentz signature:
    # the mean mode enters positively, the translation modes (|k| = 1) drop
    # out, all higher modes enter negatively.  Symmetry in (u, v) is exact
    # here, so the symmetrized "mean of both orderings" coincides with the
    # single evaluation.
    s = (_form_weights(m) * (fu * fv.conjugate()).real).sum()
    return float(np.pi * s / (m * m))


def _mixed_form(hu: np.ndarray, hv: np.ndarray) -> float:
    """The mixed form of two raw sample arrays, transforming both."""
    fu = np.fft.rfft(hu)
    fv = fu if hv is hu else np.fft.rfft(hv)
    return _spectral_form(fu, fv, hu.size)


def area(u: SupportFunction2D) -> float:
    """Area ``(1/2) * integral h (h + h'') dtheta``, clamped at zero.

    For degenerate bodies the true value is 0, but the quadrature is not
    exact there and negatives are clamped: the raw form of a length-4
    segment is -0.029 at M=512 and -0.23 at M=64.
    """
    spec = u._spectrum
    raw = _spectral_form(spec, spec, u.grid_size)
    return raw if raw > 0.0 else 0.0


def perimeter(u: SupportFunction2D) -> float:
    """Boundary length ``integral h dtheta``, clamped at zero."""
    raw = float(2.0 * np.pi * np.mean(u.values))
    return raw if raw > 0.0 else 0.0


def mixed_area(u: SupportFunction2D, v) -> float:
    """Mixed area V[u, v]: the bilinear symmetric extension of area.

    It is the coefficient structure of the quadratic expansion
    ``area(u + rho v) = V[u] + 2 rho V[u, v] + rho^2 V[v]`` and reduces to
    the area when ``u = v``.  The second argument may be a raw sample array
    (e.g. a directional derivative of a body map), since the form is
    bilinear in the samples; unlike a body's, its rFFT is taken on every
    call.
    """
    if isinstance(v, SupportFunction2D):
        _check_same_grid(u, v)
        return _spectral_form(u._spectrum, v._spectrum, u.grid_size)
    hv = np.asarray(v, float)
    if hv.size != u.grid_size:
        from .errors import GridMismatchError
        raise GridMismatchError(
            f"grid sizes differ: {u.grid_size} vs {hv.size}")
    return _spectral_form(u._spectrum, np.fft.rfft(hv), u.grid_size)


@dataclass(frozen=True)
class MixedAreaReport:
    """Areas, mixed area, and the Brunn-Minkowski slack of a pair of bodies."""

    area_u: float
    area_v: float
    mixed: float
    bm_slack: float   # mixed^2 - area_u * area_v, nonnegative up to tolerance


def mixed_area_report(u: SupportFunction2D, v: SupportFunction2D) -> MixedAreaReport:
    au, av, m = area(u), area(v), mixed_area(u, v)
    return MixedAreaReport(area_u=au, area_v=av, mixed=m,
                           bm_slack=m * m - au * av)


def steiner_fit(u: SupportFunction2D, v: SupportFunction2D, rho_samples):
    """Least-squares quadratic fit of ``rho -> area(u + rho v)``.

    Returns coefficients (c0, c1, c2) with c0 ~ V[u], c1 ~ 2 V[u,v],
    c2 ~ V[v].  Since the sampled areas are exactly quadratic in rho, any
    three or more distinct sample points recover the coefficients.
    """
    rho = np.unique(np.asarray(rho_samples, dtype=float))
    if rho.size < 3:
        raise ValueError("need at least 3 distinct rho samples")
    if np.any(rho < 0):
        raise ValueError("rho samples must be nonnegative")
    areas = [area(minkowski_add(u, scale(v, float(r)))) for r in rho]
    c2, c1, c0 = np.polyfit(rho, areas, 2)
    return float(c0), float(c1), float(c2)


# ---------------------------------------------------------------------------
# linear images


def _nonzero_rows(norms: np.ndarray) -> np.ndarray:
    # directions whose pull-back M^T p is not numerically zero
    return norms > 1e-14 * max(1.0, float(norms.max()))


@dataclass(frozen=True, eq=False)
class _PullbackPlan:
    """The data-independent part of :func:`_image_values` for one (M, grid).

    ``nz`` masks the directions with a nonzero pull-back.  A gather plan
    holds ``|M^T p_j|`` on them (``norms``) and the grid node each one lands
    on (``gather``).  A spline plan holds, per pulled-back direction, the
    nodes ``j, j+1`` of its cell and the same nodes shifted by the grid size
    (``cells``, a (4, n) index into the samples followed by their spline
    curvatures) and the cubic weights times ``|M^T p_j|`` (``weights``).
    """

    nz: np.ndarray
    norms: np.ndarray | None
    gather: np.ndarray | None
    cells: np.ndarray | None
    weights: np.ndarray | None


def _spline_weights(idx: np.ndarray, m: int):
    """Cell indices and cubic weights of the points ``idx`` (in grid steps).

    On the cell ``[j, j+1]`` at offset ``t`` with ``a = 1 - t``, the
    periodic cubic spline is
    ``a h_j + t h_{j+1} - a t ((1 + a) c_j + (1 + t) c_{j+1})``, where
    ``c`` are the curvatures of :func:`_spline_curvatures`.
    """
    cell = np.floor(idx)
    t = idx - cell
    a = 1.0 - t
    j = cell.astype(int) % m
    k = (j + 1) % m
    at = a * t
    cells = np.stack([j, k, j + m, k + m])
    weights = np.stack([a, t, -at * (1.0 + a), -at * (1.0 + t)])
    return cells, weights


@lru_cache(maxsize=32)
def _curvature_multipliers(m: int) -> np.ndarray:
    # rFFT eigenvalues of the periodic spline system
    # c_{j-1} + 4 c_j + c_{j+1} = h_{j-1} - 2 h_j + h_{j+1}: with
    # s = sin(pi k / m) the circulants have eigenvalues 6 - 4 s^2 and -4 s^2.
    s = np.sin(np.pi / m * np.arange(m // 2 + 1))
    s2 = s * s
    return _frozen(-2.0 * s2 / (3.0 - 2.0 * s2))


def _spline_curvatures(values: np.ndarray) -> np.ndarray:
    """``dtheta^2 / 6`` times the second derivatives of the periodic cubic
    spline through the samples, by one rFFT/irFFT pair."""
    m = values.size
    return np.fft.irfft(np.fft.rfft(values) * _curvature_multipliers(m), m)


# Bounded: under a volume-dependent clock every step pulls back along a new
# matrix, and each plan holds a few arrays of the grid size.
@lru_cache(maxsize=8)
def _pullback_plan(mat_bytes: bytes, m: int) -> _PullbackPlan:
    mat = np.frombuffer(mat_bytes).reshape(2, 2)
    w = grid_directions(m) @ mat            # rows are M^T p_j
    norms = np.hypot(w[:, 0], w[:, 1])
    nz = _nonzero_rows(norms)
    ang = np.arctan2(w[nz, 1], w[nz, 0])
    dtheta = 2.0 * np.pi / m
    idx = (ang / dtheta) % m
    nearest = np.rint(idx)
    nz, norms = _frozen(nz), norms[nz]
    # with no surviving direction the gather is empty and the image is 0
    if not nz.any() or np.max(np.abs(idx - nearest)) < 1e-9:
        return _PullbackPlan(nz, _frozen(norms), _frozen(nearest.astype(int) % m),
                             None, None)
    cells, weights = _spline_weights(idx, m)
    return _PullbackPlan(nz, None, None, _frozen(cells), _frozen(norms * weights))


# One entry per positive scalar matrix c I in use: ``exp(-s I)`` for each
# distinct step length s of a run.
@lru_cache(maxsize=8)
def _scalar_norms(mat_bytes: bytes, m: int) -> np.ndarray | None:
    # |c I^T p_j| on the grid, or None when c I sends some direction to zero
    w = grid_directions(m) @ np.frombuffer(mat_bytes).reshape(2, 2)
    norms = np.hypot(w[:, 0], w[:, 1])
    return _frozen(norms) if _nonzero_rows(norms).all() else None


def _image_values(values: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Samples of the support function of M u from samples of u.

    Uses the pull-back rule ``h_{Mu}(p) = |M^T p| * h_u(M^T p / |M^T p|)``.
    When every pulled-back direction lands on a grid node the resampling is
    an exact gather (rotations by grid multiples, axis reflections, scalar
    matrices); otherwise the periodic cubic spline through the samples
    interpolates: one solve for its curvatures and one weighted gather of
    the samples and curvatures.  The resampling plan depends only on
    (M, grid) and is cached; a positive scalar matrix ``c I`` gathers every
    node onto itself and needs only its cached norms.
    """
    m = values.size
    mat_bytes = np.asarray(mat, dtype=float).tobytes()
    if mat[0, 1] == 0.0 and mat[1, 0] == 0.0 and mat[0, 0] == mat[1, 1] > 0.0:
        norms = _scalar_norms(mat_bytes, m)
        if norms is not None:
            return norms * values
    plan = _pullback_plan(mat_bytes, m)
    if plan.gather is not None:
        image = plan.norms * values[plan.gather]
    else:
        stacked = np.concatenate((values, _spline_curvatures(values)))
        image = (plan.weights * stacked[plan.cells]).sum(axis=0)
    if image.size == m:
        return image
    out = np.zeros(m)
    out[plan.nz] = image
    return out


def linear_image(u: SupportFunction2D, op) -> SupportFunction2D:
    """Image of the body under a linear map; area multiplies by |det|.

    Singular maps are allowed and produce degenerate images.  If resampling
    leaves the discrete convexity cone beyond tolerance, the result is
    projected back by :func:`convexify`.  Raises ValueError when the image
    samples are not finite (an overflowing pull-back).
    """
    mat = as_matrix(op)
    if mat[0, 0] == 1.0 and mat[1, 1] == 1.0 and mat[0, 1] == 0.0 and mat[1, 0] == 0.0:
        return u
    vals = _image_values(u.values, mat)
    # the tolerance is the finiteness test of the fresh samples: inf or nan
    # when one of them is
    tol = convexity_tolerance(vals)
    if not tol < np.inf:
        raise ValueError("support values must be finite")
    return _into_cone(_adopt(vals), tol)


def _into_cone(u: SupportFunction2D, tol: float) -> SupportFunction2D:
    # u, or its projection when its convexity defect falls below -tol
    return convexify(u) if convexity_defect(u.values).min() < -tol else u


def convexify(u: SupportFunction2D) -> SupportFunction2D:
    """Project onto the discretely convex cone.

    Reconstructs the sampled boundary points ``x(theta) = h p + h' p_perp``
    and resamples the support function of their convex hull (the max of
    ``<x_i, p_j>`` over all sample points equals the hull's support).
    """
    h = u.values
    hp = first_derivative(h)
    dirs = grid_directions(u.grid_size)
    perp = np.column_stack([-dirs[:, 1], dirs[:, 0]])
    points = h[:, None] * dirs + hp[:, None] * perp
    return SupportFunction2D(np.max(points @ dirs.T, axis=0))


# ---------------------------------------------------------------------------
# validation


def validate(u: SupportFunction2D) -> list:
    """List of invariant violations (empty when the body is valid).

    The constructor of a body already rejects a bad grid size and
    non-finite samples, so this checks the discrete convexity inequality at
    its scale-relative tolerance.  Degenerate bodies pass.
    """
    defect = convexity_defect(u.values)
    tol = convexity_tolerance(u.values)
    bad = defect < -tol
    if not np.any(bad):
        return []
    j = int(np.argmin(defect))
    return [f"discrete convexity violated at {int(np.sum(bad))} angles "
            f"(worst {defect[j]:.3e} < -{tol:.3e} at theta={u.angles[j]:.6f})"]
