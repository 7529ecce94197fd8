"""Support-function calculus for planar convex compacts.

A convex compact ``u`` in the plane is stored as samples of its support
function ``h_u(theta) = sup_{x in u} <x, (cos theta, sin theta)>`` on a
uniform angular grid.  In this representation Minkowski sums are pointwise
sums, nonnegative scaling is pointwise scaling, and the Hausdorff metric is
the sup norm of the difference.  The samples stand for the polygon
``{x : <x, p_j> <= h_j}``, whose support values they are exactly when they
lie in the discrete convex cone (:func:`convexity_defect`).  Area, mixed
area and perimeter are those of this polygon, from two dot products of the
samples and their differences, so they are exact on polygons whose edge
normals are grid directions.  Every linear image stays in the cone;
degenerate bodies (segments, single points) lie on its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError

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
    operation in this module returns a new body.  A body keeps two numbers
    once computed: its raw self form ``V[u, u]``, set by the first
    :func:`area`, and its sup norm ``max_j |h_j|``, set where its samples
    are made (the constructor, :func:`linear_image`,
    :func:`setflow.flow.step`), whose finiteness test it is.  Both are
    attributes of the body, not module-level buffers, so runs on separate
    threads share nothing mutable.
    """

    values: np.ndarray
    _form = None                # not fields: set by _self_form and _sup_norm
    _norm = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("support values must be a one-dimensional array")
        m = vals.size
        if m < MIN_GRID_SIZE or m % 2 != 0:
            raise ValueError(
                f"grid size must be even and >= {MIN_GRID_SIZE}, got {m}")
        norm = _max_abs(vals)
        if not norm < math.inf:
            raise ValueError("support values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_norm", norm)

    @property
    def grid_size(self) -> int:
        return self.values.size

    @property
    def angles(self) -> np.ndarray:
        return grid_angles(self.grid_size)

    def __repr__(self):
        return (f"SupportFunction2D(grid_size={self.grid_size}, "
                f"max|h|={_sup_norm(self):.6g})")


def _max_abs(values: np.ndarray) -> float:
    """``max |h_j|`` over all entries, without a warning; NaN when an entry is
    NaN, so ``_max_abs(h) < inf`` is the finiteness test of ``h``."""
    return float(np.maximum.reduce(np.abs(values), axis=None))


def _adopt(values: np.ndarray, norm: float | None = None) -> SupportFunction2D:
    """A body on ``values`` without the validating copy; ``values`` is made
    read-only, and ``norm``, when given, is kept as its sup norm.

    Only for a one-dimensional float array of valid samples that nothing
    writes to again, such as the bodies made by :func:`setflow.flow.step`.
    Writes the instance dictionary directly, the cheapest way past the
    frozen dataclass's ``__setattr__``.
    """
    values.setflags(False)      # write=False; the keyword costs twice as much
    body = object.__new__(SupportFunction2D)
    fields = body.__dict__
    fields["values"] = values
    if norm is not None:
        fields["_norm"] = norm
    return body


def _sup_norm(u: SupportFunction2D) -> float:
    """``max_j |h_j|``, computed once per body and kept on it."""
    norm = u._norm
    if norm is None:
        norm = u.__dict__["_norm"] = _max_abs(u.values)
    return norm


def as_matrix(op) -> np.ndarray:
    """Coerce a 2x2 array-like with finite entries to an ndarray."""
    return _matrix_rows(op)[0]


def _matrix_rows(op):
    """``(mat, rows)``: ``as_matrix(op)`` and its rows as float lists, read once."""
    mat = np.asarray(op, dtype=float)
    if mat.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    rows = (a, b), (c, d) = mat.tolist()
    # four scalar tests cost a third of one np.isfinite over the matrix
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ValueError("matrix entries must be finite")
    return mat, rows


def convexity_tolerance(values: np.ndarray) -> float:
    """``CONVEXITY_RTOL * max(1, max|h|)``; not finite when a sample is not."""
    # the array extremes come first, so that a NaN one propagates
    return CONVEXITY_RTOL * max(values.max(), -values.min(), 1.0)


def convexity_defect(values: np.ndarray) -> np.ndarray:
    """``h_{j-1} + h_{j+1} - 2 cos(dtheta) h_j``: the edge lengths of the
    polygon ``{x : <x, p_j> <= h_j}`` on the normals ``p_j``, times
    ``sin(dtheta)``.

    The samples are that polygon's support values exactly when no entry is
    negative (Schneider, "Convex Bodies", 2nd ed., 2014, section 5.1).  The
    stencil vanishes on every translation ``<c, p_j>``.
    """
    values = np.asarray(values, dtype=float)
    # periodic neighbours: ext[j] = h[j-1], ext[j+2] = h[j+1]
    ext = np.concatenate((values[-1:], values, values[:1]))
    return ext[:-2] + ext[2:] - 2.0 * np.cos(2.0 * np.pi / values.size) * values


def _check_same_grid(u: SupportFunction2D, size: int):
    if u.grid_size != size:
        raise GridMismatchError(f"grid sizes differ: {u.grid_size} vs {size}")


# ---------------------------------------------------------------------------
# constructors


def _finite(value, what):
    """``value`` as a float array, or a ValueError naming ``what`` if an entry
    is not finite; the constructors check before any arithmetic."""
    value = np.asarray(value, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError(f"{what} must be finite")
    return value


def make_ball(radius: float, center=(0.0, 0.0),
              grid_size: int = DEFAULT_GRID_SIZE) -> SupportFunction2D:
    """Disc of given radius; ``h(theta) = radius + <center, p(theta)>``."""
    radius = float(_finite(radius, "radius"))
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    center = _finite(center, "center")
    # an overflow gives samples that the body refuses as not finite
    with np.errstate(over="ignore", invalid="ignore"):
        return SupportFunction2D(radius + grid_directions(grid_size) @ center)


def make_polygon(vertices, grid_size: int = DEFAULT_GRID_SIZE) -> SupportFunction2D:
    """Convex hull of a nonempty point set, as a sampled support function."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if verts.size == 0:
        raise ValueError("need at least one vertex")
    if verts.shape[1] != 2:
        raise ValueError("vertices must be points in the plane")
    verts = _finite(verts, "vertices")
    with np.errstate(over="ignore", invalid="ignore"):
        return SupportFunction2D(np.max(grid_directions(grid_size) @ verts.T, axis=1))


def make_segment(length: float, angle: float = 0.0,
                 grid_size: int = DEFAULT_GRID_SIZE) -> SupportFunction2D:
    """Centered segment of the given length along the given direction."""
    length = float(_finite(length, "length"))
    angle = float(_finite(angle, "angle"))
    if length < 0:
        raise ValueError("length must be nonnegative")
    tip = 0.5 * length * np.array([np.cos(angle), np.sin(angle)])
    return make_polygon([tip, -tip], grid_size)


# ---------------------------------------------------------------------------
# Minkowski algebra and metric


def minkowski_add(u: SupportFunction2D, v: SupportFunction2D) -> SupportFunction2D:
    """Minkowski sum {x + y}; support functions add pointwise."""
    _check_same_grid(u, v.grid_size)
    return SupportFunction2D(u.values + v.values)


def scale(u: SupportFunction2D, factor: float) -> SupportFunction2D:
    """Nonnegative dilation {factor * x}."""
    if factor < 0:
        raise ValueError("scale factor must be nonnegative")
    return SupportFunction2D(factor * u.values)


def hausdorff_distance(u: SupportFunction2D, v: SupportFunction2D) -> float:
    """Hausdorff distance: sup-norm of the support-function difference."""
    _check_same_grid(u, v.grid_size)
    return _max_abs(u.values - v.values)


def hukuhara_difference(u: SupportFunction2D, v: SupportFunction2D):
    """The body ``w`` with ``u = v + w``, or None when no such body exists.

    The candidate ``h_u - h_v`` is a support function iff it passes the
    discrete convexity test; failure is a legitimate outcome, not an error.
    """
    _check_same_grid(u, v.grid_size)
    w = u.values - v.values
    if np.min(convexity_defect(w)) < -convexity_tolerance(w):
        return None
    return SupportFunction2D(w)


# ---------------------------------------------------------------------------
# area functionals

@lru_cache(maxsize=32)
def _form_weights(m: int) -> tuple:
    """``(tan(dtheta / 2), 2 sin(dtheta))`` of the area forms on ``m`` points."""
    return math.tan(math.pi / m), 2.0 * math.sin(2.0 * math.pi / m)


def _difference(values: np.ndarray) -> np.ndarray:
    """The periodic forward difference ``h_{j+1} - h_j`` along the first axis."""
    out = np.empty_like(values)
    np.subtract(values[1:], values[:-1], out=out[:-1])
    out[-1] = values[0] - values[-1]
    return out


def _mixed_form(hu: np.ndarray, hv: np.ndarray) -> float:
    """The mixed area of the sampled polygons of two sample arrays.

    ``V[u, v] = tan(dtheta / 2) <h_u, h_v> - <D h_u, D h_v> / (2 sin dtheta)``
    with ``D`` the periodic forward difference, which is
    ``(1/2) sum_j h_{u,j} l_{v,j}`` for the edge lengths
    ``l_j = convexity_defect(h_v)_j / sin(dtheta)`` (Schneider, "Convex
    Bodies", 2nd ed., 2014, section 5.1), summed by parts.  Written with
    differences, not as ``sum_j h_j h_{j+1} - cos(dtheta) h_j^2``, it keeps
    the digits of a body far from the origin; swapping ``u`` and ``v``
    gives the same bits.
    """
    tan_half, sin2 = _form_weights(hu.size)
    du = _difference(hu)
    dv = du if hv is hu else _difference(hv)
    return tan_half * float(hu.dot(hv)) - float(du.dot(dv)) / sin2


def _self_form(u: SupportFunction2D) -> float:
    """The raw self form ``V[u, u]``, computed once per body and kept on it.

    Along :func:`setflow.flow.evolve` the tracked ``V`` and ``W0`` of a
    stored frame and the next step's starting area read this one form.
    """
    form = u._form
    if form is None:
        form = u.__dict__["_form"] = _mixed_form(u.values, u.values)
    return form


def area(u: SupportFunction2D) -> float:
    """Area of the sampled polygon, ``V[u, u]``, clamped at zero.

    The clamp only guards against rounding: a segment along a grid
    direction, of area exactly 0, reads about ``1e-15`` to ``1e-12`` of
    either sign.
    """
    raw = _self_form(u)
    return raw if raw > 0.0 else 0.0


def perimeter(u: SupportFunction2D) -> float:
    """Perimeter of the sampled polygon, ``2 tan(dtheta / 2) sum_j h_j``,
    clamped at zero.

    It is ``2 V[u, K]`` for the unit disc ``K``, so Steiner's formula
    ``area(u + r K) = area(u) + r perimeter(u) + r^2 area(K)`` holds.
    """
    raw = 2.0 * _form_weights(u.values.size)[0] * float(np.add.reduce(u.values))
    return raw if raw > 0.0 else 0.0


def mixed_area(u: SupportFunction2D, v) -> float:
    """Mixed area V[u, v]: the bilinear symmetric extension of area.

    It is the coefficient structure of the quadratic expansion
    ``area(u + rho v) = V[u] + 2 rho V[u, v] + rho^2 V[v]`` and reduces to
    the area when ``u = v``.  The second argument may be a raw sample array
    (e.g. a directional derivative of a body map), since the form is
    bilinear in the samples.
    """
    hv = v.values if isinstance(v, SupportFunction2D) else np.asarray(v, float)
    _check_same_grid(u, hv.size)
    return _mixed_form(u.values, hv)


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


@dataclass(frozen=True, eq=False)
class _PullbackPlan:
    """The data-independent part of :func:`_image_values` for one (M, grid).

    A gather plan holds ``|M^T p_j|`` (``norms``) and the node each
    direction lands on (``gather``).  A spline plan holds the nodes
    ``j, j+1`` of each direction's cell, also shifted by M to read the
    curvatures (``cells``, (4, M)), and the cubic (``weights``) and polygon
    (``polygon``, on ``cells[:2]``) weights times ``|M^T p_j|``.  A
    vanishing pull-back reads node 0 with weight 0.
    """

    norms: np.ndarray | None
    gather: np.ndarray | None
    cells: np.ndarray | None
    weights: np.ndarray | None
    polygon: np.ndarray | None


def _cell_weights(idx: np.ndarray, m: int):
    """Cell indices, cubic and polygon weights of points ``idx`` in grid steps.

    On the cell ``[j, j+1]`` at offset ``t`` with ``a = 1 - t``, the
    periodic cubic spline is
    ``a h_j + t h_{j+1} - a t ((1 + a) c_j + (1 + t) c_{j+1})``, where
    ``c`` are the curvatures of :func:`_spline_curvatures`, and the sampled
    polygon's support is ``(sin(a dtheta) h_j + sin(t dtheta) h_{j+1}) / sin(dtheta)``.
    """
    cell = np.floor(idx)
    t = idx - cell
    a = 1.0 - t
    j = cell.astype(int) % m
    k = (j + 1) % m
    at = a * t
    dtheta = 2.0 * np.pi / m
    cells = np.stack([j, k, j + m, k + m])
    weights = np.stack([a, t, -at * (1.0 + a), -at * (1.0 + t)])
    polygon = np.sin(np.stack([a, t]) * dtheta) / np.sin(dtheta)
    return cells, weights, polygon


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
    nz = norms > 1e-14 * norms.max()    # M^T p_j not zero next to the largest
    norms = np.where(nz, norms, 0.0)
    idx = np.where(nz, np.arctan2(w[:, 1], w[:, 0]) / (2.0 * np.pi / m) % m, 0.0)
    nearest = np.rint(idx)
    # a gather snaps every direction to its node and so drops any rotation
    # below the tolerance: it stays at 16 times the rounding of the angles,
    # at most eps * m cells for the grid-landing maps
    if np.max(np.abs(idx - nearest)) < 16 * np.finfo(float).eps * m:
        return _PullbackPlan(_frozen(norms), _frozen(nearest.astype(int) % m),
                             None, None, None)
    cells, weights, polygon = _cell_weights(idx, m)
    return _PullbackPlan(None, None, _frozen(cells), _frozen(norms * weights),
                         _frozen(norms * polygon))


def _plan(mat: np.ndarray, m: int):
    """The pull-back of ``mat`` on ``m`` points: the factor ``c`` of a
    positive scalar matrix ``c I``, which needs no plan (``h_{cu} = c h_u``),
    or else the cached :class:`_PullbackPlan` of ``mat``."""
    (a, b), (c, d) = mat.tolist()
    if b == 0.0 and c == 0.0 and a == d > 0.0:
        return a
    return _pullback_plan(mat.tobytes(), m)


def _pull_back(values: np.ndarray, plan, stacked=None) -> np.ndarray:
    # the samples of M u from those of u along the plan of M; ``stacked``,
    # when given, is the _spline_stack of the samples
    if type(plan) is float:
        return plan * values
    if plan.gather is not None:
        return plan.norms * values[plan.gather]
    return _spline_or_polygon(values, plan, stacked)


def _image_values(values: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Samples of the support function of M u from samples of u.

    Uses the pull-back rule ``h_{Mu}(p) = |M^T p| * h_u(M^T p / |M^T p|)``.
    When every pulled-back direction lands on a grid node the resampling is
    an exact gather (rotations by grid multiples, axis reflections, scalar
    matrices); otherwise the periodic cubic spline through the samples
    interpolates, to fourth order on smooth bodies.  Where it overshoots
    out of the convex cone at a kink, the exact support of the sampled
    polygon, a two-point gather, takes its place; gathers keep the cone.
    The resampling plan depends only on (M, grid) and is cached.  A
    positive scalar matrix ``c I`` needs none: ``h_{cu} = c h_u``.
    """
    return _pull_back(values, _plan(mat, values.size))


def _spline_stack(values: np.ndarray) -> np.ndarray:
    # the samples and the curvatures of their periodic cubic spline, the
    # rows that a spline plan's cells read
    return np.concatenate((values, _spline_curvatures(values)))


def _spline_image(values: np.ndarray, plan: _PullbackPlan, stacked=None) -> np.ndarray:
    # the periodic cubic spline through the samples: one solve for its
    # curvatures (none when ``stacked`` is given) and one weighted gather of
    # the samples and curvatures
    stacked = _spline_stack(values) if stacked is None else stacked
    return (plan.weights * stacked[plan.cells]).sum(axis=0)


def _spline_or_polygon(values, plan, stacked=None):
    # the spline image, or where it leaves the convex cone the sampled
    # polygon's support; a non-finite image skips the test: its caller
    # rejects it
    image = _spline_image(values, plan, stacked)
    if np.isfinite(image).all() and convexity_defect(image).min() < 0.0:
        image = (plan.polygon * values[plan.cells[:2]]).sum(axis=0)
    return image


def linear_image(u: SupportFunction2D, op) -> SupportFunction2D:
    """Image of the body under a linear map; area multiplies by |det|.

    Singular maps are allowed and produce degenerate images.  The pull-back
    of :func:`_image_values` keeps a body in the convex cone, so only the
    finiteness of the image is tested, by its sup norm, which the image
    keeps: raises ValueError when a sample is not finite (an overflowing
    pull-back).
    """
    mat, ((a, b), (c, d)) = _matrix_rows(op)
    if a == d == 1.0 and b == c == 0.0:
        return u
    vals = _image_values(u.values, mat)
    norm = _max_abs(vals)
    if not norm < math.inf:
        raise ValueError("support values must be finite")
    return _adopt(vals, norm)


def _image_forms(values: np.ndarray, mats: tuple) -> list:
    """``V[u, M u]`` for each matrix ``M`` of ``mats``, with the bits of
    ``_mixed_form(values, _image_values(values, M))``.

    The forms share one difference of the body and, among the spline
    pull-backs, one curvature solve.  Raises ValueError when an image is
    not finite.
    """
    m = values.size
    plans = [_plan(mat, m) for mat in mats]
    stacked = None
    if any(type(plan) is not float and plan.cells is not None for plan in plans):
        stacked = _spline_stack(values)
    tan_half, sin2 = _form_weights(m)
    du = _difference(values)
    forms = []
    for plan in plans:
        image = _pull_back(values, plan, stacked)
        if not np.isfinite(image).all():
            raise ValueError("support values must be finite")
        forms.append(tan_half * float(values.dot(image)) - float(du.dot(_difference(image))) / sin2)
    return forms


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
