"""Volume-coupled linear flows with Minkowski source terms.

The flows integrated here move a planar convex compact by the interplay of
two effects: an exact linear deformation ``exp(A t)`` whose clock runs at a
volume-dependent speed ``phi(V[u])``, and a Minkowski source ``F(V[u], u)``
added at unit rate.  In support-function language one step of the flow
pulls ``h`` back along ``exp(A^T phi dt)`` and adds the source samples.

The stepper splits each step into an explicit Euler half-step of the
source, the exact linear flow over ``dt`` with ``phi`` frozen at a midpoint
volume estimate, then a second source half-step evaluated at a predictor of
the end state.  The two halves make a trapezoidal rule around the exact
linear flow, so the stepper is second order in ``dt`` (see :func:`step`).
``exp(A s)`` comes from the closed form of the 2x2 exponential
(:func:`expm`), cached per ``(A, s)``, and each pull-back reuses the cached
resampling plan of its matrix (see :func:`setflow.bodies._image_values`),
so the module needs nothing beyond numpy.  A Picard
iteration of the defining integral operator is provided as an independent
oracle on short horizons.

A run records the functionals named in ``tracked`` at its stored times and
keeps no body but the last; the frames are one more column,
``{"h": lambda u: u.values}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bodies
from .bodies import (SupportFunction2D, area, as_matrix, linear_image,
                     mixed_area, perimeter)
from .errors import BlowupError, ContractionError, GridMismatchError

OVERFLOW_FACTOR = 1e6
DEFAULT_DT = 1e-3
MAX_STORED_FRAMES = 1000
PICARD_MAX_ITER = 60


# ---------------------------------------------------------------------------
# parametric scalar functions (referencable from scenario files)


@dataclass(frozen=True)
class ScalarFunction:
    """Nonnegative scalar function of a nonnegative argument.

    Parametric so that scenario files can name it without embedding code:
    a constant, a rational function p(s)/q(s) (coefficients in ascending
    order), or a linearly interpolated table, assumed locally Lipschitz.
    The factories :func:`constant`, :func:`rational` and :func:`table`
    reject non-finite numbers and functions negative somewhere on the axis.
    """

    kind: str
    value: float = 0.0
    num: tuple = ()
    den: tuple = (1.0,)
    s_nodes: tuple = ()
    s_values: tuple = ()

    def __call__(self, s):
        """The value at the number ``s``, or the values at an array ``s``.

        An array gives exactly the values of the elementwise scalar calls.
        """
        many = isinstance(s, np.ndarray) and s.ndim > 0
        if self.kind == "constant":
            return np.full(s.shape, self.value) if many else self.value
        s = np.asarray(s, dtype=float) if many else float(s)
        if self.kind == "rational":
            value = _horner(self.num, s) / _horner(self.den, s)
        elif self.kind == "table":
            value = np.interp(s, self.s_nodes, self.s_values)
        else:
            raise ValueError(f"unknown scalar function kind {self.kind!r}")
        return value if many else float(value)


def _horner(coeffs, x):
    # np.polyval's loop over the ascending coefficients, without its
    # conversions of the coefficients and of x to arrays
    y = np.float64(0.0)
    for c in reversed(coeffs):
        y = y * x + c
    return y


def _finite(numbers, what):
    numbers = tuple(map(float, numbers))
    if not all(map(math.isfinite, numbers)):
        raise ValueError(f"{what} must be finite numbers")
    return numbers


def _nonnegative_roots(coeffs):
    # sorted real roots in [0, inf) of the polynomial with ascending
    # coefficients (a root within 1e-6 of the axis counts); the zero
    # polynomial vanishes at 0
    roots = np.roots(coeffs[::-1]) if any(coeffs) else np.zeros(1)
    on_axis = np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots))
    return np.sort(roots.real[on_axis & (roots.real >= 0)])


def constant(value: float) -> ScalarFunction:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("a constant value must be finite")
    if value < 0:
        raise ValueError("scalar functions here map into the nonnegative axis")
    return ScalarFunction(kind="constant", value=value)


def rational(num, den) -> ScalarFunction:
    """p(s)/q(s), nonnegative on [0, inf), where q may not vanish.

    q keeps the sign of q(0) on the axis, so the sign of p q(0) is probed
    at 0, between consecutive nonnegative real roots of p and past the last
    one; p keeps one sign between those points.
    """
    num = _finite(num, "rational 'num' coefficients")
    den = _finite(den, "rational 'den' coefficients")
    if _nonnegative_roots(den).size:
        raise ValueError("the denominator has a root in [0, inf)")
    nodes = np.concatenate(([0.0], _nonnegative_roots(num)))
    probes = np.concatenate((nodes[:1], 0.5 * (nodes[1:] + nodes[:-1]), nodes[-1:] + 1.0))
    if np.any(den[0] * np.polyval(num[::-1], probes) < 0):
        raise ValueError("the function is negative somewhere on [0, inf)")
    return ScalarFunction(kind="rational", num=num, den=den)


def table(s_nodes, s_values) -> ScalarFunction:
    s_nodes = _finite(s_nodes, "table nodes")
    s_values = _finite(s_values, "table values")
    if len(s_nodes) != len(s_values) or len(s_nodes) < 2:
        raise ValueError("table needs matching node/value sequences")
    if any(b <= a for a, b in zip(s_nodes, s_nodes[1:])):
        raise ValueError("table nodes must strictly increase")
    if min(s_values) < 0:
        raise ValueError("scalar functions here map into the nonnegative axis")
    return ScalarFunction(kind="table", s_nodes=s_nodes, s_values=s_values)


# ---------------------------------------------------------------------------
# source terms


@dataclass(frozen=True)
class SourceTerm:
    """The Minkowski source F(V, u) in one of four parametric shapes.

    ``ball``     -- psi(V) * unit disc
    ``linear``   -- psi(V) * (B u) for a fixed 2x2 matrix B
    ``constant`` -- a fixed body, independent of (V, u)
    ``zero``     -- no source
    """

    kind: str
    psi: object = None          # callable for 'ball' / 'linear'
    matrix: np.ndarray = None   # for 'linear'
    body: SupportFunction2D = None  # for 'constant'

    def values(self, volume: float, u_values: np.ndarray) -> np.ndarray | None:
        """Sample array of F(volume, u), or None when the source vanishes.

        A ball source under a constant psi returns one cached, read-only
        array per psi value (a zero's sign included) and grid size.
        """
        kind = self.kind
        if kind == "zero":
            return None
        if kind == "constant":
            if self.body.grid_size != u_values.size:
                raise GridMismatchError("source body grid does not match state")
            return self.body.values
        if kind != "ball" and kind != "linear":
            raise ValueError(f"unknown source kind {kind!r}")
        psi = self.psi
        constant_psi = isinstance(psi, ScalarFunction) and psi.kind == "constant"
        scale = float(psi.value if constant_psi else psi(volume))
        if scale < 0:
            raise ValueError("psi must be nonnegative")
        if kind == "linear":
            return scale * bodies._image_values(u_values, self.matrix)
        if constant_psi:
            return _ball_samples(scale, math.copysign(1.0, scale), u_values.size)
        return np.full(u_values.size, scale)


@lru_cache(maxsize=8)
def _ball_samples(radius: float, sign: float, m: int) -> np.ndarray:
    # the read-only samples of a constant psi's disc, one array per (psi, M);
    # ``sign`` keys -0.0 apart from 0.0, which hash and compare equal but
    # give sums of different signs
    return bodies._frozen(np.full(m, radius))


def zero_source() -> SourceTerm:
    return SourceTerm(kind="zero")


def ball_source(psi) -> SourceTerm:
    return SourceTerm(kind="ball", psi=psi)


def linear_source(psi, matrix) -> SourceTerm:
    return SourceTerm(kind="linear", psi=psi, matrix=as_matrix(matrix))


def constant_source(body: SupportFunction2D) -> SourceTerm:
    return SourceTerm(kind="constant", body=body)


@dataclass(frozen=True)
class SemiflowParams:
    """The triple (A, phi, F) defining the flow.

    ``A`` is kept as a read-only copy, with its bytes, the key of the
    cached flow matrices of :func:`step`.
    """

    A: np.ndarray
    phi: object                 # callable on the nonnegative axis
    source: SourceTerm
    _a_bytes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a_mat = bodies._frozen(as_matrix(self.A).copy())
        object.__setattr__(self, "A", a_mat)
        object.__setattr__(self, "_a_bytes", a_mat.tobytes())

    @property
    def trace(self) -> float:
        return float(self.A[0, 0] + self.A[1, 1])


@dataclass
class Trajectory:
    """Named series along an orbit at its stored times, and its last body.

    ``tracked`` maps each column name to an array with one entry per
    stored time; a column of arrays, such as the frames
    ``{"h": lambda u: u.values}``, is one row per stored time.  ``final``
    is the body at ``times[-1]``.
    """

    times: np.ndarray
    tracked: dict
    final: SupportFunction2D

    def to_csv(self) -> str:
        """CSV record: header ``t`` and the tracked names in order, one row per frame.

        Raises ValueError naming a column that is not one number per frame.
        """
        for name, series in self.tracked.items():
            if series.ndim != 1:
                raise ValueError(f"tracked column {name!r} is not one number per "
                                 "frame, so it has no CSV cell")
        row = ",".join(["%.12g"] * (1 + len(self.tracked)))
        columns = [self.times.tolist(), *(s.tolist() for s in self.tracked.values())]
        lines = ["t," + ",".join(self.tracked), *(row % cells for cells in zip(*columns))]
        return "\n".join(lines) + "\n"


def _columns(tracked):
    return {"V": area, "perimeter": perimeter} if tracked is None else tracked


def _finish(times, series, final):
    return Trajectory(times=np.asarray(times),
                      tracked={k: np.asarray(v) for k, v in series.items()},
                      final=final)


# ---------------------------------------------------------------------------
# stepping


def volume_rate(u: SupportFunction2D, params: SemiflowParams) -> float:
    """Instantaneous rate of change of the area along the flow.

    ``dV/dt = tr A * phi(V) * V + 2 * V[u, F(V, u)]`` -- the linear part
    contributes through the Liouville determinant factor, the source through
    the mixed area.
    """
    v = area(u)
    return _volume_rate_from(u, v, params)


def _volume_rate_from(u, v, params, source_vals=None):
    rate = params.trace * float(params.phi(v)) * v
    if source_vals is None:
        source_vals = params.source.values(v, u.values)
    if source_vals is not None:
        rate += 2.0 * mixed_area(u, source_vals)
    return rate


def expm(mat) -> np.ndarray:
    """The exponential of a 2x2 matrix in closed form.

    With ``mu = tr M / 2`` and ``N = M - mu I``, ``N^2 = q I`` for
    ``q = ((m11 - m22) / 2)^2 + m12 m21``, so ``exp(M) = e^mu (C I + S N)``
    with ``(C, S) = (cosh r, sinh r / r)``, ``r = sqrt(q)``, for ``q > 0``
    and ``(cos r, sin r / r)``, ``r = sqrt(-q)``, for ``q < 0`` (Moler and
    Van Loan, "Nineteen dubious ways to compute the exponential of a matrix,
    twenty-five years later", SIAM Review 45, 2003).  A Taylor series in
    ``q`` takes over for ``|q| < 1e-6`` and gives exactly ``(1, 1)`` at
    ``q = 0``.  For ``q > 0``, ``e^mu`` is folded into the hyperbolic pair,
    so a large ``r`` with a very negative ``mu`` does not overflow, and
    ``expm1`` keeps the digits of ``sinh r`` at small ``r``.  A diagonal
    matrix takes the elementwise exponential: ``exp(-s I)`` is
    ``np.exp(-s) I`` bit for bit and small diagonal entries keep their
    relative accuracy.
    """
    (a, b), (c, d) = np.asarray(mat, dtype=float).tolist()
    # np.exp, not math.exp: it overflows to inf instead of raising, and the
    # caller decides what an infinite exponential means
    with np.errstate(over="ignore"):
        if b == 0.0 and c == 0.0:
            return np.diag(np.exp([a, d]))
        mu = 0.5 * (a + d)
        half = 0.5 * (a - d)
        q = half * half + b * c
        if abs(q) < 1e-6:
            e = float(np.exp(mu))
            cosh = e * (1.0 + q * (0.5 + q / 24.0))
            sinhc = e * (1.0 + q * (1.0 / 6.0 + q / 120.0))
        elif q > 0.0:
            r = math.sqrt(q)
            g = 0.5 * float(np.exp(mu + r))
            cosh = g * (1.0 + math.exp(-2.0 * r))
            sinhc = -g * math.expm1(-2.0 * r) / r
        else:
            r = math.sqrt(-q)
            e = float(np.exp(mu))
            cosh, sinhc = e * math.cos(r), e * math.sin(r) / r
        return np.array([[cosh + sinhc * half, sinhc * b],
                         [sinhc * c, cosh - sinhc * half]])


@lru_cache(maxsize=64)
def _flow_matrix(a_bytes: bytes, s: float) -> np.ndarray:
    # exp(A s); calls the module binding ``expm`` so that wrapping it sees
    # every evaluation.
    mat = expm(np.frombuffer(a_bytes).reshape(2, 2) * s)
    if not np.isfinite(mat).all():
        raise BlowupError(f"exp(A s) overflows at s={s:.6g}", reached_time=0.0)
    mat.setflags(write=False)
    return mat


def step(u: SupportFunction2D, params: SemiflowParams, dt: float) -> SupportFunction2D:
    """One second-order split step of length dt.

    With ``f0 = F(V[u], u)``: a source half-step ``u + (dt/2) f0`` (a
    Minkowski addition), the exact linear flow ``L = h(exp(A^T phi dt) p)``
    with phi frozen at the midpoint volume estimate ``V + (dt/2) * dV/dt``,
    then the second source half-step evaluated at the predictor of the end
    state ``pred = moved + (dt/2) f0``::

        moved = L(u + (dt/2) f0),    out = moved + (dt/2) F(V[pred], pred).

    ``pred`` is within O(dt^2) of the end state, so the two source halves
    form a trapezoidal rule around the exact linear flow, and the step is
    second order in dt (the integrating-factor trapezoidal rule; Lawson,
    SIAM J. Numer. Anal. 4, 1967).  Without a source ``pred`` is ``moved``,
    and a source that depends on neither the body nor the volume gives the
    same ``out`` as an evaluation at ``moved``.  A constant clock (a
    :class:`ScalarFunction` of kind ``constant``) needs no midpoint volume,
    so the step evaluates 2 areas, of ``u`` and of ``pred``; any other clock
    also takes the mixed area of the body with the first source to estimate
    the rate.  Under a constant clock and a constant psi neither area is
    read, but both are computed: the benchmark's tests pin 2 area calls per
    step until the benchmark-only change of ROADMAP item 1.  Nothing is
    projected: the sources, their Minkowski sums and the pull-back keep a
    body in the convex cone.  ``exp(A s)`` is cached per (A, s) and the
    pull-back reads a cached resampling plan per (matrix, grid); both hold
    read-only arrays.  The new body keeps its sup norm, which is its
    finiteness test here and :func:`evolve`'s overflow guard.  Raises
    ValueError when ``dt`` is not positive and finite, and
    :class:`BlowupError` when ``exp(A phi dt)``, the half-step or the new
    support values are not finite.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive")
    source = params.source
    v0 = area(u)
    f0 = source.values(v0, u.values)

    phi = params.phi
    if isinstance(phi, ScalarFunction) and phi.kind == "constant":
        phi_mid = float(phi.value)
    else:
        v_mid = max(v0 + 0.5 * dt * _volume_rate_from(u, v0, params, f0), 0.0)
        phi_mid = float(phi(v_mid))
    if phi_mid < 0:
        raise ValueError("phi must be nonnegative")
    if f0 is None:
        start = u
    else:
        half_f0 = (0.5 * dt) * f0
        start = bodies._adopt(u.values + half_f0)
    try:
        moved = linear_image(start, _flow_matrix(params._a_bytes, phi_mid * dt))
    except ValueError:      # the pull-back of a non-finite half-step
        raise BlowupError("non-finite support values produced by step",
                          reached_time=dt) from None

    pred = moved if f0 is None else bodies._adopt(moved.values + half_f0)
    f1 = source.values(area(pred), pred.values)
    if f1 is None:
        return moved
    out = moved.values + (0.5 * dt) * f1
    norm = bodies._max_abs(out)
    if not norm < math.inf:
        raise BlowupError("non-finite support values produced by step",
                          reached_time=dt)
    return bodies._adopt(out, norm)


def evolve(u0: SupportFunction2D, params: SemiflowParams, horizon: float,
           dt: float = DEFAULT_DT, tracked=None) -> Trajectory:
    """Integrate the flow over [0, horizon], recording functionals at stored times.

    ``tracked`` maps each column name to a function of a body, in the order
    of :meth:`Trajectory.to_csv`; the default is
    ``{"V": area, "perimeter": perimeter}``.  The mixed functionals of an
    operator come from :func:`mixed_columns`, for example
    ``{"V": area, **mixed_columns(B, 2)}``, and the frames from
    ``{"h": lambda u: u.values}``, a ``(frames, M)`` array.  The times are
    thinned so at most ``MAX_STORED_FRAMES`` (+1 for the initial body) are
    kept.  The overflow guard, ``OVERFLOW_FACTOR * max(1, max|h|)`` of
    ``u0``, is compared with the sup norm that each step's body keeps (see
    :func:`step`), so it takes no pass of its own.  Raises ValueError when
    ``horizon`` or ``dt`` is not positive and finite, and
    :class:`BlowupError` with the reached time when the support values
    leave the overflow guard before the horizon (a lower bound for the
    escape time of the orbit); its ``partial`` holds what was stored until
    then.
    """
    if not (0.0 < horizon < math.inf and 0.0 < dt < math.inf):
        raise ValueError("horizon and dt must be positive")
    tracked = _columns(tracked)
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    stride = max(1, int(np.ceil(n_steps / MAX_STORED_FRAMES)))

    guard = OVERFLOW_FACTOR * max(1.0, bodies._sup_norm(u0))
    u, t = u0, 0.0
    times = [0.0]
    last = u0
    series = {name: [fn(u)] for name, fn in tracked.items()}

    for i in range(n_steps):
        h = min(dt, horizon - t)
        try:
            u = step(u, params, h)
        except BlowupError as exc:
            raise BlowupError(str(exc), reached_time=t,
                              partial=_finish(times, series, last)) from None
        t += h
        if bodies._sup_norm(u) > guard:
            raise BlowupError(
                f"support values exceeded {guard:.3g} at t={t:.6g}",
                reached_time=t, partial=_finish(times, series, last))
        if (i + 1) % stride == 0 or i == n_steps - 1:
            times.append(t)
            last = u
            for name, fn in tracked.items():
                series[name].append(fn(u))
    return _finish(times, series, last)


# ---------------------------------------------------------------------------
# Picard oracle


def _perturbation_scale(u0):
    return max(1.0, bodies._sup_norm(u0))


def contraction_horizon(u0: SupportFunction2D, params: SemiflowParams) -> float:
    """Estimated horizon on which the integral operator is a contraction.

    Mirrors the constructive existence bound: with local Lipschitz
    estimates L (volume), H (phi) and L1 (source) sampled numerically
    around u0, the operator keeps a ball of radius r invariant as long as
    ``(e^{beta T} - 1)(|u0| + (|F0| + L1 r)/beta) <= r`` with
    ``beta = phi(V0) + L H r``.  A safety factor of 1/2 is applied.
    """
    v0 = area(u0)
    norm0 = bodies._sup_norm(u0)
    r = 0.5 * _perturbation_scale(u0)

    eps = 1e-4 * max(1.0, v0)
    lip_phi = abs(float(params.phi(v0 + eps)) - float(params.phi(max(v0 - eps, 0.0)))) / (2 * eps)
    # area is Lipschitz in the sup norm with constant <= perimeter of the
    # inflated body u0 + r K
    lip_vol = perimeter(SupportFunction2D(u0.values + r))
    f0 = params.source.values(v0, u0.values)
    f0_norm = 0.0 if f0 is None else float(np.max(np.abs(f0)))

    du = 1e-3 * _perturbation_scale(u0)
    f_pert = params.source.values(area(SupportFunction2D(u0.values + du)),
                                  u0.values + du)
    if f_pert is None and f0 is None:
        lip_src = 0.0
    else:
        a = np.zeros(u0.grid_size) if f0 is None else f0
        b = np.zeros(u0.grid_size) if f_pert is None else f_pert
        lip_src = float(np.max(np.abs(b - a))) / du
    beta = max(float(params.phi(v0)) + lip_vol * lip_phi * r, 1e-12)
    t_ball = np.log1p(r * beta / (norm0 * beta + f0_norm + lip_src * r + 1e-12)) / beta
    return 0.5 * float(t_ball)


def picard_solve(u0: SupportFunction2D, params: SemiflowParams, horizon: float,
                 tol: float = 1e-8, n_nodes: int = 17, tracked=None) -> Trajectory:
    """Solve the flow on a short horizon by fixed-point iteration.

    Iterates the integral operator

        (G u)(t) = exp(A Phi(t)) u0
                   + int_0^t exp(A (Phi(t) - Phi(s))) F(V[u(s)], u(s)) ds,
        Phi(t) = int_0^t phi(V[u(s)]) ds,

    on a uniform time grid until the sup-distance of successive iterates
    drops below ``tol``, for at most ``PICARD_MAX_ITER`` iterations.
    Independent of the split stepper, so it serves as an oracle for it.
    ``tracked`` names the columns of the result at the ``n_nodes`` times,
    as in :func:`evolve`.  Raises ValueError when ``horizon`` exceeds the estimated contraction
    horizon and :class:`ContractionError` when the iteration fails to
    contract.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_nodes < 3:
        raise ValueError("need at least 3 time nodes")
    t_star = contraction_horizon(u0, params)
    if horizon > t_star:
        raise ValueError(
            f"horizon {horizon:.4g} exceeds estimated contraction horizon "
            f"{t_star:.4g}; use the stepper or a smaller horizon")
    times = np.linspace(0.0, horizon, n_nodes)
    dt = times[1] - times[0]

    current = [u0.values.copy() for _ in times]
    prev_dist = None
    a_mat = params.A
    for _ in range(PICARD_MAX_ITER):
        vols = np.array([max(bodies._mixed_form(v, v), 0.0) for v in current])
        phis = np.array([float(params.phi(v)) for v in vols])
        big_phi = np.concatenate([[0.0], np.cumsum(0.5 * dt * (phis[1:] + phis[:-1]))])
        sources = [params.source.values(vols[j], current[j]) for j in range(n_nodes)]

        new = [u0.values.copy()]
        for i in range(1, n_nodes):
            acc = bodies._image_values(u0.values, expm(a_mat * big_phi[i]))
            # trapezoid in s over nodes 0..i
            for j in range(i + 1):
                if sources[j] is None:
                    continue
                w = dt if 0 < j < i else 0.5 * dt
                pulled = bodies._image_values(
                    sources[j], expm(a_mat * (big_phi[i] - big_phi[j])))
                acc = acc + w * pulled
            new.append(acc)
        dist = max(float(np.max(np.abs(a - b))) for a, b in zip(new, current))
        current = new
        if dist < tol:
            frames = [SupportFunction2D(v) for v in current]
            series = {k: [fn(b) for b in frames] for k, fn in _columns(tracked).items()}
            return _finish(times, series, frames[-1])
        if prev_dist is not None and dist > prev_dist and dist > tol:
            raise ContractionError(
                f"iteration distance grew {prev_dist:.3g} -> {dist:.3g}; "
                "horizon too long for contraction")
        prev_dist = dist
    raise ContractionError(f"no convergence within {PICARD_MAX_ITER} iterations "
                           f"(last distance {prev_dist:.3g})")


# ---------------------------------------------------------------------------
# special cases


def reach_set(A, control_body: SupportFunction2D, start: SupportFunction2D,
              horizon: float, dt: float = DEFAULT_DT, **kwargs) -> Trajectory:
    """Attainability sets of ``x' = A x + u`` with controls ranging in a body.

    The support function of the reachable set solves ``dh/dt = A*h + h_U``,
    which is the flow with unit clock and constant source.
    """
    params = SemiflowParams(A=as_matrix(A), phi=constant(1.0),
                            source=constant_source(control_body))
    return evolve(start, params, horizon, dt, **kwargs)


def mixed_columns(op, count: int) -> dict:
    """The tracked columns ``W0..W{count-1}`` of an operator B.

    Maps ``f"W{i}"`` to the function ``u -> V[u, B^i u]``, the mixed area of
    a body with its image under the i-th power of B.  The powers are
    computed and validated here, once; an identity power reads the body's
    kept self form (see :func:`setflow.bodies.area`).  The other columns of
    a body are computed together, in one pass (one difference of the body,
    one curvature solve for the spline powers), the first time one of them
    reads it; each keeps the bits of its own ``V[u, B^i u]``.
    They keep the values of the last body they read, in their own closure
    and not in a module-level buffer, so columns made for separate runs
    share nothing.  Raises ValueError when a power is not finite; a
    column raises it when the image of a body is not finite.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mat = as_matrix(op)
    with np.errstate(over="ignore", invalid="ignore"):    # as_matrix rejects it
        powers = [as_matrix(np.linalg.matrix_power(mat, i)) for i in range(count)]
    # linear_image hands a body back under the identity, so V[u, u]
    moved = [i for i, p in enumerate(powers) if not (p == np.eye(2)).all()]
    columns = {f"W{i}": bodies._self_form for i in range(count)}
    if moved:
        forms = _frame_forms(tuple(powers[i] for i in moved))
        for j, i in enumerate(moved):
            columns[f"W{i}"] = lambda u, j=j: forms(u)[j]
    return columns


def _frame_forms(mats):
    # V[u, M u] for every M in ``mats`` in one pass, kept for the last body
    kept = (None, [])

    def forms(u):
        nonlocal kept
        body, values = kept
        if body is not u:
            values = bodies._image_forms(u.values, mats)
            kept = (u, values)
        return values
    return forms


def mixed_functionals(u: SupportFunction2D, op, count: int) -> np.ndarray:
    """Mixed areas of u with the powers of an operator: W_i = V[u, B^i u].

    W_0 is the plain area; higher entries measure the interaction of the
    body with its rotated/sheared images.
    """
    return np.array([fn(u) for fn in mixed_columns(op, count).values()])
