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
# solve_reduced forms and measures its stored frames in blocks of at most
# this many bytes, or two frames where a frame is larger.  Arrays under
# 64 KB come from and go back to the C heap's free lists; a larger one is
# mapped fresh or, freed, shrinks the heap, and the next block takes the
# memory back a page fault at a time, a cost that varies with the host's
# load.  At M = 8192 a frame alone is 64 KB, and blocks of one frame pay
# each block's calls twice as often: the flows took 25% longer
BLOCK_BYTES = 60 * 1024
# the largest float whose np.exp is finite
EXP_MAX = math.log(np.finfo(float).max)


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

    def range(self, lo, hi):
        """``(min, max)`` on ``[lo, hi]``, ``0 <= lo <= hi``: a table takes them at
        the ends or its nodes inside, a rational ``p/q`` at the ends or the roots
        inside of ``p'q - pq'``."""
        if self.kind == "constant":
            return self.value, self.value
        inner = self.s_nodes
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "rational":
                p, q = (np.polynomial.Polynomial(c) for c in (self.num or 0.0, self.den))
                slope = (p.deriv() * q - p * q.deriv()).coef
                if not np.all(np.isfinite(slope)):
                    raise ValueError("the slope p'q - pq' of the rational function is not finite")
                inner = _nonnegative_roots(slope).tolist()
            values = self(np.array([lo, hi, *(s for s in inner if lo < s < hi)]))
        return float(np.min(values)), float(np.max(values))


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

    What a step would otherwise re-derive is resolved once, when the source
    is made (and again by ``dataclasses.replace``).  ``matrix`` is resolved
    to its operator (:func:`setflow.bodies._operator`), whose read-only
    copy it keeps and whose key names the pull-back a body keeps
    (:func:`setflow.bodies._kept_image`).  A constant
    :class:`ScalarFunction` psi is kept as its value, and its disc's
    samples are kept on the source, one read-only array per grid size.
    """

    kind: str
    psi: object = None          # callable for 'ball' / 'linear'
    matrix: np.ndarray = None   # for 'linear'
    body: SupportFunction2D = None  # for 'constant'
    _op: bodies._Operator = field(init=False, repr=False, compare=False, default=None)
    _psi_value: float = field(init=False, repr=False, compare=False, default=None)
    _discs: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.matrix is not None:
            op = bodies._operator(self.matrix)
            object.__setattr__(self, "matrix", op.matrix)
            object.__setattr__(self, "_op", op)
        psi = self.psi
        if isinstance(psi, ScalarFunction) and psi.kind == "constant":
            object.__setattr__(self, "_psi_value", float(psi.value))
            object.__setattr__(self, "_discs", {})

    def values(self, volume: float, u: SupportFunction2D) -> np.ndarray | None:
        """Sample array of F(volume, u), or None when the source vanishes.

        A ball source under a constant psi returns the disc samples it
        keeps for the grid size of ``u``.  A linear source scales the
        pull-back along B that ``u`` keeps.
        """
        kind = self.kind
        if kind == "zero":
            return None
        if kind == "constant":
            if self.body.grid_size != u.grid_size:
                raise GridMismatchError("source body grid does not match state")
            return self.body.values
        if kind != "ball" and kind != "linear":
            raise ValueError(f"unknown source kind {kind!r}")
        scale = self._psi_value
        if scale is None:
            scale = float(self.psi(volume))
        if scale < 0:
            raise ValueError("psi must be nonnegative")
        if kind == "linear":
            return scale * bodies._kept_image(u, self._op)
        m, discs = u.grid_size, self._discs
        if discs is None:
            return np.full(m, scale)
        disc = discs.get(m)
        if disc is None:
            disc = discs[m] = bodies._frozen(np.full(m, scale))
        return disc


def zero_source() -> SourceTerm:
    return SourceTerm(kind="zero")


def ball_source(psi) -> SourceTerm:
    return SourceTerm(kind="ball", psi=psi)


def linear_source(psi, matrix) -> SourceTerm:
    return SourceTerm(kind="linear", psi=psi, matrix=matrix)


def constant_source(body: SupportFunction2D) -> SourceTerm:
    return SourceTerm(kind="constant", body=body)


@dataclass(frozen=True)
class SemiflowParams:
    """The triple (A, phi, F) defining the flow.

    What a step would otherwise re-derive is resolved once, when the
    params are made (and again by ``dataclasses.replace``).  ``A`` is
    resolved to its operator (:func:`setflow.bodies._operator`), whose
    read-only copy it keeps and whose key names the cached flow operators
    of :func:`step`.  A constant :class:`ScalarFunction` clock is kept as
    its value, which :func:`step` reads in place of a midpoint volume.
    """

    A: np.ndarray
    phi: object                 # callable on the nonnegative axis
    source: SourceTerm
    _a: bodies._Operator = field(init=False, repr=False, compare=False)
    _phi_value: float = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        op = bodies._operator(self.A)
        object.__setattr__(self, "A", op.matrix)
        object.__setattr__(self, "_a", op)
        phi = self.phi
        if isinstance(phi, ScalarFunction) and phi.kind == "constant":
            object.__setattr__(self, "_phi_value", float(phi.value))

    @property
    def trace(self) -> float:
        return float(self.A[0, 0] + self.A[1, 1])


@dataclass
class Trajectory:
    """Named series along an orbit at its stored times, and its last body.

    ``tracked`` maps each column name to an array with one entry per
    stored time; a column of arrays, such as the frames
    ``{"h": lambda u: u.values}``, is one row per stored time.  ``final``
    is the body at ``times[-1]``, and ``solver`` names what made the
    series: ``"split_step"`` (:func:`evolve`) or ``"reduced"``
    (:func:`solve_reduced`).
    """

    times: np.ndarray
    tracked: dict
    final: SupportFunction2D
    solver: str = "split_step"

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


def _joined(series):
    # a column's blocks as one series; the first block is never empty
    return {name: np.concatenate(blocks) for name, blocks in series.items()}


def _finish(times, series, final, solver="split_step"):
    return Trajectory(times=np.asarray(times),
                      tracked={k: np.asarray(v) for k, v in series.items()},
                      final=final, solver=solver)


# ---------------------------------------------------------------------------
# stepping


def volume_rate(u: SupportFunction2D, params: SemiflowParams) -> float:
    """Instantaneous rate of change of the area along the flow.

    ``dV/dt = tr A * phi(V) * V + 2 * V[u, F(V, u)]`` -- the linear part
    contributes through the Liouville determinant factor, the source through
    the mixed area.
    """
    v = area(u)
    return _volume_rate_from(u, v, params, params.source.values(v, u))


def _volume_rate_from(u, v, params, source_vals):
    # the rate at a body of area v whose source samples are source_vals
    # (None for a vanishing source)
    rate = params.trace * float(params.phi(v)) * v
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
    if b == 0.0 and c == 0.0:
        return np.array([[_exp(a), 0.0], [0.0, _exp(d)]])
    mu = 0.5 * (a + d)
    half = 0.5 * (a - d)
    q = half * half + b * c
    if abs(q) < 1e-6:
        e = _exp(mu)
        cosh = e * (1.0 + q * (0.5 + q / 24.0))
        sinhc = e * (1.0 + q * (1.0 / 6.0 + q / 120.0))
    elif q > 0.0:
        r = math.sqrt(q)
        g = 0.5 * _exp(mu + r)
        cosh = g * (1.0 + math.exp(-2.0 * r))
        sinhc = -g * math.expm1(-2.0 * r) / r
    else:
        r = math.sqrt(-q)
        e = _exp(mu)
        cosh, sinhc = e * math.cos(r), e * math.sin(r) / r
    return np.array([[cosh + sinhc * half, sinhc * b],
                     [sinhc * c, cosh - sinhc * half]])


def _exp(x: float) -> float:
    # np.exp's bits, not math.exp's, and inf past EXP_MAX with no overflow
    # warning: the test of the exponent costs less than an np.errstate
    return math.inf if x > EXP_MAX else float(np.exp(x))


@lru_cache(maxsize=64)
def _flow_matrix(a_key: bytes, s: float) -> bodies._Operator:
    # the operator of exp(A s), validated once; calls the module binding
    # ``expm`` so that wrapping it sees every evaluation.
    try:
        return bodies._operator(expm(np.frombuffer(a_key).reshape(2, 2) * s))
    except ValueError:      # an entry is not finite
        raise BlowupError(f"exp(A s) overflows at s={s:.6g}", reached_time=0.0) from None


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
    :class:`ScalarFunction` of kind ``constant``) needs no midpoint volume:
    the step reads the value that ``params`` resolved when it was made, as
    the sources read their resolved psi, disc samples and operator, so a
    step pays only for its arithmetic.  It evaluates 2 areas, of ``u`` and
    of ``pred``; any other clock
    also takes the mixed area of the body with the first source to estimate
    the rate.  Under a constant clock and a constant psi neither area is
    read, but both are computed: the benchmark's tests pin 2 area calls per
    step until the benchmark-only change of ROADMAP item 1.  When both
    sources are one array (a ball under a constant psi, a constant body),
    ``out`` is ``pred``, bit for bit and with its kept form.  Nothing is
    projected: the sources, their Minkowski sums and the pull-back keep a
    body in the convex cone.  The operator of ``exp(A s)`` is validated
    once and cached per (A, s), and the pull-back reads a cached resampling
    plan per (matrix, grid); both hold read-only arrays.  The new body
    keeps its sup norm, which is its finiteness test here and
    :func:`evolve`'s overflow guard.  Raises
    ValueError when ``dt`` is not positive and finite, and
    :class:`BlowupError` when ``exp(A phi dt)``, the half-step or the new
    support values are not finite.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive")
    source = params.source
    v0 = area(u)
    f0 = source.values(v0, u)

    phi_mid = params._phi_value
    if phi_mid is None:
        v_mid = max(v0 + 0.5 * dt * _volume_rate_from(u, v0, params, f0), 0.0)
        phi_mid = float(params.phi(v_mid))
    if phi_mid < 0:
        raise ValueError("phi must be nonnegative")
    if f0 is None:
        start = u
    else:
        half_f0 = (0.5 * dt) * f0
        start = bodies._adopt(u.values + half_f0)
    try:
        moved = linear_image(start, _flow_matrix(params._a.key, phi_mid * dt))
    except ValueError:      # the pull-back of a non-finite half-step
        raise BlowupError("non-finite support values produced by step",
                          reached_time=dt) from None

    pred = moved if f0 is None else bodies._adopt(moved.values + half_f0)
    f1 = source.values(area(pred), pred)
    if f1 is None:
        return moved
    # f1 is f0: moved + (dt/2) f1 is the predictor, bit for bit
    out = pred if f1 is f0 else bodies._adopt(moved.values + (0.5 * dt) * f1)
    if not bodies._sup_norm(out) < math.inf:
        raise BlowupError("non-finite support values produced by step",
                          reached_time=dt)
    return out


def _schedule(horizon, dt):
    # evolve's steps as arrays (h, t, stored): the step lengths
    # h = min(dt, horizon - t), the running sums t += h after each, and
    # whether t is a stored time (every stride-th step and the last, so at
    # most MAX_STORED_FRAMES are stored).  horizon - t falls as t grows, so
    # the full steps (h = dt) come first and their sums are one sequential
    # cumsum; the loop sums the short steps after them one at a time
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    stride = max(1, int(np.ceil(n_steps / MAX_STORED_FRAMES)))
    h = np.full(n_steps, dt)
    t = np.cumsum(np.concatenate(([0.0], h)))      # t[i] is where step i starts
    for i in range(np.count_nonzero(horizon - t[:-1] >= dt), n_steps):
        h[i] = min(dt, horizon - t[i])
        t[i + 1] = t[i] + h[i]
    stored = np.zeros(n_steps, dtype=bool)
    stored[stride - 1::stride] = stored[-1] = True
    return h, t[1:], stored


def evolve(u0: SupportFunction2D, params: SemiflowParams, horizon: float,
           dt: float = DEFAULT_DT, tracked=None) -> Trajectory:
    """Integrate the flow over [0, horizon], recording functionals at stored times.

    ``tracked`` maps each column name, in the order of :meth:`Trajectory.to_csv`,
    to a function of a body giving one value or row per frame of a stack (see
    :func:`solve_reduced`); the default is ``{"V": area, "perimeter": perimeter}``;
    the mixed functionals of an operator come from :func:`mixed_columns`, for example
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
    guard = OVERFLOW_FACTOR * max(1.0, bodies._sup_norm(u0))
    u, t = u0, 0.0
    times = [0.0]
    last = u0
    series = {name: [fn(u)] for name, fn in tracked.items()}

    for h, t_next, stored in zip(*(map(float, a) for a in _schedule(horizon, dt))):
        try:
            u = step(u, params, h)
        except BlowupError as exc:
            raise BlowupError(str(exc), reached_time=t,
                              partial=_finish(times, series, last)) from None
        t = t_next
        if bodies._sup_norm(u) > guard:
            raise BlowupError(
                f"support values exceeded {guard:.3g} at t={t:.6g}",
                reached_time=t, partial=_finish(times, series, last))
        if stored:
            times.append(t)
            last = u
            for name, fn in tracked.items():
                series[name].append(fn(u))
    return _finish(times, series, last)


# ---------------------------------------------------------------------------
# reduced solution of scalar-A flows


def cyclic_order(mat, max_order=8, tol=1e-9):
    """Smallest k <= max_order with ``max |B^k - I| < tol``, or None."""
    power = np.eye(2)
    for k in range(1, max_order + 1):
        with np.errstate(over="ignore", invalid="ignore"):     # a large B
            power = power @ mat
        if np.max(np.abs(power - np.eye(2))) < tol:
            return k
    return None


def reducible(params: SemiflowParams):
    """Whether :func:`solve_reduced` solves the flow: ``(a, k, cyclic)`` when
    ``A = aI`` exactly and the source is not linear or has ``B^2 = 0``
    (``k = 2`` kept bodies) or ``B^k = I`` to a few ulps for some ``k <= 8``
    (``cyclic``), else None."""
    (a, b), (c, d) = params.A.tolist()
    if b != 0.0 or c != 0.0 or a != d:
        return None
    mat = params.source.matrix
    with np.errstate(over="ignore", invalid="ignore"):     # a large B
        if params.source.kind != "linear" or not (mat @ mat).any():
            return a, 2, False
    k = cyclic_order(mat, tol=16 * np.finfo(float).eps)
    return None if k is None else (a, k, True)


def solve_reduced(u0: SupportFunction2D, params: SemiflowParams, horizon: float,
                  dt: float = DEFAULT_DT, tracked=None, clocks=None) -> Trajectory:
    """:func:`evolve`'s trajectory, by :func:`evolve` unless the flow is
    :func:`reducible`: then at its stored times bit for bit, in the cone of
    a few fixed bodies: ``h = e^{a tau} h0 + rho g1`` (``g1`` nothing, the
    disc or ``K``; ``rho' = a phi rho + 0, psi or 1``), or ``e^{a tau}
    c(sigma) g`` with ``g_n = B^n h0`` and ``c`` the first column of
    ``exp(sigma S)`` for the shift ``S`` (mod ``k`` when ``B^k = I``), where
    ``tau = int phi`` and ``sigma = int psi``.  Constant clocks give closed
    forms; other clocks need ``clocks(rhs, start, times)``, the ODE's states
    ``(tau, rho or sigma)``, and go to :func:`evolve` without it or when it
    raises :class:`BlowupError` (escaping clocks, or more RK4 steps than
    :func:`evolve`'s).  The frames are formed ``BLOCK_BYTES`` at a time, as
    ``weights[i:j, None, :] @ basis``, and each reads :func:`evolve`'s overflow
    guard; each ``tracked`` column is called once on each block as one body and
    returns one value or row per frame, else a ValueError names it.
    """
    if not (0.0 < horizon < math.inf and 0.0 < dt < math.inf):
        raise ValueError("horizon and dt must be positive")
    cone, source, phi = reducible(params), params.source, params._phi_value
    kind = source.kind
    psi = {"zero": 0.0, "constant": 1.0}.get(kind, source._psi_value)
    if cone is None or clocks is None and (phi is None or psi is None):
        return evolve(u0, params, horizon, dt, tracked)
    (a, k, cyclic), h0 = cone, u0.values
    if kind == "linear":
        basis = [linear_image(u0, np.linalg.matrix_power(source.matrix, n)).values
                 for n in range(k)]
    else:
        basis = [h0, source.values(0.0, u0) if kind == "constant"
                 else np.full(h0.size, 1.0 if kind == "ball" else 0.0)]
    basis = np.array(basis)
    # exp(sigma S) for the cyclic shift by its eigenvalues w^j = e^{2 pi i j/k}:
    # c_n = (1/k) sum_j w^{-jn} e^{sigma w^j}, a DFT whose terms carry
    # e^{a tau} in their exponents, so no factor overflows where the weight
    # does not
    roots = np.exp(2j * np.pi * np.arange(k) / k)

    def coefficients(tau, r):
        # the weights of the g_n at the clocks (tau, r), numpy floats or arrays
        x, r = a * np.asarray(tau)[..., None], np.asarray(r)[..., None]
        if kind != "linear":
            return np.concatenate([np.exp(x), r], axis=-1)
        if cyclic:
            return np.fft.fft(np.exp(x + r * roots), axis=-1).real / k
        return np.exp(x) * r ** np.arange(k)        # B^2 = 0: c = (1, sigma)

    _, ends, stored = _schedule(horizon, dt)
    times = np.concatenate(([0.0], ends[stored]))
    with np.errstate(over="ignore", invalid="ignore"):
        if phi is not None and psi is not None:
            tau, r = phi * times, psi * times
            if kind != "linear":
                # rho = psi t expm1(x) / x for x = a phi t, which is 1 at x = 0
                x = (a * phi) * times
                moving = x != 0.0
                r[moving] *= np.expm1(x[moving]) / x[moving]
        else:
            gram = np.array([[bodies._mixed_form(g, f) for f in basis] for g in basis])
            # 11 calls an RK4 attempt, as many attempts as evolve's steps or
            # stored frames: a stiff clock costs no unbounded work
            budget = 11 * max(MAX_STORED_FRAMES, math.ceil(horizon / dt))

            def rhs(t, state):
                nonlocal budget
                budget -= 1
                if budget < 0:
                    raise BlowupError("the clock ODE takes more steps than evolve", t)
                tau, r = state
                c = coefficients(tau, r)
                v = max(float(c @ gram @ c), 0.0)
                p = float(params.phi(v))
                q = float(source.psi(v)) if psi is None else psi
                return np.array([p, q if kind == "linear" else a * p * r + q])
            try:
                tau, r = clocks(rhs, np.zeros(2), times).T
            except BlowupError:     # escaping or stiff clocks: the stepper decides
                tau = None
        weights = None if tau is None else coefficients(tau, r)
    if weights is None:
        return evolve(u0, params, horizon, dt, tracked)

    tracked = _columns(tracked)
    guard = OVERFLOW_FACTOR * max(1.0, bodies._sup_norm(u0))
    series = {name: [] for name in tracked}
    last = u0
    rows = max(2, BLOCK_BYTES // basis[0].nbytes)
    for start in range(0, len(times), rows):
        with np.errstate(over="ignore", invalid="ignore"):
            values = (weights[start:start + rows, None, :] @ basis)[:, 0]
        norms = bodies._max_abs(values)
        good = len(values) if norms.max() <= guard else int(np.argmin(norms <= guard))
        if good:
            block = bodies._adopt(values[:good], norms[:good])
            for name, fn in tracked.items():
                column = fn(block)
                if np.shape(column)[:1] != (good,):
                    raise ValueError(f"tracked column {name!r} gives no value per frame")
                series[name].append(column)
            last = bodies._adopt(values[good - 1], float(norms[good - 1]))
        if good < len(values):
            i = start + good
            raise BlowupError(f"support values exceeded {guard:.3g} at t={times[i]:.6g}",
                              reached_time=times[i] if norms[good] < math.inf else times[i - 1],
                              partial=_finish(times[:i], _joined(series), last, "reduced"))
    return _finish(times, _joined(series), last, "reduced")


# ---------------------------------------------------------------------------
# Picard oracle


def contraction_horizon(u0: SupportFunction2D, params: SemiflowParams) -> float:
    """Estimated horizon on which the integral operator is a contraction.

    Mirrors the constructive existence bound: with local Lipschitz
    estimates L (volume), H (phi) and L1 (source) sampled numerically
    around u0, the operator keeps a ball of radius r invariant as long as
    ``(e^{beta T} - 1)(|u0| + (|F0| + L1 r)/beta) <= r`` with
    ``beta = max(1, ||A||_2) (phi(V0) + L H r)`` (at least 1e-12), as
    ``exp(A Phi)`` grows at most at the rate ``||A||_2``.  A safety factor
    of 1/2 is applied.
    """
    v0 = area(u0)
    norm0 = bodies._sup_norm(u0)
    scale = max(1.0, norm0)
    r = 0.5 * scale

    eps = 1e-4 * max(1.0, v0)
    lip_phi = abs(float(params.phi(v0 + eps)) - float(params.phi(max(v0 - eps, 0.0)))) / (2 * eps)
    # area is Lipschitz in the sup norm with constant <= perimeter of the
    # inflated body u0 + r K
    lip_vol = perimeter(SupportFunction2D(u0.values + r))
    f0 = params.source.values(v0, u0)
    du = 1e-3 * scale
    perturbed = SupportFunction2D(u0.values + du)
    f_pert = params.source.values(area(perturbed), perturbed)
    # only a zero source vanishes, and it vanishes at every body
    f0_norm, lip_src = ((0.0, 0.0) if f0 is None else
                        (bodies._max_abs(f0), bodies._max_abs(f_pert - f0) / du))
    growth = max(1.0, float(np.linalg.norm(params.A, 2)))
    beta = max(growth * (float(params.phi(v0)) + lip_vol * lip_phi * r), 1e-12)
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
    as in :func:`evolve`.  Raises ValueError when ``horizon`` exceeds the
    estimated contraction horizon or an ``exp(A Phi)`` is not finite, and
    :class:`ContractionError` when the iteration fails to contract.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if n_nodes < 3:
        raise ValueError("need at least 3 time nodes")
    t_star = contraction_horizon(u0, params)
    if not horizon <= t_star:           # a NaN estimate, from an overflowing ||A||_2, too
        raise ValueError(
            f"horizon {horizon:.4g} exceeds estimated contraction horizon "
            f"{t_star:.4g}; use the stepper or a smaller horizon")
    times = np.linspace(0.0, horizon, n_nodes)
    dt = times[1] - times[0]

    current = [u0] * n_nodes
    prev_dist = None

    def pulled(values, s):
        # the samples pulled back along exp(A s)
        return bodies._image_values(values, bodies._operator(expm(params.A * s)))

    for _ in range(PICARD_MAX_ITER):
        vols = np.array([max(bodies._self_form(v), 0.0) for v in current])
        phis = np.array([float(params.phi(v)) for v in vols])
        big_phi = np.concatenate([[0.0], np.cumsum(0.5 * dt * (phis[1:] + phis[:-1]))])
        sources = [params.source.values(vols[j], current[j]) for j in range(n_nodes)]

        new = [u0]
        for i in range(1, n_nodes):
            acc = pulled(u0.values, big_phi[i])
            # trapezoid in s over nodes 0..i
            for j in range(i + 1):
                if sources[j] is None:
                    continue
                w = dt if 0 < j < i else 0.5 * dt
                acc = acc + w * pulled(sources[j], big_phi[i] - big_phi[j])
            new.append(bodies._adopt(acc))
        dist = max(float(np.max(np.abs(a.values - b.values))) for a, b in zip(new, current))
        current = new
        if dist < tol:
            frames = [SupportFunction2D(v.values) for v in current]
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
    params = SemiflowParams(A=A, phi=constant(1.0),
                            source=constant_source(control_body))
    return evolve(start, params, horizon, dt, **kwargs)


def mixed_columns(op, count: int) -> dict:
    """The tracked columns ``W0..W{count-1}`` of an operator B.

    Maps ``f"W{i}"`` to the function ``u -> V[u, B^i u]``, the mixed area of
    a body with its image under the i-th power of B.  The powers are
    computed and validated here, once; an identity power reads the body's
    kept self form (see :func:`setflow.bodies.area`), and every other
    column pulls the body back along its power and takes one mixed form.
    The body keeps both arrays; a column holds no state (columns made for
    separate runs share nothing) and gives one value per frame of a stack.
    Raises ValueError when a power is not finite, a column when an image is.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mat = as_matrix(op)
    with np.errstate(over="ignore", invalid="ignore"):    # _operator rejects it
        powers = [bodies._operator(np.linalg.matrix_power(mat, i)) for i in range(count)]
    # linear_image hands a body back under the identity, so V[u, u]
    return {f"W{i}": bodies._self_form if p.identity else _mixed_column(p)
            for i, p in enumerate(powers)}


def _mixed_column(op):
    # u -> V[u, M u] for the operator of a matrix M that moves the body; a
    # sample of the image that is not finite makes its form not finite, so
    # only then is the image tested
    def column(u):
        image = bodies._kept_image(u, op)
        form = bodies._mixed_form(u.values, image, bodies._kept_difference(u))
        if not np.isfinite(form).all() and not np.isfinite(image).all():
            raise ValueError("support values must be finite")
        return form
    return column


def mixed_functionals(u: SupportFunction2D, op, count: int) -> np.ndarray:
    """Mixed areas of u with the powers of an operator: W_i = V[u, B^i u].

    W_0 is the plain area; higher entries measure the interaction of the
    body with its rotated/sheared images.
    """
    return np.array([fn(u) for fn in mixed_columns(op, count).values()])
