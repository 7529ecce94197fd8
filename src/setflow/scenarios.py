"""Declarative experiment files: parse, run, and report.

A scenario is a JSON document (``schema: 1``) naming an initial body, flow
parameters, a horizon and discretization, functionals to track, and a list
of checks to run.  Running one produces a CSV trajectory and a JSON verdict
report; both are deterministic given the file and its seed.  Matrices are
row-major; scalar functions are referenced by name with a parameter object
(no code is ever executed from a scenario file).
"""

from __future__ import annotations

import json
import math
import sys
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bodies, certificates, comparison, flow
from .bodies import SupportFunction2D
from .errors import BlowupError

SCHEMA_VERSION = 1
# The outputs are {name}.csv and {name}.json; a file name holds at most 255
# bytes on common file systems.
MAX_FILE_NAME_BYTES = 255
# The largest work a document may request: flow steps times grid size,
# summed over its flows, the main one and one per 'growth_scaling' length.
# The biggest bundled or benchmark flow takes 12000 steps at M=512 (6.1e6).
MAX_FLOW_WORK = 10 ** 8
# The largest grid a document may request.  The work cap alone admits a
# one-step flow at M = 10**8, and a run holds about 100 bytes a grid point;
# the largest benchmark grid is 8192.
MAX_GRID_SIZE = 65536
# The largest sup norm N = max |h| of a document body, and half the largest
# 'lengths' entry of growth_scaling (a segment's N).  Up to
# flow.OVERFLOW_FACTOR times it (1e146), every area form is finite at
# MAX_GRID_SIZE, even of samples outside the cone: <h, h> <= M N^2 and
# sum_j (D h)_j^2 <= 4 M N^2 = 2.6e297, which the form divides by
# 2 sin(2 pi / M) = 1.9e-4.
MAX_BODY_NORM = 1e140
# The largest 'count' of a 'track' 'mixed' entry: every stored frame
# evaluates 'count' columns, outside the work cap.  The benchmark uses 4.
MAX_MIXED_COUNT = 64
# The largest comparison system: the 'k' of a 'cyclic' system, the order of
# a 'linear' one.  Its state is a row of every batched sample below.
MAX_SYSTEM_DIM = 64
# The largest sampled checks.  Wazewski and Lyapunov evaluate their samples
# in batches, so a size is memory held at once.  A system with a Metzler
# matrix reads none of these sizes: its checks are decided from the matrix.
# The builtins and the benchmark use at most 4096 samples.
MAX_SAMPLES = 65536             # 'samples' of wazewski and lyapunov
MAX_EPS = 64                    # 'eps' of xi0_stability: up to two exact runs each
GROWTH_LENGTHS = (4, 8, 16)     # the default 'lengths' of growth_scaling


class SchemaError(ValueError):
    """The scenario document does not match the schema."""


# ---------------------------------------------------------------------------
# parsing helpers


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _build(obj, kinds, what, *args):
    """``kinds[obj["kind"]](obj, *args)``, any bad parameter a SchemaError."""
    _require(isinstance(obj, dict) and "kind" in obj, f"{what} must be an object with a 'kind'")
    kind = obj["kind"]
    _require(isinstance(kind, str) and kind in kinds, f"unknown {what} kind {kind!r}")
    try:
        return kinds[kind](obj, *args)
    except SchemaError:
        raise
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad {what} {kind!r} parameters: {exc}") from None


def _parse_matrix(obj, what="matrix"):
    try:
        mat = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be a 2x2 array of numbers") from None
    _require(mat.shape == (2, 2), f"{what} must be 2x2, got shape {mat.shape}")
    _require(bool(np.all(np.isfinite(mat))), f"{what} entries must be finite")
    return mat


_FUNCTIONS = {
    "constant": lambda obj: flow.constant(float(obj["value"])),
    "rational": lambda obj: flow.rational(obj["num"], obj["den"]),
    "table": lambda obj: flow.table(obj["s"], obj["values"]),
}


def _parse_function(obj, what="function"):
    return _build(obj, _FUNCTIONS, what)


def _bounded(body):
    """``body``, or a ValueError when its max |h| passes MAX_BODY_NORM."""
    norm = bodies._sup_norm(body)
    if not norm <= MAX_BODY_NORM:
        raise ValueError(f"max |h| must be at most {MAX_BODY_NORM:.0e}, got {norm:.3g}")
    return body


def _support_values(obj, grid_size):
    values = np.asarray(obj["values"], dtype=float)
    declared = obj.get("grid_size", values.size)
    if not declared == values.size == grid_size:
        raise ValueError(f"{values.size} values for declared grid_size {declared} "
                         f"and scenario grid_size {grid_size}")
    # bounded before the convexity test, whose sums of huge samples overflow
    body = _bounded(SupportFunction2D(values))
    problems = bodies.validate(body)
    if problems:
        raise ValueError(f"the values are not a sampled convex body: {problems[0]}")
    return body


_BODIES = {
    "ball": lambda obj, m: bodies.make_ball(float(obj["radius"]),
                                            center=obj.get("center", (0.0, 0.0)),
                                            grid_size=m),
    "polygon": lambda obj, m: bodies.make_polygon(obj["vertices"], grid_size=m),
    "segment": lambda obj, m: bodies.make_segment(float(obj["length"]),
                                                  angle=float(obj.get("angle", 0.0)),
                                                  grid_size=m),
    "support_values": _support_values,
}


def _parse_body(obj, grid_size, what="body"):
    body = _build(obj, _BODIES, what, grid_size)
    try:
        return _bounded(body)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from None


_SOURCES = {
    "zero": lambda obj, m: flow.zero_source(),
    "ball_source": lambda obj, m: flow.ball_source(_parse_function(obj.get("psi"), "psi")),
    "linear_body": lambda obj, m: flow.linear_source(_parse_function(obj.get("psi"), "psi"),
                                                     _parse_matrix(obj.get("B"), "B")),
    "constant_body": lambda obj, m: flow.constant_source(
        _parse_body(obj.get("body"), m, "source body")),
}


def _parse_track(track, params, grid_size):
    """The tracked columns of a 'track' list: ``V, perimeter, W0.., dH_ref``.

    Maps each column name to a function of a body, in CSV order whatever
    the order of the list; ``V`` is always tracked.
    """
    _require(isinstance(track, list), "'track' must be a list")
    columns = {"V": bodies.area}
    mixed, hausdorff = None, None
    for item in track:
        if item == "perimeter":
            columns["perimeter"] = bodies.perimeter
        elif item == "V":
            pass                # always tracked
        elif isinstance(item, dict) and item.get("kind") == "mixed":
            _require(mixed is None, "track: at most one 'mixed' entry")
            count = _count(item, "count", 2, 1, MAX_MIXED_COUNT)
            mat = item.get("B")
            op = (_parse_matrix(mat, "track mixed B") if mat is not None
                  else params.source.matrix)
            _require(op is not None, "track mixed: no operator available")
            try:
                mixed = flow.mixed_columns(op, count)
            except ValueError as exc:   # a power of B overflows
                raise SchemaError(
                    f"track mixed: the powers of B up to B^{count - 1}: {exc}") from None
        elif isinstance(item, dict) and item.get("kind") == "hausdorff_to":
            _require(hausdorff is None, "track: at most one 'hausdorff_to' entry")
            reference = _parse_body(item.get("body"), grid_size, "reference body")
            hausdorff = {"dH_ref": lambda u: bodies.hausdorff_distance(u, reference)}
        else:
            raise SchemaError(f"unknown track entry {item!r}")
    return {**columns, **(mixed or {}), **(hausdorff or {})}


@dataclass
class Scenario:
    """A parsed experiment: everything needed to run and report."""

    name: str
    seed: int
    grid_size: int
    initial_body: SupportFunction2D
    params: flow.SemiflowParams
    horizon: float
    dt: float
    track: dict                 # column name -> function of a body, in CSV order
    checks: list                # (kind, run) pairs; run(trajectory) -> (passed, details)


def parse_scenario(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario document must be a JSON object")
    _require(doc.get("schema") == SCHEMA_VERSION,
             f"schema field must equal {SCHEMA_VERSION}")
    name = doc.get("name")
    # the outputs are {name}.csv and {name}.json inside the output directory
    # and the CLI prints their paths one a line: no control character (Cc)
    _require(isinstance(name, str) and name not in ("", ".", "..")
             and not any(c in "/\\" or unicodedata.category(c) == "Cc" for c in name)
             and _file_name_fits(name + ".json"),
             "'name' must be a plain file name: nonempty, not '.' or '..', "
             "without '/', '\\' or control characters, and with its '.json' suffix "
             f"at most {MAX_FILE_NAME_BYTES} bytes of UTF-8")
    seed = doc.get("seed", 0)
    # the seed of numpy's generators, which refuse a negative one
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "'seed' must be a non-negative integer")
    grid_size = doc.get("grid_size", bodies.DEFAULT_GRID_SIZE)
    _require(isinstance(grid_size, int) and grid_size % 2 == 0
             and bodies.MIN_GRID_SIZE <= grid_size <= MAX_GRID_SIZE,
             f"'grid_size' must be an even integer from 16 to {MAX_GRID_SIZE}")
    horizon = doc.get("horizon")
    dt = doc.get("dt", flow.DEFAULT_DT)
    _require(_is_number(horizon) and horizon > 0, "'horizon' must be positive and finite")
    _require(_is_number(dt) and dt > 0, "'dt' must be positive and finite")
    steps = horizon / dt
    _require(math.isfinite(steps) and math.ceil(steps) * grid_size <= MAX_FLOW_WORK,
             f"'dt' is too small: ceil(horizon / dt) * grid_size must be at most "
             f"{MAX_FLOW_WORK:.0e}, got {steps * grid_size:.3g}")

    _require("params" in doc and isinstance(doc["params"], dict),
             "scenario needs a 'params' object")
    pd = doc["params"]
    params = flow.SemiflowParams(
        A=_parse_matrix(pd.get("A"), "params.A"),
        phi=_parse_function(pd.get("phi"), "phi"),
        source=_build(pd.get("source", {"kind": "zero"}), _SOURCES, "source", grid_size))

    initial = _parse_body(doc.get("initial_body"), grid_size, "initial_body")

    track = _parse_track(doc.get("track", ["V", "perimeter"]), params, grid_size)
    checks = doc.get("checks", [])
    _require(isinstance(checks, list), "'checks' must be a list")
    scenario = Scenario(name=name, seed=seed, grid_size=grid_size,
                        initial_body=initial, params=params,
                        horizon=float(horizon), dt=float(dt), track=track,
                        checks=[])
    for check in checks:
        run = _build(check, _CHECKS, "check", scenario)
        scenario.checks.append((check["kind"], run))
    flows = 1 + sum(len(check.get("lengths", GROWTH_LENGTHS)) for check in checks
                    if check["kind"] == "growth_scaling")
    work = flows * math.ceil(steps) * grid_size
    _require(work <= MAX_FLOW_WORK,
             f"growth_scaling: 'lengths' run one more flow each: (1 + lengths) * "
             f"ceil(horizon / dt) * grid_size must be at most {MAX_FLOW_WORK:.0e}, "
             f"got {work:.3g}")
    return scenario


def _file_name_fits(file_name: str) -> bool:
    try:
        return len(file_name.encode("utf-8")) <= MAX_FILE_NAME_BYTES
    except UnicodeEncodeError:      # a lone surrogate
        return False


def body_record(u: SupportFunction2D) -> dict:
    """Serialize a body for scenario files: the record {grid_size, values[]}."""
    return {"kind": "support_values", "grid_size": u.grid_size,
            "values": [float(v) for v in u.values]}


def _read_document(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, text that is not JSON, an integer past
        # Python's digit limit, or arrays nested past its recursion limit
        raise SchemaError(f"scenario file is not UTF-8 JSON: {exc}") from None


def load_scenario(path) -> Scenario:
    return parse_scenario(_read_document(path))


# ---------------------------------------------------------------------------
# comparison-system resolution


def _finite_products(mat, what):
    """``(mat, det B, B @ B)`` of a parsed B, taken without a warning; a
    SchemaError naming ``what`` when either product is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        det, square = float(np.linalg.det(mat)), mat @ mat
    _require(math.isfinite(det) and bool(np.isfinite(square).all()),
             f"{what}: det B and B @ B must be finite")
    return mat, det, square


def _linear(spec):
    """The 'linear' system, or a SchemaError naming its first negative off-diagonal
    entry: the comparison theorem needs a quasimonotone (Metzler) matrix."""
    matrix = _param(spec, "matrix", None,
                    lambda v: isinstance(v, list) and 0 < len(v) <= MAX_SYSTEM_DIM,
                    f"a square matrix of order 1 to {MAX_SYSTEM_DIM}")
    system = comparison.linear_system(matrix)
    if system.matrix is None:
        mat = np.asarray(matrix, dtype=float)
        i, j = next((i, j) for i, j in zip(*np.nonzero(mat < 0)) if i != j)
        raise SchemaError(f"comparison system 'linear': 'matrix' entry ({i}, {j}) is "
                          f"{mat[i, j]:g}; off the diagonal it must be >= 0 (Metzler)")
    return system


_SYSTEMS = {
    "nilpotent": lambda spec: comparison.nilpotent_source_system(
        _parse_function(spec["phi"], "phi"), _parse_function(spec["psi"], "psi"),
        a=_number(spec, "a", -1.0)),
    "cyclic": lambda spec: comparison.cyclic_mixed_system(
        _parse_function(spec["phi"], "phi"), _parse_function(spec["psi"], "psi"),
        k=_count(spec, "k", None, 1, MAX_SYSTEM_DIM), a=_number(spec, "a", -1.0)),
    "sde": lambda spec: comparison.sde_growth_system(
        _finite_products(_parse_matrix(spec["B"], "B"), "comparison system 'sde' B")[0]),
    "linear": _linear,
}


def resolve_system(system_spec, scenario: Scenario) -> comparison.ComparisonSystem:
    """Build the comparison system named by a check (or infer one).

    ``"auto"`` inspects the flow parameters: a zero source gives the volume
    equation (:func:`comparison.volume_system`); a linear-body source
    with scalar A gives the nilpotent pair (B^2 = 0) or the cyclic chain
    (B^k = identity); a driftless flow with det B < 0 <= tr B gives the
    growth system of the set equation.
    """
    if isinstance(system_spec, dict):
        return _build(system_spec, _SYSTEMS, "comparison system")
    _require(system_spec == "auto", "comparison system must be 'auto' or a system object")

    params = scenario.params
    a_mat = params.A
    src = params.source
    # Python floats overflow to inf with no warning; halving first keeps a finite mean finite
    diag = 0.5 * float(a_mat[0, 0]) + 0.5 * float(a_mat[1, 1])
    is_scalar_a = np.max(np.abs(a_mat - diag * np.eye(2))) < 1e-9
    # the rate 2 a phi of every auto system (2 a under a clock that is not constant)
    rate = 2 * diag * (params.phi.value if params.phi.kind == "constant" else 1.0)
    _require(math.isfinite(rate), "params.A: the auto system's rate 2 a phi is not finite")

    if src.kind == "zero":
        _require(is_scalar_a, "auto system with zero source needs scalar A")
        return comparison.volume_system(params.phi, a=diag)
    if src.kind == "linear":
        mat, det, square = _finite_products(src.matrix, "params.source.B")
        tr = float(np.trace(mat))
        if np.max(np.abs(a_mat)) < 1e-12 and det < 0 and tr >= 0:
            return comparison.sde_growth_system(mat)
        _require(is_scalar_a, "auto system for a linear-body source needs scalar A")
        scale = max(1.0, float(np.max(np.abs(mat))))   # a Python float squares to inf quietly
        if np.max(np.abs(square)) < 1e-12 * (scale * scale):
            return comparison.nilpotent_source_system(params.phi, src.psi, a=diag)
        order = flow.cyclic_order(mat)
        _require(order is not None,
                 "auto system needs B nilpotent of order 2 or B^k = identity (k <= 8)")
        return comparison.cyclic_mixed_system(params.phi, src.psi, k=order, a=diag)
    raise SchemaError(f"no automatic comparison system for source kind {src.kind!r}")


# ---------------------------------------------------------------------------
# checks: each builder reads and validates its parameters once, when the
# document is parsed, and returns run(trajectory) -> (passed, details)


def _is_number(x):
    # finite: an integer (JSON bounds no digits) must also fit a float
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _positives(x, least=1):
    return (isinstance(x, (list, tuple)) and len(x) >= least
            and all(_is_number(v) and v > 0 for v in x))


def _param(obj, key, default, ok, what):
    """``obj[key]``, or its default, once ``ok`` accepts it."""
    value = obj.get(key, default)
    _require(ok(value), f"{obj['kind']}: {key!r} must be {what}")
    return value


def _number(check, key, default, ok=_is_number, what="a number"):
    return float(_param(check, key, default, ok, what))


def _positive(check, key, default):
    return _number(check, key, default, lambda v: _is_number(v) and v > 0, "a positive number")


def _span(check, key, default, zero=False):
    # a time span cut into output intervals: at least the smallest normal
    # float (or 0 where ``zero`` allows), as a subnormal span cuts into
    # intervals that round to repeated times
    least = sys.float_info.min
    return _number(check, key, default,
                   lambda v: _is_number(v) and (v >= least or zero and v == 0),
                   f"{'0 or ' if zero else ''}a number >= {least:.2g}")


def _count(obj, key, default, least, most=None):
    return _param(obj, key, default, lambda v: isinstance(v, int) and not isinstance(v, bool)
                  and v >= least and (most is None or v <= most),
                  f"an integer >= {least}" if most is None
                  else f"an integer from {least} to {most}")


def _flag(check, key):
    return _param(check, key, True, lambda v: isinstance(v, bool), "true or false")


def _verdict(check, default, verdicts):
    return _param(check, "expect", default, lambda v: v in verdicts, f"one of {verdicts}")


def _system(check, scenario):
    return resolve_system(check.get("system", "auto"), scenario)


def _exact_span(system, span, field, levels=()):
    # the exact solver refuses a longer run (comparison.EXACT_MAX_SPAN) of a
    # Metzler system, or of a clocked chain's bracket at each of 'levels';
    # 'field' names where the span came from
    mats, chain = [system.matrix], system.chain
    if system.matrix is None:
        mats = [m for eps in levels for m in comparison._bracket(chain, eps)] if chain else []
    norm = max(map(comparison._inf_norm, mats), default=0.0)
    _require(span * norm <= comparison.EXACT_MAX_SPAN,
             f"{field} times the comparison matrix's ||M||_inf ({norm:.3g}) must be "
             f"at most {comparison.EXACT_MAX_SPAN:.0e}, got {span * norm:.3g}")


def _box(check, default, system):
    box = check.get("box", default)
    try:
        comparison._box_bounds(box, system.dim)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{check['kind']}: bad 'box': {exc}") from None
    return tuple(box)


def _phi_psi(check, params):
    phi = _parse_function(check["phi"], "phi") if "phi" in check else params.phi
    psi = _parse_function(check["psi"], "psi") if "psi" in check else params.source.psi
    _require(psi is not None, f"{check['kind']}: no psi available")
    return phi, psi


def _lambda_bound_horizon(check, scenario):
    lam, bound = check.get("lambda"), check.get("A")
    _require(_is_number(lam) and _is_number(bound) and 0 < lam < bound,
             f"{check['kind']}: 'lambda' and 'A' must be numbers with 0 < lambda < A")
    horizon = _span(check, "T", scenario.horizon, zero=True)
    return float(lam), float(bound), horizon


def _failure(exc, **details):
    """The details of a check whose certificate could not be computed."""
    return False, dict(details, error=f"{type(exc).__name__}: {exc}")


def _check_closed_form_area(check, scenario):
    terms = _param(check, "terms", 2, lambda v: isinstance(v, int) and v in (2, 4), "2 or 4")
    rtol = _positive(check, "rtol", 1e-3)
    params, src = scenario.params, scenario.params.source
    _require(src.kind == "linear", "closed_form_area applies to linear-body sources")
    # the closed forms are the cyclic solutions for A = -I, phi = 1, psi = 1/2
    # and B^terms = I (the order of B divides terms), and describe no other flow
    _require(np.array_equal(params.A, -np.eye(2)), "closed_form_area needs params.A = -I")
    _require(params.phi == flow.constant(1.0), "closed_form_area needs a constant phi of 1")
    _require(src.psi == flow.constant(0.5), "closed_form_area needs a constant psi of 0.5")
    _require(flow.cyclic_order(src.matrix, terms) in (1, 2, terms),
             f"closed_form_area: 'terms' {terms} needs B^{terms} = I")

    def run(traj):
        w0 = flow.mixed_functionals(scenario.initial_body, src.matrix, terms)
        if terms == 2:
            ref = certificates.reflection_area_profile(traj.times, w0[0], w0[1])
        else:
            ref = certificates.quarter_turn_area_profile(traj.times, w0)
        rel = np.abs(traj.tracked["V"] - ref) / np.maximum(np.abs(ref), 1e-300)
        worst = float(np.max(rel))
        return worst <= rtol, {"max_rel_error": worst, "rtol": rtol,
                               "initial_functionals": w0.tolist()}
    return run


def _check_bound(check, scenario):
    system = _system(check, scenario)
    tracked = list(scenario.track)
    names = _param(check, "functionals", [f"W{i}" for i in range(system.dim)],
                   lambda v: isinstance(v, list) and len(v) == system.dim
                   and all(n in tracked for n in v),
                   f"{system.dim} of the tracked functionals {tracked}")
    tol_scale = _positive(check, "tol_scale", 1e-4)
    _exact_span(system, scenario.horizon, "bound_check: 'horizon'")

    def run(traj):
        rep = comparison.bound_check(traj, system, names, tol_scale=tol_scale)
        return rep.passed, rep
    return run


def _check_practical(check, scenario):
    system = _system(check, scenario)
    lam, bound, horizon = _lambda_bound_horizon(check, scenario)
    _exact_span(system, horizon, "practical: 'T'" if "T" in check else "practical: 'horizon'",
                (bound,))
    expect = _verdict(check, "practically_stable", ("practically_stable", "inconclusive"))

    def run(traj):
        verdict = comparison.check_practical(system, lam=lam, bound=bound, horizon=horizon)
        return verdict.kind == expect, verdict.to_dict()
    return run


def _check_xi0(check, scenario):
    system = _system(check, scenario)
    eps = _param(check, "eps", [0.1, 1.0], lambda v: _positives(v) and len(v) <= MAX_EPS,
                 f"a list of 1 to {MAX_EPS} positive numbers")
    t_check = _span(check, "T_check", 50.0)
    _exact_span(system, t_check, "xi0_stability: 'T_check'", eps)
    expect = _verdict(check, None, (None, "stable", "asymptotically_stable", "unstable"))

    def run(traj):
        verdict = comparison.check_xi0_stability(system, eps_grid=tuple(eps), T_check=t_check)
        passed = (verdict.kind == expect if expect
                  else verdict.kind in ("stable", "asymptotically_stable"))
        return passed, verdict.to_dict()
    return run


def _check_wazewski(check, scenario):
    system = _system(check, scenario)
    box = _box(check, (0.0, 10.0), system)
    samples = _count(check, "samples", 256, 1, MAX_SAMPLES)
    expect = _flag(check, "expect")

    def run(traj):
        rep = comparison.check_wazewski(system, box, n_samples=samples, seed=scenario.seed)
        return rep.passed == expect, rep
    return run


def _check_lyapunov(check, scenario):
    system = _system(check, scenario)
    box = _box(check, (1e-3, 10.0), system)
    samples = _count(check, "samples", 4096, 1, MAX_SAMPLES)
    weights = _param(check, "weights", None,
                     lambda v: v is None or (_positives(v) and len(v) == system.dim),
                     f"{system.dim} positive numbers, one per component")
    expect = _flag(check, "expect")

    def run(traj):
        rep = comparison.lyapunov_quadratic_check(system, weights=weights, sample_box=box,
                                                  n_samples=samples, seed=scenario.seed)
        return rep.passed == expect, rep
    return run


def _check_fixed_point(check, scenario):
    params = scenario.params
    _require(params.source.kind == "ball", "fixed_point applies to ball sources")
    phi, psi = _phi_psi(check, params)
    n = _count(check, "n", 2, 1)
    expect = _flag(check, "expect_stable")

    def run(traj):
        try:
            rep = certificates.ball_source_fixed_point(phi, psi, n=n,
                                                       grid_size=scenario.grid_size)
            details, stable = comparison._plain(rep), rep.stable
            if rep.body is not None:
                lin = certificates.linearize(rep.body, params)
                details["linearization"] = lin
                details["volume_rate_at_fixed_point"] = flow.volume_rate(rep.body, params)
                stable = stable and lin.stable
        except (ArithmeticError, ValueError) as exc:
            return _failure(exc)
        return stable == expect, details
    return run


def _check_converge(check, scenario):
    target = _parse_body(check.get("body"), scenario.grid_size, "converge_to body")
    tol = _positive(check, "tol", 1e-2)

    def run(traj):
        dist = bodies.hausdorff_distance(traj.final, target)
        return dist < tol, {"final_distance": dist, "tol": tol}
    return run


def _check_sde_exponents(check, scenario):
    mat = (_parse_matrix(check["B"], "B") if "B" in check
           else scenario.params.source.matrix)
    _require(mat is not None, "sde_exponents: no matrix available")
    _finite_products(mat, "sde_exponents B" if "B" in check else "params.source.B")
    rep = certificates.sde_growth_exponents(mat)
    details = comparison._plain(rep)
    if "lambda" in check or "A" in check:
        details["practical_criterion"] = certificates.practical_growth_criterion(
            mat, *_lambda_bound_horizon(check, scenario))
    details["note"] = ("formula and eigenvalue exponents disagree; direct "
                       "integration of the growth system is the binding bound"
                       if rep.discrepancy else "formula and eigenvalues agree")
    return lambda traj: (True, details)


def _check_growth_scaling(check, scenario):
    """The final area of a centred segment of each of 'lengths' against its
    closed form, and the ratios of consecutive areas against the squared
    length ratios.

    Each length's final area is the area of its segment's last body under
    the scenario's flow at the horizon, run through :func:`solve` with no
    tracked column, except for a length whose segment has the samples of
    the initial body bit for bit: the main run already solved that body,
    and its last body is the one a second run would reach.
    """
    lengths = _param(check, "lengths", GROWTH_LENGTHS,
                     lambda v: _positives(v, 2) and max(v) <= 2 * MAX_BODY_NORM,
                     f"a list of at least two positive numbers up to {2 * MAX_BODY_NORM:.0e}"
                     " (a segment's max |h| is half its length)")
    lengths = [float(x) for x in lengths]
    rtol = _positive(check, "rtol", 0.01)
    ratio_tol = _positive(check, "ratio_tol", 0.05)

    def run(traj):
        t_end = scenario.horizon
        initial = scenario.initial_body.values.tobytes()
        finals = []
        for length in lengths:
            seg = bodies.make_segment(length, grid_size=scenario.grid_size)
            last = (traj.final if seg.values.tobytes() == initial
                    else solve(seg, scenario.params, t_end, scenario.dt, tracked={}).final)
            finals.append(float(bodies.area(last)))
        try:
            rel_errors = [abs(v - certificates.segment_growth_value(t_end, l))
                          / certificates.segment_growth_value(t_end, l)
                          for v, l in zip(finals, lengths)]
            ratios = [finals[i + 1] / finals[i] for i in range(len(finals) - 1)]
        except ZeroDivisionError as exc:
            return _failure(exc, lengths=lengths, final_areas=finals)
        expected = [(lengths[i + 1] / lengths[i]) ** 2 for i in range(len(lengths) - 1)]
        ratio_errors = [abs(r - e) for r, e in zip(ratios, expected)]
        passed = max(rel_errors) <= rtol and max(ratio_errors) <= ratio_tol
        return passed, {
            "lengths": lengths, "final_areas": finals, "rel_errors": rel_errors,
            "ratios": ratios, "expected_ratios": expected, "rtol": rtol,
            "ratio_tol": ratio_tol,
            "note": ("final area scales with the squared segment length: the flow "
                     "is unstable in the (volume, volume) pair of measures")}
    return run


def _check_instability(check, scenario):
    phi, psi = _phi_psi(check, scenario.params)
    tr_a = _number(check, "trace_A", scenario.params.trace)
    expect = _verdict(check, "unstable", ("unstable", "inconclusive"))

    def run(traj):
        try:
            rep = certificates.ball_source_instability(phi, psi, tr_a)
        except ArithmeticError as exc:
            return _failure(exc)
        return rep.kind == expect, rep
    return run


_CHECKS = {
    "closed_form_area": _check_closed_form_area,
    "bound_check": _check_bound,
    "practical": _check_practical,
    "xi0_stability": _check_xi0,
    "wazewski": _check_wazewski,
    "lyapunov": _check_lyapunov,
    "fixed_point": _check_fixed_point,
    "converge_to": _check_converge,
    "sde_exponents": _check_sde_exponents,
    "growth_scaling": _check_growth_scaling,
    "instability_certificate": _check_instability,
}


# ---------------------------------------------------------------------------
# running


def _clocks(rhs, start, times):
    # the clock ODE of flow.solve_reduced, by the comparison layer's stepped path
    system = comparison.ComparisonSystem(dim=len(start), rhs=rhs, name="clocks")
    return comparison.integrate(system, start, times, rtol=1e-12).states


def solve(u0: SupportFunction2D, params: flow.SemiflowParams, horizon: float, dt: float,
          tracked=None) -> flow.Trajectory:
    """The flow by :func:`setflow.flow.solve_reduced`, its clocks by
    :func:`setflow.comparison.integrate`; the trajectory's ``solver`` says how."""
    return flow.solve_reduced(u0, params, horizon, dt, tracked, clocks=_clocks)


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    blew_up: bool
    checks: list
    csv_path: Path
    report_path: Path


def run_scenario(scenario: Scenario, out_dir=None) -> ScenarioResult:
    """Execute a scenario: :func:`solve`, run checks, write the CSV and JSON report.

    The report's ``solver`` is ``"reduced"`` or ``"split_step"``.  The
    files go to ``out_dir`` (the working directory by default).  Blow-up of
    the main trajectory is recorded in the report (with the reached time)
    rather than raised; the result is then marked failed, and the CSV holds
    the frames up to the blow-up.  A check whose own integration blows up
    fails with ``details.error``.  The report is strict JSON: a number that
    is not finite is written as null.
    """
    report = {"schema": SCHEMA_VERSION, "name": scenario.name,
              "seed": scenario.seed, "grid_size": scenario.grid_size,
              "horizon": scenario.horizon, "dt": scenario.dt}
    blew_up = False
    diagnostic = None
    try:
        traj = solve(scenario.initial_body, scenario.params,
                     scenario.horizon, scenario.dt, tracked=scenario.track)
    except BlowupError as exc:
        blew_up = True
        diagnostic = {"blow_up_at": exc.reached_time, "message": str(exc)}
        traj = exc.partial

    check_results = []
    if not blew_up:
        for kind, run in scenario.checks:
            try:
                passed, details = run(traj)
            except BlowupError as exc:
                passed, details = _failure(exc)
            check_results.append({"kind": kind, "passed": bool(passed), "details": details})

    passed = (not blew_up) and all(c["passed"] for c in check_results)
    report["passed"] = passed
    report["solver"] = traj.solver
    report["checks"] = check_results
    if diagnostic:
        report["diagnostic"] = diagnostic
    report["trajectory"] = {
        "frames": len(traj.times),
        "final_time": float(traj.times[-1]),
        "final": {k: float(v[-1]) for k, v in traj.tracked.items()},
    }

    report = comparison._plain(report)

    out_dir = Path(out_dir) if out_dir else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ScenarioResult(name=scenario.name, passed=passed, blew_up=blew_up,
                            checks=report["checks"],
                            csv_path=out_dir / f"{scenario.name}.csv",
                            report_path=out_dir / f"{scenario.name}.json")
    result.csv_path.write_text(traj.to_csv(), encoding="utf-8", newline="\n")
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    result.report_path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return result


# ---------------------------------------------------------------------------
# built-in scenarios: the documents under builtins/, each with a one-line
# 'description' that the parser ignores


BUILTINS_DIR = Path(__file__).with_name("builtins")


def builtin_scenarios() -> dict:
    """The bundled experiments, as plain scenario documents, in name order."""
    return {path.stem: _read_document(path)
            for path in sorted(BUILTINS_DIR.glob("*.json"))}


def list_builtins() -> list:
    """Names and one-line descriptions of the bundled experiments."""
    return [(name, doc["description"]) for name, doc in builtin_scenarios().items()]


def get_builtin(name: str) -> Scenario:
    # looked up among the files present: the name never becomes a path
    docs = builtin_scenarios()
    if name not in docs:
        raise SchemaError(f"unknown builtin scenario {name!r}; "
                          f"available: {', '.join(docs)}")
    return parse_scenario(docs[name])
