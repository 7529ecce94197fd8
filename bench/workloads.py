"""Scenario documents for each benchmark workload, generated from a seed.

The documents are the benchmark's own copies: they do not read the
program's builtins, so a later change to the bundled scenarios cannot
silently change what the benchmark measures.  The seed perturbs initial
polygon vertices and ball radii (on ``comparison_search``, the ellipse
semi-axes and the checks' sampling seed); grid sizes, steps, horizons and
checks are fixed per workload.
"""

from __future__ import annotations

import copy
import math

import numpy as np

WORKLOADS = ("builtin_suite", "fine_grid", "comparison_search", "accuracy_ladder")

# Relative perturbation of polygon vertex coordinates and ball radii.
PERTURBATION = 0.05

# accuracy_ladder: halve dt from LADDER_DT0 until the closed-form relative
# error of V is at most LADDER_TOL; LADDER_RUNGS bounds the work.
LADDER_TOL = 5e-4
LADDER_DT0 = 8e-3
LADDER_RUNGS = 6
# The rung documents carry the closed-form check at a loose rtol so that the
# coarse rungs, which miss LADDER_TOL by design, still exit 0; the ladder
# itself applies LADDER_TOL to the reported error.
LADDER_RUNG_RTOL = 5e-2

# comparison_search: psi = 0.5 * cyclic3 ratio threshold, the least positive
# root of 3 l^3 + 14 l^2 - 16 (0.972504718287837), so the 3-chain is
# asymptotically stable with margin.
CYCLIC3_PSI = 0.4862523591439185
_COS120, _SIN120 = -0.5, math.sqrt(3.0) / 2.0
ROTATION_120 = [[_COS120, -_SIN120], [_SIN120, _COS120]]

_CONST_1 = {"kind": "constant", "value": 1.0}
_CONST_HALF = {"kind": "constant", "value": 0.5}
_MINUS_I = [[-1.0, 0.0], [0.0, -1.0]]
_QUARTER_TURN = [[0.0, -1.0], [1.0, 0.0]]
_SQUARE = {"kind": "polygon",
           "vertices": [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]}
_RECTANGLE = {"kind": "polygon",
              "vertices": [[1.0, 0.5], [-1.0, 0.5], [-1.0, -0.5], [1.0, -0.5]]}


def _builtin_templates() -> dict:
    """The seven bundled experiments as shipped (M=512, dt=1e-3)."""
    return {
        "ball_fixed_point": {
            "schema": 1, "name": "ball_fixed_point", "seed": 7, "grid_size": 512,
            "initial_body": {"kind": "ball", "radius": 1.2},
            "params": {"A": _MINUS_I, "phi": _CONST_1,
                       "source": {"kind": "ball_source", "psi": _CONST_1}},
            "horizon": 10.0, "dt": 1e-3,
            "track": ["V", "perimeter",
                      {"kind": "hausdorff_to", "body": {"kind": "ball", "radius": 1.0}}],
            "checks": [
                {"kind": "fixed_point", "expect_stable": True},
                {"kind": "converge_to", "body": {"kind": "ball", "radius": 1.0},
                 "tol": 1e-2},
            ],
        },
        "nilpotent_decay": {
            "schema": 1, "name": "nilpotent_decay", "seed": 11, "grid_size": 512,
            "initial_body": _SQUARE,
            "params": {"A": _MINUS_I,
                       "phi": {"kind": "rational", "num": [1.0], "den": [1.0, 1.0]},
                       "source": {"kind": "linear_body", "psi": _CONST_HALF,
                                  "B": [[0.0, 1.0], [0.0, 0.0]]}},
            "horizon": 3.0, "dt": 1e-3,
            "track": ["V", "perimeter", {"kind": "mixed", "count": 2}],
            "checks": [
                {"kind": "wazewski", "box": [0.0, 10.0], "samples": 256},
                {"kind": "bound_check", "system": "auto", "tol_scale": 1e-4},
            ],
        },
        "reflection_square": {
            "schema": 1, "name": "reflection_square", "seed": 3, "grid_size": 512,
            "initial_body": _SQUARE,
            "params": {"A": _MINUS_I, "phi": _CONST_1,
                       "source": {"kind": "linear_body", "psi": _CONST_HALF,
                                  "B": [[1.0, 0.0], [0.0, -1.0]]}},
            "horizon": 3.0, "dt": 1e-3,
            "track": ["V", "perimeter", {"kind": "mixed", "count": 2}],
            "checks": [
                {"kind": "closed_form_area", "terms": 2, "rtol": 1e-3},
                {"kind": "bound_check", "system": "auto", "tol_scale": 1e-4},
            ],
        },
        "rotation_rectangle": {
            "schema": 1, "name": "rotation_rectangle", "seed": 3, "grid_size": 512,
            "initial_body": _RECTANGLE,
            "params": {"A": _MINUS_I, "phi": _CONST_1,
                       "source": {"kind": "linear_body", "psi": _CONST_HALF,
                                  "B": _QUARTER_TURN}},
            "horizon": 3.0, "dt": 1e-3,
            "track": ["V", "perimeter", {"kind": "mixed", "count": 4}],
            "checks": [{"kind": "closed_form_area", "terms": 4, "rtol": 2e-3}],
        },
        "segment_growth": {
            "schema": 1, "name": "segment_growth", "seed": 3, "grid_size": 512,
            "initial_body": {"kind": "segment", "length": 4.0},
            "params": {"A": _MINUS_I, "phi": _CONST_1,
                       "source": {"kind": "linear_body", "psi": _CONST_HALF,
                                  "B": _QUARTER_TURN}},
            "horizon": 1.0, "dt": 1e-3,
            "track": ["V", {"kind": "mixed", "count": 4}],
            "checks": [{"kind": "growth_scaling", "lengths": [4.0, 8.0, 16.0],
                        "rtol": 0.01, "ratio_tol": 0.05}],
        },
        "sde_bound": {
            "schema": 1, "name": "sde_bound", "seed": 5, "grid_size": 512,
            "initial_body": _SQUARE,
            "params": {"A": [[0.0, 0.0], [0.0, 0.0]], "phi": _CONST_1,
                       "source": {"kind": "linear_body", "psi": _CONST_1,
                                  "B": [[0.0, 1.0], [1.0, 0.0]]}},
            "horizon": 1.0, "dt": 1e-3,
            "track": ["V", "perimeter", {"kind": "mixed", "count": 2}],
            "checks": [
                {"kind": "wazewski", "box": [0.0, 10.0], "samples": 256},
                {"kind": "practical", "lambda": 1.0, "A": 100.0, "T": 1.0},
                {"kind": "bound_check", "system": "auto", "tol_scale": 1e-6},
                {"kind": "sde_exponents", "lambda": 1.0, "A": 100.0, "T": 1.0},
            ],
        },
        "shrink_instability": {
            "schema": 1, "name": "shrink_instability", "seed": 13, "grid_size": 512,
            "initial_body": {"kind": "ball", "radius": 0.05},
            "params": {"A": _MINUS_I, "phi": _CONST_1,
                       "source": {"kind": "ball_source", "psi": _CONST_1}},
            "horizon": 5.0, "dt": 1e-3,
            "track": ["V", "perimeter"],
            "checks": [{"kind": "instability_certificate", "expect": "unstable"}],
        },
    }


def _perturb(body: dict, rng) -> dict:
    body = copy.deepcopy(body)
    if body["kind"] == "polygon":
        body["vertices"] = [[float(x * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION)))
                             for x in vertex] for vertex in body["vertices"]]
    elif body["kind"] == "ball":
        body["radius"] = float(body["radius"]
                               * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION)))
    return body


def _seeded(templates: dict, seed: int) -> list:
    rng = np.random.default_rng(seed)
    docs = []
    for doc in templates.values():
        doc = copy.deepcopy(doc)
        doc["initial_body"] = _perturb(doc["initial_body"], rng)
        docs.append(doc)
    return docs


def builtin_suite(seed: int) -> list:
    return _seeded(_builtin_templates(), seed)


def fine_grid(seed: int) -> list:
    """Gather, spline and ball-source flows at M=8192 to horizon 0.5."""
    builtins = _builtin_templates()
    templates = {}
    for name in ("reflection_square", "nilpotent_decay", "ball_fixed_point"):
        doc = builtins[name]
        doc["name"] = f"{name}_m8192"
        doc["grid_size"] = 8192
        doc["horizon"] = 0.5
        doc["checks"] = [c for c in doc["checks"] if c["kind"] != "converge_to"]
        templates[name] = doc
    return _seeded(templates, seed)


def _ellipse(a: float, b: float, grid_size: int) -> dict:
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    values = np.hypot(a * np.cos(theta), b * np.sin(theta))
    return {"kind": "support_values", "grid_size": grid_size,
            "values": [float(v) for v in values]}


def comparison_search(seed: int) -> list:
    """A cyclic k=3 linear-body flow whose checks are all comparison searches.

    The body is a smooth ellipse: at M=64 a polygon under the 120-degree
    pull-back leaves the convex cone and ``convexify`` inflates it (the area
    jumps by about 70% in one step), which would swamp the closed-form error.
    The seed perturbs the semi-axes and sets the checks' sampling seed.
    """
    rng = np.random.default_rng(seed)
    a, b = (axis * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION)) for axis in (1.0, 0.6))
    doc = {
        "schema": 1, "name": "cyclic3_search", "seed": int(seed), "grid_size": 64,
        "initial_body": _ellipse(a, b, 64),
        "params": {"A": _MINUS_I, "phi": _CONST_1,
                   "source": {"kind": "linear_body",
                              "psi": {"kind": "constant", "value": CYCLIC3_PSI},
                              "B": ROTATION_120}},
        "horizon": 0.01, "dt": 1e-3,
        "track": ["V", {"kind": "mixed", "count": 3}],
        "checks": [
            {"kind": "xi0_stability", "system": "auto",
             "expect": "asymptotically_stable"},
            {"kind": "wazewski", "system": "auto", "box": [0.0, 10.0], "samples": 256},
            {"kind": "lyapunov", "system": "auto", "samples": 4096},
        ],
    }
    return [doc]


def ladder_rungs(seed: int) -> list:
    """[(scenario name, [document per rung, coarsest first])] for accuracy_ladder."""
    builtins = _builtin_templates()
    templates = {name: builtins[name] for name in ("reflection_square", "rotation_rectangle")}
    ladders = []
    for base in _seeded(templates, seed):
        closed = next(c for c in base["checks"] if c["kind"] == "closed_form_area")
        rungs = []
        for i in range(LADDER_RUNGS):
            dt = LADDER_DT0 / 2 ** i
            doc = copy.deepcopy(base)
            doc["name"] = f"{base['name']}_dt{i}"
            doc["dt"] = dt
            doc["checks"] = [dict(closed, rtol=LADDER_RUNG_RTOL)]
            rungs.append(doc)
        ladders.append((base["name"], rungs))
    return ladders


def documents(workload: str, seed: int) -> list:
    """Every document one pass of the workload may run, in run order."""
    if workload == "accuracy_ladder":
        return [doc for _, rungs in ladder_rungs(seed) for doc in rungs]
    return {"builtin_suite": builtin_suite, "fine_grid": fine_grid,
            "comparison_search": comparison_search}[workload](seed)


def flow_steps(doc: dict) -> int:
    """Body-steps the flow takes for a document: horizon/dt per evolve.

    ``growth_scaling`` evolves one extra segment per listed length.
    """
    per_evolve = max(1, math.ceil(doc["horizon"] / doc["dt"] - 1e-12))
    evolves = 1 + sum(len(c.get("lengths", (4, 8, 16)))
                      for c in doc["checks"] if c["kind"] == "growth_scaling")
    return per_evolve * evolves


def climb_ladder(run_rung, rungs: list, tol: float):
    """Run rungs coarsest first and stop at the first with error <= tol.

    ``run_rung(rung)`` returns ``(error, result)``.  Returns
    ``(index, error, result)`` of the rung that met the tolerance, or
    ``None`` when none did.
    """
    for i, rung in enumerate(rungs):
        error, result = run_rung(rung)
        if error <= tol:
            return i, error, result
    return None


def cyclic3_reference_area(times, w0: float, w1: float, psi: float) -> np.ndarray:
    """Exact area along the cyclic k=3 flow with A=-I, phi=1, constant psi.

    With B^3 = I, V[u, B^2 u] = V[u, B u], so (W0, W1) = (V, V[u, Bu]) solve
    W0' = -2 W0 + 2 psi W1, W1' = psi W0 + (psi - 2) W1, whose modes are
    (1, 1) at rate 2 psi - 2 and (2, -1) at rate -psi - 2.
    """
    t = np.asarray(times, dtype=float)
    a, b = (w0 + 2.0 * w1) / 3.0, (w0 - w1) / 3.0
    return a * np.exp((2.0 * psi - 2.0) * t) + 2.0 * b * np.exp(-(psi + 2.0) * t)
