"""Scenario schema, runner determinism, CSV/JSON artifacts, CLI surface."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import math
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from setflow import bodies, certificates, cli, comparison, flow, scenarios
from setflow.scenarios import SchemaError

from helpers import run_python, sampled_disc_area


def strict_json(text):
    """``text`` parsed as strict JSON (RFC 8259), which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def quick_doc(**overrides):
    doc = {
        "schema": 1,
        "name": "quick",
        "seed": 42,
        "grid_size": 128,
        "initial_body": {"kind": "ball", "radius": 1.0},
        "params": {
            "A": [[-1.0, 0.0], [0.0, -1.0]],
            "phi": {"kind": "constant", "value": 1.0},
            "source": {"kind": "ball_source", "psi": {"kind": "constant", "value": 0.5}},
        },
        "horizon": 0.5,
        "dt": 0.01,
        "track": ["V", "perimeter"],
        "checks": [],
    }
    doc.update(overrides)
    return doc


class TestSchema:
    def test_round_trip(self):
        scenario = scenarios.parse_scenario(quick_doc())
        assert scenario.name == "quick"
        assert scenario.grid_size == 128

    @pytest.mark.parametrize("overrides", [
        {"name": "x" * 250},                        # 255 bytes with '.json'
        {"name": "\u00e9" * 125},                   # 2 bytes each
        {"horizon": 3.0, "dt": 8e-3 / 32},          # the finest accuracy_ladder rung
        {"horizon": 0.5, "dt": 1e-3, "grid_size": 8192},
        # exactly the budget: 1562500 steps at M=64
        {"horizon": 1562500 / 1024, "dt": 2.0 ** -10, "grid_size": 64},
        {"grid_size": scenarios.MAX_GRID_SIZE},
    ], ids=["name_255_bytes", "name_250_bytes_of_e_acute", "ladder_rung", "fine_grid",
            "work_at_the_budget", "grid_at_the_cap"])
    def test_the_largest_names_and_flows_parse(self, overrides):
        scenarios.parse_scenario(quick_doc(**overrides))

    def test_work_over_the_budget_is_rejected(self):
        assert scenarios.MAX_FLOW_WORK == 1562500 * 64
        with pytest.raises(SchemaError, match="'dt'"):
            scenarios.parse_scenario(quick_doc(horizon=1562500 / 1024, dt=2.0 ** -10,
                                               grid_size=66))

    @pytest.mark.parametrize("mutate", [
        {"schema": 2},
        {"name": ""},
        {"horizon": -1.0},
        {"dt": 0.0},
        {"grid_size": 13},
        {"seed": "x"},
        {"initial_body": {"kind": "blob"}},
        {"params": {"A": [[1.0]], "phi": {"kind": "constant", "value": 1.0},
                    "source": {"kind": "zero"}}},
        {"checks": [{"no_kind": True}]},
        {"track": ["nope"]},
    ])
    def test_violations_rejected(self, mutate, tmp_path):
        doc = quick_doc()
        doc.update(mutate)
        with pytest.raises(SchemaError):
            scenario = scenarios.parse_scenario(doc)
            scenarios.run_scenario(scenario, tmp_path)

    @pytest.mark.parametrize("name", ["0\r", "a\nb", "x\x1b", "\x00", "tab\t", "\x85"],
                             ids=["carriage_return", "newline", "escape", "nul", "tab",
                                  "next_line"])
    def test_a_control_character_in_the_name_exits_2(self, name, tmp_path, capsys):
        # the CLI prints each output path on a line of its own
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(quick_doc(name=name)))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert "'name'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_check_kind_rejected(self):
        doc = quick_doc(checks=[{"kind": "mystery"}])
        with pytest.raises(SchemaError, match="mystery"):
            scenarios.parse_scenario(doc)

    def test_support_values_body(self):
        values = (1.0 + 0.1 * np.cos(2 * scenarios.bodies.grid_angles(128))).tolist()
        doc = quick_doc(initial_body={"kind": "support_values", "values": values})
        scenario = scenarios.parse_scenario(doc)
        assert scenario.initial_body.grid_size == 128

    def test_body_record_round_trip(self):
        from setflow import bodies, hausdorff_distance
        u = bodies.make_polygon([[1.0, 0.2], [-0.4, 0.8], [0.1, -0.9]],
                                grid_size=128)
        record = scenarios.body_record(u)
        assert record["grid_size"] == 128
        doc = quick_doc(initial_body=record)
        scenario = scenarios.parse_scenario(doc)
        assert hausdorff_distance(scenario.initial_body, u) == 0.0

    def test_grid_size_mismatch_rejected(self):
        doc = quick_doc(initial_body={"kind": "support_values",
                                      "grid_size": 64,
                                      "values": [1.0] * 64})
        with pytest.raises(SchemaError):
            scenarios.parse_scenario(doc)


    @pytest.mark.parametrize("phi, exact", [
        ({"kind": "constant", "value": 0.7}, True),
        ({"kind": "rational", "num": [1.0], "den": [1.0, 1.0]}, False),
    ], ids=["constant_clock", "rational_clock"])
    def test_the_auto_volume_system_is_linear_under_a_constant_clock(self, phi, exact):
        params = {"A": [[-1.0, 0.0], [0.0, -1.0]], "phi": phi, "source": {"kind": "zero"}}
        scenario = scenarios.parse_scenario(quick_doc(params=params))
        system = scenarios.resolve_system("auto", scenario)
        assert system.name == "volume_only" and (system.matrix is not None) == exact
        # either way the right-hand side is 2 a phi(V) V, bit for bit
        v = np.random.default_rng(1).uniform(0.0, 3.0, 20)
        assert np.array_equal(system(np.zeros(20), v[:, None])[:, 0],
                              2 * -1.0 * scenario.params.phi(v) * v)


class TestRunner:
    def test_deterministic_outputs(self, tmp_path):
        doc = quick_doc(checks=[{"kind": "bound_check", "system": "auto",
                                 "functionals": ["V"]}],
                        track=["V", "perimeter"])
        # volume-only auto system needs a zero source; use one
        doc["params"]["source"] = {"kind": "zero"}
        a = scenarios.run_scenario(scenarios.parse_scenario(doc), tmp_path / "a")
        b = scenarios.run_scenario(scenarios.parse_scenario(doc), tmp_path / "b")
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
        assert a.report_path.read_bytes() == b.report_path.read_bytes()

    def test_csv_format(self, tmp_path):
        result = scenarios.run_scenario(
            scenarios.parse_scenario(quick_doc()), tmp_path)
        text = result.csv_path.read_text()
        lines = text.split("\n")
        assert lines[0] == "t,V,perimeter"
        assert text.endswith("\n")
        assert "\r" not in text
        first = lines[1].split(",")
        assert float(first[0]) == 0.0

    def test_track_order_does_not_change_the_csv_header(self, tmp_path):
        doc = search_doc()
        reference = {"kind": "hausdorff_to", "body": {"kind": "ball", "radius": 1.0}}
        doc.update(checks=[], track=["perimeter", reference, {"kind": "mixed", "count": 2},
                                     "V", "perimeter"])
        result = scenarios.run_scenario(scenarios.parse_scenario(doc), tmp_path)
        assert result.csv_path.read_text().split("\n")[0] == "t,V,perimeter,W0,W1,dH_ref"

    def test_report_structure(self, tmp_path):
        result = scenarios.run_scenario(
            scenarios.parse_scenario(quick_doc()), tmp_path)
        doc = json.loads(result.report_path.read_text())
        assert doc["schema"] == 1
        assert doc["passed"] is True
        assert doc["trajectory"]["frames"] >= 2

    def test_failed_check_marks_run(self, tmp_path):
        doc = quick_doc(checks=[{"kind": "converge_to",
                                 "body": {"kind": "ball", "radius": 5.0},
                                 "tol": 1e-6}])
        result = scenarios.run_scenario(scenarios.parse_scenario(doc), tmp_path)
        assert not result.passed

    @pytest.mark.parametrize("initial, lengths, evolved", [
        (4.0, [4.0, 8.0, 16.0], [8.0, 16.0]),     # segment_growth as bundled
        (5.0, [8.0, 16.0], [8.0, 16.0]),          # no length is the main body's
    ], ids=["segment_growth", "main_length_left_out"])
    def test_growth_scaling_reads_the_main_run_for_its_own_segment(
            self, tmp_path, monkeypatch, initial, lengths, evolved):
        doc = scenarios.builtin_scenarios()["segment_growth"]
        doc.update(initial_body={"kind": "segment", "length": initial},
                   checks=[dict(doc["checks"][0], lengths=lengths)])
        scenario = scenarios.parse_scenario(doc)
        solve, starts = scenarios.solve, []

        def counted(u0, *args, **kwargs):
            starts.append(u0.values)
            return solve(u0, *args, **kwargs)

        monkeypatch.setattr(scenarios, "solve", counted)
        result = scenarios.run_scenario(scenario, tmp_path)
        monkeypatch.undo()
        assert len(starts) == 1 + len(evolved)
        assert starts[0] is scenario.initial_body.values
        segments = [bodies.make_segment(length, grid_size=512) for length in lengths]
        assert [s.tobytes() for s in starts[1:]] == [
            seg.values.tobytes() for seg, length in zip(segments, lengths)
            if length in evolved]
        direct = [float(flow.solve_reduced(seg, scenario.params, 1.0, 1e-3,
                                           tracked={"V": bodies.area}).tracked["V"][-1])
                  for seg in segments]
        assert result.checks[0]["details"]["final_areas"] == direct
        assert json.loads(result.report_path.read_text())["solver"] == "reduced"
        assert result.passed

    def test_builtins_parse(self):
        for name, _ in scenarios.list_builtins():
            scenario = scenarios.get_builtin(name)
            assert scenario.name == name

    def test_builtin_listing_covers_all_families(self):
        names = [name for name, _ in scenarios.list_builtins()]
        assert len(names) >= 5
        assert len(names) == len(set(names))
        for required in ("ball_fixed_point", "nilpotent_decay",
                         "reflection_square", "segment_growth", "sde_bound",
                         "shrink_instability"):
            assert required in names


class TestBuiltinFiles:
    PATHS = sorted(scenarios.BUILTINS_DIR.glob("*.json"))

    def test_seven_documents_are_bundled(self):
        assert [p.stem for p in self.PATHS] == [
            "ball_fixed_point", "nilpotent_decay", "reflection_square",
            "rotation_rectangle", "sde_bound", "segment_growth", "shrink_instability"]

    @pytest.mark.parametrize("path", PATHS, ids=lambda p: p.stem)
    def test_each_file_parses_under_its_name_with_a_description(self, path):
        assert scenarios.load_scenario(path).name == path.stem
        description = json.loads(path.read_text(encoding="utf-8"))["description"]
        assert isinstance(description, str) and description.strip()
        assert len(description.splitlines()) == 1

    def test_the_listing_is_in_name_order(self):
        names = [name for name, _ in scenarios.list_builtins()]
        assert names == sorted(names) == list(scenarios.builtin_scenarios())

    def test_a_name_is_never_joined_into_a_path(self, tmp_path, monkeypatch):
        bundled = tmp_path / "builtins"
        bundled.mkdir()
        (bundled / "quick.json").write_text(json.dumps(quick_doc()))
        (tmp_path / "outside.json").write_text(json.dumps(quick_doc(name="outside")))
        monkeypatch.setattr(scenarios, "BUILTINS_DIR", bundled)
        assert scenarios.get_builtin("quick").name == "quick"
        for name in ("../outside", str(tmp_path / "outside"), "quick.json"):
            with pytest.raises(SchemaError, match="available: quick$"):
                scenarios.get_builtin(name)

    @pytest.mark.parametrize("target", ["../cli", "builtins/x", "x" * 300],
                             ids=["parent", "below_builtins", "too_long_for_a_path"])
    def test_a_path_that_is_no_file_or_builtin_exits_2(self, tmp_path, monkeypatch, capsys,
                                                        target):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", target]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert repr(target) in err
        assert f"available: {', '.join(p.stem for p in self.PATHS)}" in err
        assert list(tmp_path.iterdir()) == []


def emitted_reports():
    """One report of each type that a scenario check emits."""
    one, half = flow.constant(1.0), flow.constant(0.5)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    # constant clocks give a Metzler matrix, which decides the checks; a
    # rational clock gives none, so its checks are sampled
    pair = comparison.nilpotent_source_system(one, half)
    sampled = comparison.nilpotent_source_system(flow.rational([1.0], [1.0, 1.0]), half)
    square = bodies.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]],
                                 grid_size=64)
    growth = flow.SemiflowParams(A=np.zeros((2, 2)), phi=one,
                                 source=flow.linear_source(one, swap))
    traj = flow.evolve(square, growth, 0.1, 0.01, tracked=flow.mixed_columns(swap, 2))
    disc = flow.SemiflowParams(A=-np.eye(2), phi=one, source=flow.ball_source(one))
    fixed = certificates.ball_source_fixed_point(one, one, grid_size=64)
    return {
        "wazewski": comparison.check_wazewski(pair, (0.0, 10.0), n_samples=8),
        "wazewski_sampled": comparison.check_wazewski(sampled, (0.0, 10.0), n_samples=8),
        "wazewski_violation": comparison.check_wazewski(
            comparison.linear_system([[0.0, -1.0], [0.0, 0.0]]), (0.0, 10.0),
            n_samples=8),
        "bound_check": comparison.bound_check(traj, comparison.sde_growth_system(swap),
                                              ["W0", "W1"]),
        "lyapunov": comparison.lyapunov_quadratic_check(pair, n_samples=8),
        "lyapunov_sampled": comparison.lyapunov_quadratic_check(sampled, n_samples=8),
        "fixed_point": fixed,
        "linearization": certificates.linearize(fixed.body, disc),
        "sde_exponents": certificates.sde_growth_exponents(swap),
        "instability": certificates.ball_source_instability(one, one, -2.0),
    }


class TestReportSerialization:
    def test_every_emitted_report_is_plain_json(self):
        reports = emitted_reports()
        assert reports["wazewski_violation"].violation is not None
        assert reports["wazewski"].samples == reports["lyapunov"].samples == 0
        assert reports["wazewski_sampled"].samples == reports["lyapunov_sampled"].samples == 8
        for name, report in reports.items():
            plain = comparison._plain(report)
            assert json.loads(json.dumps(plain)) == plain, name
            names = {f.name for f in dataclasses.fields(report)} - {"body"}
            assert plain.keys() == names, name

    def test_a_number_that_is_not_finite_becomes_none(self):
        verdict = comparison.StabilityVerdict(kind="unstable", witness={
            "nan": float("nan"), "inf": np.float32(np.inf), "finite": np.float64(1.5),
            "row": np.array([1.0, -np.inf]), "nested": (np.nan, [True, np.bool_(False)])})
        plain = comparison._plain(verdict)
        assert plain == {"kind": "unstable", "witness": {
            "nan": None, "inf": None, "finite": 1.5, "row": [1.0, None],
            "nested": [None, [True, False]]}}
        assert strict_json(json.dumps(plain, allow_nan=False)) == plain

    def test_a_dominance_report_names_its_solver(self):
        # the growth system of the set equation is linear: solved exactly
        assert comparison._plain(emitted_reports()["bound_check"])["solver"] == "exact"

    def test_fixed_point_details_leave_out_the_body(self, tmp_path):
        doc = quick_doc(checks=[{"kind": "fixed_point"}])
        result = scenarios.run_scenario(scenarios.parse_scenario(doc), tmp_path)
        details = result.checks[0]["details"]
        assert "body" not in details
        assert details["radius"] == pytest.approx(0.5)
        assert "gamma0" in details["linearization"]
        json.dumps(details)


def search_doc():
    """A reflection-source flow whose "auto" system is the cyclic k=2 chain."""
    doc = quick_doc(name="search", checks=[
        {"kind": "xi0_stability", "eps": [0.5], "T_check": 5.0},
        {"kind": "wazewski", "box": [0.0, 10.0], "samples": 16},
        {"kind": "lyapunov", "samples": 16, "weights": [1.0, 2.0]},
    ])
    doc["params"]["source"] = {"kind": "linear_body",
                               "psi": {"kind": "constant", "value": 0.5},
                               "B": [[1.0, 0.0], [0.0, -1.0]]}
    return doc


def flows_at_the_cap(doc):
    """How many flows of the document's size fit in ``MAX_FLOW_WORK``."""
    work = math.ceil(doc["horizon"] / doc["dt"]) * doc["grid_size"]
    return scenarios.MAX_FLOW_WORK // work


def append_check(check):
    return lambda doc: doc["checks"].append(check)


def with_ball_source(check):
    """Swap in a disc source (psi = 1/2) and append ``check``."""
    def mutate(doc):
        doc["params"]["source"] = {"kind": "ball_source",
                                   "psi": {"kind": "constant", "value": 0.5}}
        doc["checks"] = [check]
    return mutate


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "reflection_square" in out
        assert "sde_bound" in out

    def test_the_parser_is_built_once_and_keeps_no_state(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        parser.parse_args(["run", "a", "--jobs", "2", "--out", "x"])
        again = parser.parse_args(["run", "b"])
        assert (again.scenario, again.jobs, again.out) == (["b"], 1, None)

    def test_geom_area(self, capsys):
        assert cli.main(["geom", "area", "ball:1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            sampled_disc_area(bodies.DEFAULT_GRID_SIZE), rel=1e-10)

    def test_geom_mixed_segments(self, capsys):
        assert cli.main(["geom", "mixed", "seg:4", "rot90(seg:4)"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(8.0, rel=1e-12)

    def test_geom_hukuhara(self, capsys):
        assert cli.main(["geom", "hukuhara", "ball:1", "ball:2"]) == 0
        assert capsys.readouterr().out.strip() == "no difference"
        assert cli.main(["geom", "hukuhara", "ball:2", "ball:1"]) == 0
        assert "area" in capsys.readouterr().out

    def test_geom_hausdorff_translated(self, capsys):
        assert cli.main(["geom", "hausdorff", "poly:0,0;1,0;0,1",
                         "poly:1,0;2,0;1,1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0)

    def test_geom_bad_body_is_schema_error(self, capsys):
        assert cli.main(["geom", "area", "cube:1"]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("grid", ["0", "15", "65538"])
    @pytest.mark.parametrize("body", ["poly:1,1", "seg:1", "rot90(seg:1)"])
    def test_geom_bad_grid_is_schema_error(self, capsys, grid, body):
        assert cli.main(["geom", "area", body, "--grid", grid]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "--grid" in captured.err and captured.out == ""

    def test_run_file(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(quick_doc()))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "quick.csv").exists()
        assert (tmp_path / "quick.json").exists() or (tmp_path / "quick.json").exists()

    def test_run_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA

    def test_run_schema_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(quick_doc(schema=99)))
        assert cli.main(["run", str(path)]) == cli.EXIT_SCHEMA

    @pytest.mark.parametrize("content", [
        b'{"schema": 1, "name": "caf\xe9"}',
        b'{"schema": 1, "seed": ' + b"1" * 4301 + b"}",
        b"[" * 100000,
    ], ids=["not_utf8", "integer_of_4301_digits", "nested_too_deep"])
    def test_an_unreadable_document_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert "scenario file is not" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
    def test_a_seed_that_is_not_a_non_negative_integer_exits_2(self, tmp_path, capsys,
                                                                 seed):
        # numpy's generators refuse a negative seed, after the flow has run
        doc = scenarios.builtin_scenarios()["nilpotent_decay"]
        doc.update(seed=seed, horizon=0.01)
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert "'seed' must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_the_largest_seeds_run(self, tmp_path):
        doc = scenarios.builtin_scenarios()["nilpotent_decay"]
        for seed in (0, 10 ** 4299):
            doc.update(seed=seed, horizon=0.01)
            result = scenarios.run_scenario(scenarios.parse_scenario(doc), tmp_path)
            assert result.passed
            assert json.loads(result.report_path.read_text())["seed"] == seed

    @pytest.mark.parametrize("out", [lambda root: root / "file",
                                     lambda root: root / "file" / "sub"],
                             ids=["a_file", "below_a_file"])
    def test_an_out_that_cannot_be_a_directory_exits_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, out):
        (tmp_path / "file").write_text("kept")
        monkeypatch.setattr(scenarios, "run_scenario", None)    # no run may start
        assert cli.main(["run", "shrink_instability", "--out",
                         str(out(tmp_path))]) == cli.EXIT_SCHEMA
        captured = capsys.readouterr()
        assert "--out" in captured.err and captured.out == ""
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["params"]["source"]["psi"].update(value=1.0), "psi"),
        (lambda d: d["params"]["source"].update(psi={"kind": "rational", "num": [0.5],
                                                     "den": [1.0]}), "psi"),
        (lambda d: d["params"].update(A=[[-2.0, 0.0], [0.0, -2.0]]), "params.A"),
        (lambda d: d["params"].update(A=[[-1.0, 0.0], [0.0, -1.0 + 1e-12]]), "params.A"),
        (lambda d: d["params"]["phi"].update(value=2.0), "phi"),
        (lambda d: d["params"].update(phi={"kind": "table", "s": [0.0, 1.0],
                                           "values": [1.0, 1.0]}), "phi"),
        (lambda d: d["params"]["source"].update(B=[[-0.5, -math.sqrt(0.75)],
                                                   [math.sqrt(0.75), -0.5]]), "'terms' 2"),
        (lambda d: d["params"]["source"].update(B=[[0.0, -1.0], [1.0, 0.0]]), "'terms' 2"),
        (lambda d: d["params"]["source"].update(B=[[1e200, 0.0], [0.0, 1e200]]),
         "'terms' 2"),
    ], ids=["psi_1", "psi_rational", "A_minus_2I", "A_off_by_1e-12", "phi_2", "phi_table",
            "B_120_degrees", "B_quarter_turn", "B_overflows"])
    def test_a_closed_form_on_a_flow_it_does_not_describe_exits_2(self, tmp_path, capsys,
                                                                   mutate, field):
        # reflection_square cut to horizon 1: psi = 1 read max_rel_error 1.72,
        # A = -2I 0.86, the 120-degree B 0.028, each a failed check
        doc = scenarios.builtin_scenarios()["reflection_square"]
        doc.update(horizon=1.0, checks=[{"kind": "closed_form_area", "terms": 2}])
        scenarios.parse_scenario(doc)
        mutate(doc)
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert "closed_form_area" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize("name, terms", [("reflection_square", 2),
                                             ("reflection_square", 4),
                                             ("rotation_rectangle", 4)])
    def test_a_closed_form_accepts_every_b_whose_power_is_the_identity(self, name, terms):
        # B^2 = I gives B^4 = I; the cut is _operator_order's 1e-9
        doc = scenarios.builtin_scenarios()[name]
        doc["checks"] = [{"kind": "closed_form_area", "terms": terms}]
        scenarios.parse_scenario(doc)
        (b0, b1), (b2, b3) = doc["params"]["source"]["B"]
        doc["params"]["source"]["B"] = [[b0 + 1e-11, b1], [b2, b3]]
        scenarios.parse_scenario(doc)

    @pytest.mark.parametrize("index, change, field", [
        (0, {"eps": []}, "eps"),
        (0, {"eps": [0.1, -1.0]}, "eps"),
        (0, {"T_check": 0}, "T_check"),
        (0, {"T_check": 5e-324}, "T_check"),
        (1, {"box": [5.0, 1.0]}, "box"),
        (1, {"box": [-1.0, 1.0]}, "box"),
        (1, {"samples": 0}, "samples"),
        (2, {"samples": 0}, "samples"),
        (2, {"box": [[0.0, 1.0]]}, "box"),
        (2, {"weights": [1.0]}, "weights"),
        (2, {"weights": [1.0, -2.0]}, "weights"),
        (2, {"system": {"kind": "cyclic"}}, "'cyclic'"),
        (2, {"kind": "mystery"}, "mystery"),
        (2, {"system": {"kind": "linear", "matrix": [[1.0, 2.0, 3.0]]}}, "'linear'"),
        (1, {"system": {"kind": "cyclic", "phi": {"kind": "constant", "value": 1.0},
                        "psi": {"kind": "constant", "value": 0.5}, "k": 2.5}}, "'k'"),
        (0, {"system": {"kind": "nilpotent", "phi": {"kind": "constant", "value": 1.0},
                        "psi": {"kind": "constant", "value": 0.5}, "a": "nan"}}, "'a'"),
    ], ids=["xi0_empty_eps", "xi0_negative_eps", "xi0_zero_T_check", "xi0_subnormal_T_check",
            "wazewski_inverted_box",
            "wazewski_box_outside_cone", "wazewski_no_samples",
            "lyapunov_no_samples", "lyapunov_box_rows", "lyapunov_weight_count",
            "lyapunov_negative_weight", "lyapunov_bad_system", "unknown_kind",
            "lyapunov_linear_system_not_square", "wazewski_cyclic_k_fraction",
            "xi0_nilpotent_a_string"])
    def test_malformed_search_check_exits_2(self, tmp_path, capsys, index,
                                            change, field):
        doc = search_doc()
        scenarios.parse_scenario(doc)
        doc["checks"][index].update(change)
        path = tmp_path / "search.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert field in capsys.readouterr().err
        assert not out.exists()     # rejected before the flow ran

    @pytest.mark.parametrize("check, key", [
        ({"kind": "xi0_stability", "eps": [0.5]}, "T_check"),
        ({"kind": "practical", "lambda": 0.5, "A": 2.0}, "T"),
        ({"kind": "practical", "lambda": 0.5, "A": 2.0}, "horizon"),
        ({"kind": "bound_check", "functionals": ["V", "perimeter"]}, "horizon"),
    ], ids=["xi0_T_check", "practical_T", "practical_horizon", "bound_check_horizon"])
    def test_a_span_past_the_longest_exact_run_exits_2(self, tmp_path, capsys, check, key):
        # ||M||_inf = 2 for this Metzler system, whose exact solver runs to
        # times ||M||_inf = comparison.EXACT_MAX_SPAN = 1e7 and no further
        def doc(span):
            checks = [dict(check, system={"kind": "linear",
                                          "matrix": [[-1.0, 1.0], [1.0, -1.0]]})]
            if key == "horizon":
                return quick_doc(horizon=span, dt=span / 10, checks=checks)
            checks[0][key] = span
            return quick_doc(checks=checks)

        scenarios.parse_scenario(doc(5e6))
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc(1e7)))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert (f"{check['kind']}: {key!r} times the comparison matrix's ||M||_inf"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("check, key", [
        ({"kind": "xi0_stability", "eps": [0.5]}, "T_check"),
        ({"kind": "practical", "lambda": 1.0, "A": 100.0}, "T"),
    ], ids=["xi0_stability", "practical"])
    @pytest.mark.parametrize("phi", [{"kind": "constant", "value": 1.0},
                                     {"kind": "rational", "num": [1.0], "den": [1.0, 1.0]}],
                             ids=["exact", "rk4"])
    def test_the_shortest_spans_run(self, check, key, phi):
        # a subnormal span exits 2 (above); the smallest normal float and
        # 1e-300 cut the output grids of either path into increasing times
        doc = search_doc()
        doc["checks"] = [dict(check, system={"kind": "nilpotent", "phi": phi,
                                             "psi": {"kind": "constant", "value": 0.5}})]
        for span in (sys.float_info.min, 1e-300):
            doc["checks"][0][key] = span
            (_, run), = scenarios.parse_scenario(doc).checks
            passed, details = run(None)
            assert passed and details["T_check" if key == "T_check" else "horizon"] == span

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["checks"].append({"kind": "practical", "A": 100.0}), "'lambda'"),
        (lambda d: d["checks"].append({"kind": "converge_to"}), "converge_to body"),
        (lambda d: d.update(track=["V", {"kind": "mixed", "count": 0}]), "'count'"),
        (lambda d: d["params"].update(phi={"kind": "table", "s": [2.0, 0.0, 1.0],
                                           "values": [1.0, 1.0, 1.0]}), "phi"),
        (append_check({"kind": "closed_form_area", "terms": "x"}), "'terms'"),
        (append_check({"kind": "closed_form_area", "rtol": "x"}), "'rtol'"),
        (append_check({"kind": "sde_exponents", "lambda": "x", "A": 100.0}), "'lambda'"),
        (append_check({"kind": "sde_exponents", "lambda": 0.0, "A": 100.0}), "'lambda'"),
        (append_check({"kind": "sde_exponents", "B": [[1.0, 0.0], [0.0, 1.0]]}), "det B"),
        (append_check({"kind": "fixed_point"}), "fixed_point"),
        (with_ball_source({"kind": "fixed_point", "n": "x"}), "'n'"),
        (with_ball_source({"kind": "fixed_point", "expect_stable": "yes"}),
         "'expect_stable'"),
        (append_check({"kind": "bound_check", "functionals": ["V"]}), "'functionals'"),
        (append_check({"kind": "growth_scaling", "lengths": ["a", 2]}), "'lengths'"),
        (append_check({"kind": "growth_scaling", "lengths": [-1.0, 2.0]}), "'lengths'"),
        (append_check({"kind": "growth_scaling", "lengths": [1.0, 2.0], "rtol": "x"}),
         "'rtol'"),
        (append_check({"kind": "instability_certificate", "trace_A": "x"}), "'trace_A'"),
        (append_check({"kind": "instability_certificate", "expect": "stabel"}), "'expect'"),
        (lambda d: d["checks"][0].update(expect="stabel"), "'expect'"),
        (lambda d: d["checks"][1].update(expect=2), "'expect'"),
        (append_check({"kind": "practical", "lambda": 1.0, "A": 100.0, "expect": "stabel"}),
         "'expect'"),
        (append_check({"kind": "practical", "lambda": 1.0, "A": 100.0, "T": 5e-324}), "'T'"),
        (lambda d: d["params"].update(phi={"kind": "rational", "num": [1.0], "den": [0.0]}),
         "phi"),
        (lambda d: d["params"].update(phi={"kind": "rational", "num": [1.0],
                                           "den": [1.0, -1.0]}), "phi"),
        (lambda d: d["params"].update(phi={"kind": "rational", "num": [-1.0],
                                           "den": [1.0]}), "phi"),
        (lambda d: d["params"].update(phi={"kind": "rational", "num": [2.0, -3.0, 1.0],
                                           "den": [1.0]}), "phi"),
        (lambda d: d["params"].update(phi={"kind": "rational", "num": [1.0],
                                           "den": [-1.0, -1.0]}), "phi"),
        (lambda d: d["params"].update(phi={"kind": "table", "s": [0.0, 1.0],
                                           "values": [1.0, -1.0]}), "phi"),
        (lambda d: d.update(horizon=float("inf")), "'horizon'"),
        (lambda d: d.update(dt=float("nan")), "'dt'"),
        (lambda d: d.update(track=[{"kind": "mixed", "count": 2},
                                   {"kind": "mixed", "count": 3}]), "track"),
        (lambda d: d.update(track=[{"kind": "hausdorff_to", "body": {"kind": "ball", "radius": r}}
                                   for r in (1.0, 2.0)]), "track"),
        *[(lambda d, n=n: d.update(name=n), "'name'")
          for n in ("sub/probe", "a\\b", ".", "..", "/", "../escaped", "a\0b",
                    "x" * 300, "\ud800", "\u00e9" * 126)],
        (lambda d: d.update(dt=1e-320), "'dt'"),
        (lambda d: d.update(dt=10 ** 400), "'dt'"),
        (lambda d: d.update(horizon=10 ** 400), "'horizon'"),
        (lambda d: d.update(dt=1e-6, horizon=1.0), "'dt'"),
        (lambda d: d.update(grid_size=2 * scenarios.MAX_GRID_SIZE, horizon=1e-3, dt=1e-3),
         "'grid_size'"),
        (lambda d: d.update(grid_size=64, initial_body={
            "kind": "support_values",
            "values": list(1.0 + 0.5 * np.cos(2.0 * bodies.grid_angles(64)))}), "initial_body"),
        (lambda d: d.update(grid_size=64, track=["V", {
            "kind": "hausdorff_to", "body": {
                "kind": "support_values",
                "values": list(1.0 + 0.5 * np.cos(2.0 * bodies.grid_angles(64)))}}]),
         "reference body"),
        (lambda d: d.update(track=["V", {"kind": "mixed", "count": 3,
                                         "B": [[1e200, 0.0], [0.0, 1e200]]}]),
         "track mixed"),
    ], ids=["practical_no_lambda", "converge_to_no_body", "mixed_count_0",
            "table_nodes_unsorted", "closed_form_terms_string", "closed_form_rtol_string",
            "sde_lambda_string", "sde_lambda_0", "sde_det_B_positive",
            "fixed_point_linear_source", "fixed_point_n_string",
            "fixed_point_expect_string", "bound_functional_count",
            "growth_length_string", "growth_length_negative", "growth_rtol_string",
            "instability_trace_string", "instability_expect_typo", "xi0_expect_typo",
            "wazewski_expect_number", "practical_expect_typo", "practical_subnormal_T",
            "rational_den_zero",
            "rational_pole_at_1", "rational_negative_num", "rational_negative_between_roots",
            "rational_negative_den", "table_negative_value", "horizon_infinity",
            "dt_nan", "track_two_mixed", "track_two_hausdorff_to", "name_slash",
            "name_backslash", "name_dot", "name_dotdot", "name_root", "name_parent",
            "name_nul", "name_300_bytes", "name_lone_surrogate", "name_252_bytes_of_e_acute",
            "dt_tiny", "dt_integer_beyond_float", "horizon_integer_beyond_float",
            "dt_over_budget", "grid_size_twice_the_cap", "support_values_outside_the_cone",
            "reference_body_outside_the_cone", "track_mixed_power_overflows"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, mutate, field):
        doc = search_doc()
        scenarios.parse_scenario(doc)
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert field in capsys.readouterr().err
        assert not out.exists()     # rejected before the flow ran

    @pytest.mark.parametrize("value", [0, -1], ids=["zero", "negative"])
    @pytest.mark.parametrize("check, field", [
        ({"kind": "closed_form_area"}, "rtol"),
        ({"kind": "bound_check", "functionals": ["V", "perimeter"]}, "tol_scale"),
        ({"kind": "converge_to", "body": {"kind": "ball", "radius": 1.0}}, "tol"),
        ({"kind": "growth_scaling"}, "rtol"),
        ({"kind": "growth_scaling"}, "ratio_tol"),
    ], ids=["closed_form_rtol", "bound_tol_scale", "converge_tol", "growth_rtol",
            "growth_ratio_tol"])
    def test_a_tolerance_that_is_not_positive_exits_2(self, tmp_path, capsys, check, field,
                                                      value):
        # no check can pass within a tolerance of 0 or less
        doc = search_doc()
        doc["checks"].append(dict(check))
        scenarios.parse_scenario(doc)
        doc["checks"][-1][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert f"{check['kind']}: {field!r} must be a positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_xi0_directions_are_ignored_like_any_unknown_key(self, tmp_path):
        # the search runs from the corner of each box and samples no directions
        doc = search_doc()
        doc["checks"] = doc["checks"][:1]
        reports = []
        for directions in (None, 0, 2.5, 4097):
            if directions is not None:
                doc["checks"][0]["directions"] = directions
            result = scenarios.run_scenario(scenarios.parse_scenario(doc),
                                            tmp_path / str(directions))
            reports.append(result.report_path.read_text())
        assert reports[1:] == reports[:1] * 3
        assert json.loads(reports[0])["checks"][0]["passed"] is True

    def test_an_auto_system_whose_rate_overflows_exits_2(self, tmp_path):
        # 2 a phi = -1e309 under the clock 10; with A = 1.5e308 I the sum of
        # the diagonal overflows as well.  In a fresh interpreter, so that
        # numpy's warnings reach stderr as they do for a user
        for i, a in enumerate((-5e307, 1.5e308)):
            doc = quick_doc(name=f"rate{i}", grid_size=16, horizon=0.01, dt=1e-3, track=["V"],
                            checks=[{"kind": "bound_check", "functionals": ["V"]}])
            doc["params"] = {"A": [[a, 0.0], [0.0, a]], "phi": {"kind": "constant", "value": 10.0},
                             "source": {"kind": "zero"}}
            path = tmp_path / f"rate{i}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
            assert proc.returncode == cli.EXIT_SCHEMA, proc.stderr
            assert "params.A" in proc.stderr and "Warning" not in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("check, key, verdict", [
        ({"kind": "xi0_stability"}, "T_check", "asymptotically_stable"),
        ({"kind": "practical", "lambda": 0.5, "A": 5.0}, "T", "practically_stable"),
    ], ids=["xi0_stability", "practical"])
    def test_a_clocked_check_ends_in_seconds_at_any_span(self, tmp_path, check, key, verdict):
        # nilpotent_decay's "auto" chain runs on the rational clock 1/(1+V)
        # and is decided from its Metzler bracket: at a span of 1e6 in a few
        # exact runs, and past EXACT_MAX_SPAN the document exits 2 naming
        # the field, before the flow runs (in a fresh interpreter, where a
        # numpy warning would reach stderr)
        doc = scenarios.builtin_scenarios()["nilpotent_decay"]
        doc["checks"] = [dict(check, **{key: 1e6})]
        (_, run), = scenarios.parse_scenario(doc).checks
        start = time.perf_counter()
        passed, details = run(None)
        assert time.perf_counter() - start < 5.0
        assert passed and details["kind"] == verdict and details["solver"] == "bracket"
        for span in (1e12, 1e20):
            doc["checks"] = [dict(check, **{key: span})]
            path = tmp_path / "long.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
            assert proc.returncode == cli.EXIT_SCHEMA, proc.stderr
            assert f"{check['kind']}: {key!r} times the comparison matrix" in proc.stderr
            assert "Warning" not in proc.stderr and not out.exists()

    @pytest.mark.parametrize("check", [
        {"kind": "xi0_stability"}, {"kind": "practical", "lambda": 0.5, "A": 5.0},
        {"kind": "bound_check", "functionals": ["V", "W1"]}, {"kind": "wazewski"},
        {"kind": "lyapunov"},
    ], ids=lambda check: check["kind"])
    def test_a_non_metzler_linear_system_exits_2(self, tmp_path, check):
        # the comparison theorem needs a quasimonotone system: a 'linear'
        # matrix with a negative off-diagonal entry exits 2 naming the first,
        # before the flow runs (in a fresh interpreter, where a numpy warning
        # would reach stderr)
        doc = scenarios.builtin_scenarios()["nilpotent_decay"]
        system = {"kind": "linear", "matrix": [[-1.0, 0.5, 0.0], [0.0, -1.0, -0.5],
                                               [-2.0, 0.0, -1.0]]}
        if check["kind"] == "bound_check":
            system["matrix"] = [[-1.0, 0.0], [-0.5, -1.0]]
        doc["checks"] = [dict(check, system=system)]
        path = tmp_path / "quasi.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
        assert proc.returncode == cli.EXIT_SCHEMA, proc.stderr
        entry = "(1, 0)" if check["kind"] == "bound_check" else "(1, 2)"
        assert f"comparison system 'linear': 'matrix' entry {entry}" in proc.stderr
        assert proc.stdout == "" and "Warning" not in proc.stderr and not out.exists()

    def test_an_explicit_system_whose_constants_overflow_exits_2(self, tmp_path):
        # 2 a phi = 2e308, the coupling 2 psi = 2e308, and the norm of a
        # Metzler matrix doubled overflow; each system used to fall back to
        # RK4 runs of NaN.  In a fresh interpreter, as above
        clocks = {"phi": {"kind": "constant", "value": 1.0},
                  "psi": {"kind": "constant", "value": 0.5}}
        huge_psi = clocks | {"psi": {"kind": "constant", "value": 1e308}}
        for i, system in enumerate([
                {"kind": "cyclic", "k": 3, "a": 1e308, **clocks},
                {"kind": "nilpotent", **huge_psi},
                {"kind": "cyclic", "k": 3, **huge_psi},
                {"kind": "linear", "matrix": [[-1e308, 1e308], [0.0, -1e308]]}]):
            doc = quick_doc(name=f"huge{i}", grid_size=16, horizon=0.01, dt=1e-3, track=["V"],
                            checks=[{"kind": "xi0_stability", "system": system}])
            path = tmp_path / f"huge{i}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
            assert proc.returncode == cli.EXIT_SCHEMA, proc.stderr
            assert f"bad comparison system {system['kind']!r}" in proc.stderr
            assert "not finite" in proc.stderr and "Warning" not in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("source, check, field", [
        ({"kind": "linear_body", "psi": {"kind": "constant", "value": 0.5},
          "B": [[1e200, 0.0], [0.0, -1e200]]},
         {"kind": "wazewski"}, "params.source.B"),
        ({"kind": "zero"},
         {"kind": "wazewski", "system": {"kind": "sde", "B": [[1e200, 0.0], [0.0, -1e200]]}},
         "comparison system 'sde' B"),
        ({"kind": "zero"},
         {"kind": "sde_exponents", "B": [[1e200, 1.0], [1.0, -1e200]]}, "sde_exponents B"),
    ], ids=["auto_system", "sde_system", "sde_exponents"])
    def test_a_b_whose_products_overflow_exits_2(self, tmp_path, capsys, source, check,
                                                 field):
        # det B and B @ B overflow; the suite turns numpy's warnings into errors
        doc = quick_doc(name="huge_b", grid_size=16, horizon=0.01, dt=1e-3, track=["V"],
                        checks=[check])
        doc["params"]["source"] = source
        path = tmp_path / "huge_b.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert f"{field}: det B and B @ B must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("check, satisfied", [
        ({"kind": "sde_exponents", "lambda": 1.0, "A": 100.0,
          "B": [[0.0, 1000.0], [1000.0, 0.0]], "T": 1.0}, {"formula": True, "eigen": False}),
        ({"kind": "sde_exponents", "lambda": 1.0, "A": 100.0, "T": 1e3},
         {"formula": False, "eigen": False}),
    ], ids=["large_B", "sde_T_overflow"])
    def test_an_overflowing_growth_criterion_is_reported(self, tmp_path, check, satisfied):
        # exp(mu_plus T) overflows: the left side is +-inf by the sign of
        # 2 - mu_minus, which decides the inequality, and is reported as null
        doc = search_doc()
        doc["checks"].append(check)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        text = (tmp_path / "out" / "search.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        check = json.loads(text)["checks"][-1]
        assert check["kind"] == "sde_exponents" and check["passed"] is True
        criterion = check["details"]["practical_criterion"]
        for name in ("formula", "eigen"):
            assert criterion[f"{name}_lhs"] is None
            assert criterion[f"{name}_satisfied"] is satisfied[name]

    def test_a_nilpotent_b_with_a_huge_entry_resolves_without_a_warning(self):
        # B @ B = 0 while its largest entry squares past the float range
        doc = quick_doc(checks=[{"kind": "wazewski"}])
        doc["params"]["source"] = {"kind": "linear_body", "B": [[0.0, 1e200], [0.0, 0.0]],
                                   "psi": {"kind": "constant", "value": 0.5}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = scenarios.parse_scenario(doc)
            system = scenarios.resolve_system("auto", scenario)
        assert system.name == comparison.nilpotent_source_system(
            flow.constant(1.0), flow.constant(0.5)).name

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d.update(track=["V", {"kind": "mixed",
                                         "count": scenarios.MAX_MIXED_COUNT + 1}]),
         "mixed: 'count'"),
        (lambda d: d["checks"][1].update(samples=scenarios.MAX_SAMPLES + 1),
         "wazewski: 'samples'"),
        (lambda d: d["checks"][2].update(samples=scenarios.MAX_SAMPLES + 1),
         "lyapunov: 'samples'"),
        (lambda d: d["checks"][2].update(weights=None, system={
            "kind": "cyclic", "phi": {"kind": "constant", "value": 1.0},
            "psi": {"kind": "constant", "value": 0.5}, "k": scenarios.MAX_SYSTEM_DIM + 1}),
         "cyclic: 'k'"),
        (lambda d: d["checks"][2].update(weights=None, system={
            "kind": "linear", "matrix": (-np.eye(scenarios.MAX_SYSTEM_DIM + 1)).tolist()}),
         "linear: 'matrix'"),
        (lambda d: d["checks"][0].update(eps=[0.5] * (scenarios.MAX_EPS + 1)),
         "xi0_stability: 'eps'"),
        (lambda d: d["checks"].append({"kind": "growth_scaling",
                                       "lengths": [1.0] * flows_at_the_cap(d)}),
         "growth_scaling: 'lengths'"),
    ], ids=["mixed_count", "wazewski_samples",
            "lyapunov_samples", "cyclic_k", "linear_order", "xi0_eps",
            "growth_scaling_lengths"])
    def test_sizes_over_their_caps_exit_2(self, tmp_path, capsys, mutate, field):
        doc = search_doc()
        mutate(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert field in capsys.readouterr().err
        assert not out.exists()     # rejected before the flow ran

    def test_sizes_at_their_caps_parse(self):
        doc = search_doc()
        doc["track"] = ["V", {"kind": "mixed", "count": scenarios.MAX_MIXED_COUNT}]
        doc["checks"][1]["samples"] = scenarios.MAX_SAMPLES
        doc["checks"][2].update(samples=scenarios.MAX_SAMPLES, weights=None, system={
            "kind": "linear", "matrix": (-np.eye(scenarios.MAX_SYSTEM_DIM)).tolist()})
        doc["checks"].append({"kind": "wazewski", "system": {
            "kind": "cyclic", "phi": {"kind": "constant", "value": 1.0},
            "psi": {"kind": "constant", "value": 0.5}, "k": scenarios.MAX_SYSTEM_DIM}})
        doc["checks"][0]["eps"] = [0.5] * scenarios.MAX_EPS
        # the main flow and one per length: flows_at_the_cap in all
        doc["checks"].append({"kind": "growth_scaling",
                              "lengths": [1.0] * (flows_at_the_cap(doc) - 1)})
        assert len(scenarios.parse_scenario(doc).checks) == 5

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field, function", [
        ("phi", lambda x: {"kind": "constant", "value": x}),
        ("phi", lambda x: {"kind": "rational", "num": [1.0, x], "den": [1.0]}),
        ("phi", lambda x: {"kind": "rational", "num": [1.0], "den": [1.0, x]}),
        ("phi", lambda x: {"kind": "table", "s": [0.0, x], "values": [1.0, 1.0]}),
        ("phi", lambda x: {"kind": "table", "s": [0.0, 1.0], "values": [1.0, x]}),
        ("psi", lambda x: {"kind": "constant", "value": x}),
    ], ids=["constant", "rational_num", "rational_den", "table_s", "table_values",
            "psi_constant"])
    def test_non_finite_function_numbers_exit_2(self, tmp_path, capsys, x, field, function):
        # json.dumps writes NaN and Infinity, and json.loads reads them back
        doc = quick_doc()
        (doc["params"] if field == "phi" else doc["params"]["source"])[field] = function(x)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
        assert f"bad {field}" in capsys.readouterr().err
        assert not out.exists()     # rejected before the flow ran

    @pytest.mark.parametrize("function", [
        {"kind": "rational", "num": [1.0, 1e-310], "den": [1.0]},
        {"kind": "rational", "num": [1.0], "den": [1.0, 1e-310]},
    ], ids=["num", "den"])
    def test_a_rational_whose_roots_overflow_exits_2(self, tmp_path, function):
        # 1 / 1e-310 overflows in the companion matrix of the roots, which
        # used to warn and fail in numpy's eigenvalues; in a fresh
        # interpreter, so that numpy's warning would reach stderr
        doc = quick_doc(name="tiny_lead")
        doc["params"]["phi"] = function
        path = tmp_path / "tiny_lead.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
        assert proc.returncode == cli.EXIT_SCHEMA, proc.stderr
        assert "bad phi 'rational' parameters: a coefficient over the leading one" in proc.stderr
        assert "Warning" not in proc.stderr and not out.exists()

    @pytest.mark.parametrize("name", list(scenarios.builtin_scenarios()))
    def test_every_non_finite_number_is_a_schema_error(self, name):
        # each numeric leaf of the document set to NaN and to each infinity
        # is refused by the parse, with no numpy warning on the way
        doc = scenarios.builtin_scenarios()[name]
        leaves = [path for path in value_paths(doc)
                  if type(lookup(doc, path)) in (int, float)]
        assert len(leaves) > 10
        for path in leaves:
            for x in (math.nan, math.inf, -math.inf):
                bad = copy.deepcopy(doc)
                lookup(bad, path[:-1])[path[-1]] = x
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(SchemaError):
                        scenarios.parse_scenario(bad)

    @pytest.mark.parametrize("body, message", [
        ({"kind": "ball", "radius": 1e308, "center": [1e308, 0.0]},
         "support values must be finite"),
        ({"kind": "ball", "radius": 1.0, "center": [0.0, math.inf]}, "center must be finite"),
        ({"kind": "polygon", "vertices": [[0.0, 0.0], [math.inf, 1.0]]},
         "vertices must be finite"),
        ({"kind": "segment", "length": math.inf}, "length must be finite"),
        ({"kind": "segment", "length": 1.0, "angle": math.inf}, "angle must be finite"),
    ], ids=["overflowing_ball", "infinite_center", "infinite_vertex", "infinite_length",
            "infinite_angle"])
    def test_bodies_that_overflow_or_are_not_finite_are_refused_by_name(self, body, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match=message):
                scenarios.parse_scenario(quick_doc(initial_body=body))

    def test_run_blowup_exits_3(self, tmp_path, capsys):
        doc = quick_doc(name="explode", horizon=30.0, dt=0.1)
        doc["params"] = {"A": [[1.0, 0.0], [0.0, 1.0]],
                         "phi": {"kind": "constant", "value": 1.0},
                         "source": {"kind": "zero"}}
        path = tmp_path / "explode.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == cli.EXIT_BLOWUP
        report = json.loads((tmp_path / "explode.json").read_text())
        assert "diagnostic" in report

    def test_overflowing_flow_matrix_is_a_blowup(self, tmp_path):
        # in a fresh interpreter, so that numpy's warnings reach stderr as
        # they do for a user; the diagonal and the closed-form branch of expm
        for i, A in enumerate(([[1e6, 0.0], [0.0, 1e6]], [[1e6, 1.0], [0.0, 1e6]])):
            doc = quick_doc(name=f"overflow{i}", grid_size=16, horizon=0.01, dt=1e-3)
            doc["params"] = {"A": A, "phi": {"kind": "constant", "value": 1.0},
                             "source": {"kind": "zero"}}
            path = tmp_path / f"overflow{i}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
            assert proc.returncode == cli.EXIT_BLOWUP, proc.stderr
            assert "Warning" not in proc.stderr
            report = json.loads((out / path.name).read_text())
            assert report["diagnostic"]["blow_up_at"] == 0.0

    def test_a_non_finite_source_half_step_is_a_blowup(self, tmp_path):
        # psi(V) = 1e308 V^2 overflows to inf at the disc's area, so the
        # first half-step u + (dt/2) F is not finite; in a fresh interpreter,
        # so that numpy's overflow warning goes to stderr as it does for a
        # user
        doc = quick_doc(name="inf_source", grid_size=64, horizon=1.0, dt=1e-3)
        doc["initial_body"] = {"kind": "ball", "radius": 2.0}
        doc["params"]["source"] = {"kind": "ball_source",
                                   "psi": {"kind": "rational", "num": [0.0, 0.0, 1e308],
                                           "den": [1.0]}}
        path = tmp_path / "inf_source.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
        assert proc.returncode == cli.EXIT_BLOWUP, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "inf_source: blow-up" in proc.stdout
        report = json.loads((out / path.name).read_text())
        assert report["diagnostic"]["blow_up_at"] == 0.0
        assert report["trajectory"]["frames"] == 1

    @pytest.mark.parametrize("builtin, edit, message", [
        ("segment_growth", {"initial_body": {"kind": "segment", "length": 1e300}},
         "initial_body: max |h| must be at most 1e+140"),
        ("segment_growth", {"checks": [{"kind": "growth_scaling", "lengths": [1e200, 2e200]}]},
         "growth_scaling: 'lengths' must be"),
        ("segment_growth", {"initial_body": {"kind": "support_values",
                                             "values": [1.7e308] * 512}},
         "bad initial_body 'support_values' parameters: max |h| must be at most 1e+140"),
        ("segment_growth", {"initial_body": {"kind": "ball", "radius": 1.0,
                                             "center": [1e308, 1e308]}},
         "initial_body: max |h| must be at most 1e+140"),
    ], ids=["long_segment", "long_growth_lengths", "huge_support_values", "far_ball"])
    def test_a_body_whose_area_form_overflows_is_refused_by_name(self, tmp_path, builtin,
                                                                 edit, message):
        # in a fresh interpreter, so that a numpy warning would reach stderr
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(scenarios.builtin_scenarios()[builtin] | edit
                                   | {"name": "huge"}))
        proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == cli.EXIT_SCHEMA and proc.stdout == ""
        # one line, and no warning before it
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1

    def test_the_area_forms_of_the_largest_bodies_stay_finite(self):
        # a body at the document bound may grow to OVERFLOW_FACTOR times it
        # before evolve stops it; on the largest grid its forms stay finite
        big = flow.OVERFLOW_FACTOR * scenarios.MAX_BODY_NORM
        m = scenarios.MAX_GRID_SIZE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (bodies.make_ball(big, grid_size=m), bodies.make_segment(2 * big, 0.3, m),
                      bodies.make_polygon([[big, big], [-big, big], [0.0, -big]], m)):
                assert math.isfinite(bodies._self_form(u)) and bodies.area(u) > 0.0
                assert math.isfinite(bodies.mixed_area(u, u.values[::-1]))
                assert math.isfinite(bodies.perimeter(u))
            # samples outside the cone, with the largest differences
            zigzag = big * (-1.0) ** np.arange(m)
            assert math.isfinite(bodies._mixed_form(zigzag, zigzag))

    @pytest.mark.parametrize("check", [
        {"kind": "lyapunov", "box": [0.0, 1e300]},
        {"kind": "wazewski", "system": {
            "kind": "nilpotent", "phi": {"kind": "table", "s": [0.0, 10.0], "values": [0.0, 1e308]},
            "psi": {"kind": "constant", "value": 0.5}}},
    ], ids=["lyapunov", "wazewski"])
    def test_sampled_checks_that_overflow_fail_without_a_warning(self, tmp_path, check):
        # the right-hand side overflows at the samples: the lyapunov ratio is
        # NaN, and the wazewski comparison of the clocked chain, whose rate
        # -2 phi falls with xi_0 past -1.8e308, reads -inf; both are written
        # as null.  In a fresh interpreter, so that numpy's warnings would
        # reach stderr
        doc = scenarios.builtin_scenarios()["nilpotent_decay"] | {"name": "huge",
                                                                  "checks": [check]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = run_python("-m", "setflow.cli", "run", str(path), "--out", str(out))
        assert proc.returncode == cli.EXIT_CHECK_FAILED and proc.stderr == ""
        details = strict_json((out / "huge.json").read_text())["checks"][0]["details"]
        assert details["passed"] is False
        if check["kind"] == "lyapunov":
            assert details["samples"] == 4096 and details["worst_ratio"] is None
        else:
            assert details["samples"] == 256 and details["violation"]["g_eta"] is None

    def test_a_check_that_blows_up_fails_and_every_report_is_written(self, tmp_path,
                                                                     capsys):
        # exp(50 t) leaves the comparison guard 1e12 at t = 0.55
        explode = {"kind": "bound_check", "functionals": ["V", "perimeter"],
                   "system": {"kind": "linear", "matrix": [[50.0, 0.0], [0.0, 50.0]]}}
        paths = [tmp_path / "c0.json", tmp_path / "c1.json"]
        paths[0].write_text(json.dumps(search_doc() | {"name": "c0", "horizon": 1.0,
                                                       "checks": [explode]}))
        paths[1].write_text(json.dumps(search_doc() | {"name": "c1", "checks": []}))
        out = tmp_path / "out"
        assert cli.main(["run", *map(str, paths), "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        result = json.loads((out / "c0.json").read_text())["checks"][0]
        assert not result["passed"]
        assert result["details"]["error"].startswith("BlowupError")
        assert json.loads((out / "c1.json").read_text())["passed"]

    def test_run_failed_check_exits_1(self, tmp_path, capsys):
        doc = quick_doc(name="failing",
                        checks=[{"kind": "converge_to",
                                 "body": {"kind": "ball", "radius": 9.0},
                                 "tol": 1e-9}])
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("change, check, error", [
        ({}, {"kind": "fixed_point", "psi": {"kind": "constant", "value": 0.0}},
         "ValueError: no sign change"),
        ({}, {"kind": "fixed_point", "psi": {"kind": "constant", "value": 1.0}},
         "ValueError: not a fixed point"),
        ({}, {"kind": "instability_certificate", "phi": {"kind": "constant", "value": 0.0}},
         "ZeroDivisionError"),
        # exp(-500) crushes each segment to support values whose squares
        # underflow, so both final areas are exactly 0
        ({"grid_size": 16, "horizon": 0.5, "dt": 1e-2},
         {"kind": "growth_scaling", "lengths": [1.0, 2.0]}, "ZeroDivisionError"),
    ], ids=["fixed_point_no_ball", "fixed_point_psi_not_the_flows",
            "instability_phi_0", "growth_zero_final_area"])
    def test_uncomputable_certificate_fails_the_check(self, tmp_path, capsys, change,
                                                      check, error):
        doc = quick_doc(name="uncomputable", checks=[check], **change)
        if check["kind"] == "growth_scaling":
            doc["params"]["A"] = [[-1000.0, 0.0], [0.0, -1000.0]]
            doc["params"]["source"] = {"kind": "linear_body",
                                       "psi": {"kind": "constant", "value": 0.5},
                                       "B": [[0.0, -1.0], [1.0, 0.0]]}
        path = tmp_path / "uncomputable.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_CHECK_FAILED
        result = json.loads((out / "uncomputable.json").read_text())["checks"][0]
        assert not result["passed"]
        assert result["details"]["error"].startswith(error)

    def test_run_parallel_jobs(self, tmp_path, capsys):
        paths = []
        for i in range(3):
            doc = quick_doc(name=f"par{i}")
            p = tmp_path / f"par{i}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        assert cli.main(["run", *paths, "--jobs", "3",
                         "--out", str(tmp_path)]) == 0
        for i in range(3):
            assert (tmp_path / f"par{i}.csv").exists()

    @pytest.mark.parametrize("output", [
        lambda root: {"csv": "../escaped.csv", "report": str(root / "abs.json")},
        lambda root: {"csv": 5},
    ], ids=["escaping_paths", "number"])
    def test_an_output_object_does_not_rename_the_outputs(self, tmp_path, capsys, output):
        path = tmp_path / "doc" / "quick.json"
        path.parent.mkdir()
        path.write_text(json.dumps(quick_doc(output=output(tmp_path))))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["quick.csv", "quick.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc", "out"]

    def test_a_finished_run_releases_its_frames(self, tmp_path, monkeypatch, capsys):
        runs, alive = [], []
        solve = scenarios.solve

        def tracked_solve(*args, **kwargs):
            if runs:
                gc.collect()
                alive.append(runs[-1]() is not None)
            traj = solve(*args, **kwargs)
            runs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(scenarios, "solve", tracked_solve)
        paths = []
        for name in ("first", "second"):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(quick_doc(name=name)))
        assert cli.main(["run", *map(str, paths), "--out", str(tmp_path / "out")]) == 0
        assert len(runs) == 2 and alive == [False]

    def test_run_builtin_by_name(self, tmp_path, capsys):
        assert cli.main(["run", "shrink_instability", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "shrink_instability.json").exists()

    def test_the_runtime_never_imports_scipy(self, tmp_path):
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import setflow.cli",
            "from setflow import bodies",
            "assert setflow.cli.main(['run', 'nilpotent_decay', '--out', sys.argv[1]]) == 0",
            "c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)",
            "rot = np.array([[c, -s], [s, c]])",
            "bodies.linear_image(bodies.make_ball(1.0, grid_size=64), rot)",
            "assert bodies._pullback_plan(rot.tobytes(), 64).cells is not None",
            "print(sorted(name for name in sys.modules if name.startswith('scipy')))",
        ])
        proc = run_python("-c", code, str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_every_builtin_runs_clean(self, tmp_path, capsys):
        names = [name for name, _ in scenarios.list_builtins()]
        assert cli.main(["run", *names, "--out", str(tmp_path)]) == 0
        for name in names:
            report = strict_json((tmp_path / f"{name}.json").read_text())
            assert report["passed"] is True, name
            assert (tmp_path / f"{name}.csv").exists()


# the parameter keys each check kind reads
CHECK_KEYS = {
    "closed_form_area": ["terms", "rtol"],
    "bound_check": ["system", "functionals", "tol_scale"],
    "practical": ["system", "lambda", "A", "T", "expect"],
    "xi0_stability": ["system", "eps", "T_check", "expect"],
    "wazewski": ["system", "box", "samples", "expect"],
    "lyapunov": ["system", "box", "samples", "weights", "expect"],
    "fixed_point": ["phi", "psi", "n", "expect_stable"],
    "converge_to": ["body", "tol"],
    "sde_exponents": ["B", "lambda", "A", "T"],
    "growth_scaling": ["lengths", "rtol", "ratio_tol"],
    "instability_certificate": ["phi", "psi", "trace_A", "expect"],
}


def shrunk_documents():
    """The builtins and the search document on a 16-point grid, five steps long."""
    docs = dict(scenarios.builtin_scenarios(), search=search_doc())
    for doc in docs.values():
        doc.update(grid_size=16, horizon=5 * doc["dt"])
    return docs


SHRUNK = shrunk_documents()
SCALARS = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0), st.text(max_size=3),
                    st.booleans(), st.none())
JSON_VALUES = st.one_of(
    SCALARS,
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=3),
    st.fixed_dictionaries({"kind": st.sampled_from(
        ["constant", "rational", "ball", "nilpotent", "cyclic", "sde", "linear", "mystery"])}),
    st.builds(lambda v: {"kind": "constant", "value": v}, st.integers(0, 3)))
DELETE = object()
# anything may take the place of a value, path-like names included, or the
# key may go; the work budget stays fixed
DOCUMENT_VALUES = st.one_of(
    JSON_VALUES, st.just(DELETE),
    st.sampled_from(["a/b", "..", ".", "/", "a\\b", "../x", "/abs/x", "x.csv"]))
WORK_BUDGET = {("horizon",), ("dt",), ("grid_size",)}
# the work budget mutates from a bounded set: values the schema refuses, and
# small valid ones, so that an accepted document stays a short run
INVALID_WORK = [0, -1, "0.01", True, False, None]
WORK_VALUES = {             # key: (refused, accepted)
    "horizon": (INVALID_WORK + [DELETE], [0.01, 0.02]),
    "dt": (INVALID_WORK, [DELETE, 0.005, 0.01, 0.05]),
    "grid_size": (INVALID_WORK + [15, 17, 2.0], [DELETE, 16, 32, 64]),
}
SMALL_WORK = 2 ** 16        # steps times grid points of the main flow


def value_paths(obj, prefix=()):
    """The path of every value in a JSON document that is not a container."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from value_paths(value, prefix + (key,))
    else:
        yield prefix


def lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def key_paths(obj, prefix=()):
    """The path of every object key in a JSON document, in document order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from key_paths(value, prefix + (i,))


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` gives
    the next of the values, in the order the test draws them."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


class TestCheckFuzz:
    def test_every_check_kind_is_covered(self):
        kinds = {c["kind"] for doc in SHRUNK.values() for c in doc["checks"]}
        assert kinds == set(CHECK_KEYS) == set(scenarios._CHECKS)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_a_malformed_check_is_a_schema_error_and_runs_never_raise(self, data):
        doc = copy.deepcopy(SHRUNK[data.draw(st.sampled_from(sorted(SHRUNK)))])
        check = doc["checks"][data.draw(st.integers(0, len(doc["checks"]) - 1))]
        check[data.draw(st.sampled_from(CHECK_KEYS[check["kind"]]))] = data.draw(JSON_VALUES)
        try:
            scenario = scenarios.parse_scenario(doc)
        except SchemaError:
            return
        with tempfile.TemporaryDirectory() as out:
            scenarios.run_scenario(scenario, out)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    # a carriage return in the name would split a 'wrote' line of stdout
    @example(data=Drawn("ball_fixed_point", ("name",), "0\r"))
    # numpy's generators refuse a negative seed, in a sampled check after the flow
    @example(data=Drawn("nilpotent_decay", ("seed",), -1))
    def test_a_mutated_document_exits_with_a_code_and_writes_only_into_out(self, data):
        doc = copy.deepcopy(SHRUNK[data.draw(st.sampled_from(sorted(SHRUNK)))])
        paths = [p for p in key_paths(doc) if p not in WORK_BUDGET]
        *parents, key = data.draw(st.one_of(
            st.just(("name",)), st.sampled_from([p for p in paths if len(p) == 1]),
            st.sampled_from(paths)))
        target = doc
        for k in parents:
            target = target[k]
        value = data.draw(DOCUMENT_VALUES)
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "doc.json").write_text(json.dumps(doc))
            out, stdout = root / "out", io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", str(root / "doc.json"), "--out", str(out)])
            assert code in (0, 1, 2, 3)
            assert {p.name for p in root.iterdir()} <= {"doc.json", "out"}
            written = [Path(line.split("wrote ", 1)[1])
                       for line in stdout.getvalue().splitlines() if "  wrote " in line]
            assert all(p.parent == out for p in written)
            assert sorted(out.iterdir() if out.exists() else []) == sorted(written)
            assert all(isinstance(strict_json(p.read_text()), dict)
                       for p in written if p.suffix == ".json")

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_a_mutated_work_budget_exits_2_or_runs_small(self, data):
        doc = copy.deepcopy(SHRUNK[data.draw(st.sampled_from(sorted(SHRUNK)))])
        keys = data.draw(st.lists(st.sampled_from(sorted(WORK_VALUES)),
                                  min_size=1, max_size=3, unique=True))
        # at most one key takes a refused value, the others accepted ones
        refused = data.draw(st.sampled_from([None, *keys]))
        for key in keys:
            bad, good = WORK_VALUES[key]
            value = data.draw(st.sampled_from(bad if key == refused else good))
            if value is DELETE:
                del doc[key]
            else:
                doc[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", str(path), "--out", str(Path(tmp) / "out")])
        if refused is not None:
            assert code == cli.EXIT_SCHEMA
            return
        assert code in (0, 1, 3)
        scenario = scenarios.parse_scenario(doc)
        assert math.ceil(scenario.horizon / scenario.dt) * scenario.grid_size <= SMALL_WORK
