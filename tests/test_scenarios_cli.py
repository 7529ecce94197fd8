"""Scenario schema, runner determinism, CSV/JSON artifacts, CLI surface."""

import dataclasses
import json

import numpy as np
import pytest

from setflow import bodies, certificates, cli, comparison, flow, scenarios
from setflow.scenarios import SchemaError


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
    def test_violations_rejected(self, mutate):
        doc = quick_doc()
        doc.update(mutate)
        with pytest.raises(SchemaError):
            scenario = scenarios.parse_scenario(doc)
            scenarios.run_scenario(scenario, write_outputs=False)

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

    def test_report_structure(self, tmp_path):
        result = scenarios.run_scenario(
            scenarios.parse_scenario(quick_doc()), tmp_path)
        doc = json.loads(result.report_path.read_text())
        assert doc["schema"] == 1
        assert doc["passed"] is True
        assert doc["trajectory"]["frames"] >= 2

    def test_failed_check_marks_run(self):
        doc = quick_doc(checks=[{"kind": "converge_to",
                                 "body": {"kind": "ball", "radius": 5.0},
                                 "tol": 1e-6}])
        result = scenarios.run_scenario(scenarios.parse_scenario(doc),
                                        write_outputs=False)
        assert not result.passed

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


def emitted_reports():
    """One report of each type that a scenario check emits."""
    one, half = flow.constant(1.0), flow.constant(0.5)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    pair = comparison.nilpotent_source_system(one, half)
    square = bodies.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]],
                                 grid_size=64)
    growth = flow.SemiflowParams(A=np.zeros((2, 2)), phi=one,
                                 source=flow.linear_source(one, swap))
    traj = flow.evolve(square, growth, 0.1, 0.01, tracked=("V", "mixed"),
                       mixed_op=swap, mixed_count=2)
    disc = flow.SemiflowParams(A=-np.eye(2), phi=one, source=flow.ball_source(one))
    fixed = certificates.ball_source_fixed_point(one, one, grid_size=64)
    return {
        "wazewski": comparison.check_wazewski(pair, (0.0, 10.0), n_samples=8),
        "wazewski_violation": comparison.check_wazewski(
            comparison.linear_system([[0.0, -1.0], [0.0, 0.0]]), (0.0, 10.0),
            n_samples=8),
        "bound_check": comparison.bound_check(traj, comparison.sde_growth_system(swap),
                                              ["W0", "W1"]),
        "lyapunov": comparison.lyapunov_quadratic_check(pair, n_samples=8),
        "fixed_point": fixed,
        "linearization": certificates.linearize(fixed.body, disc),
        "sde_exponents": certificates.sde_growth_exponents(swap),
        "instability": certificates.ball_source_instability(one, one, -2.0),
    }


class TestReportSerialization:
    def test_every_emitted_report_is_plain_json(self):
        reports = emitted_reports()
        assert reports["wazewski_violation"].violation is not None
        for name, report in reports.items():
            plain = comparison._plain(report)
            assert json.loads(json.dumps(plain)) == plain, name
            names = {f.name for f in dataclasses.fields(report)} - {"body"}
            assert plain.keys() == names, name

    def test_fixed_point_details_leave_out_the_body(self):
        doc = quick_doc(checks=[{"kind": "fixed_point"}])
        result = scenarios.run_scenario(scenarios.parse_scenario(doc),
                                        write_outputs=False)
        details = result.checks[0]["details"]
        assert "body" not in details
        assert details["radius"] == pytest.approx(0.5)
        assert "gamma0" in details["linearization"]
        json.dumps(details)


def search_doc():
    """A reflection-source flow whose "auto" system is the cyclic k=2 chain."""
    doc = quick_doc(name="search", checks=[
        {"kind": "xi0_stability", "eps": [0.5], "T_check": 5.0,
         "directions": 4, "iters": 4},
        {"kind": "wazewski", "box": [0.0, 10.0], "samples": 16},
        {"kind": "lyapunov", "samples": 16, "weights": [1.0, 2.0]},
    ])
    doc["params"]["source"] = {"kind": "linear_body",
                               "psi": {"kind": "constant", "value": 0.5},
                               "B": [[1.0, 0.0], [0.0, -1.0]]}
    return doc


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "reflection_square" in out
        assert "sde_bound" in out

    def test_geom_area(self, capsys):
        assert cli.main(["geom", "area", "ball:1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(np.pi, rel=1e-10)

    def test_geom_mixed_segments(self, capsys):
        assert cli.main(["geom", "mixed", "seg:4", "rot90(seg:4)"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(8.0, rel=1e-5)

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

    @pytest.mark.parametrize("index, change, field", [
        (0, {"eps": []}, "eps"),
        (0, {"eps": [0.1, -1.0]}, "eps"),
        (0, {"T_check": 0}, "T_check"),
        (0, {"directions": 0}, "directions"),
        (0, {"directions": 2.5}, "directions"),
        (0, {"iters": -1}, "iters"),
        (1, {"box": [5.0, 1.0]}, "box"),
        (1, {"box": [-1.0, 1.0]}, "box"),
        (1, {"samples": 0}, "samples"),
        (2, {"samples": 0}, "samples"),
        (2, {"box": [[0.0, 1.0]]}, "box"),
        (2, {"weights": [1.0]}, "weights"),
        (2, {"weights": [1.0, -2.0]}, "weights"),
        (2, {"system": {"kind": "cyclic"}}, "'cyclic'"),
        (2, {"kind": "mystery"}, "mystery"),
    ], ids=["xi0_empty_eps", "xi0_negative_eps", "xi0_zero_T_check",
            "xi0_no_directions", "xi0_fractional_directions",
            "xi0_negative_iters", "wazewski_inverted_box",
            "wazewski_box_outside_cone", "wazewski_no_samples",
            "lyapunov_no_samples", "lyapunov_box_rows", "lyapunov_weight_count",
            "lyapunov_negative_weight", "lyapunov_bad_system", "unknown_kind"])
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

    @pytest.mark.parametrize("mutate, field", [
        (lambda d: d["checks"].append({"kind": "practical", "A": 100.0}), "'lambda'"),
        (lambda d: d["checks"].append({"kind": "converge_to"}), "converge_to body"),
        (lambda d: d.update(track=["V", {"kind": "mixed", "count": 0}]), "'count'"),
        (lambda d: d["params"].update(phi={"kind": "table", "s": [2.0, 0.0, 1.0],
                                           "values": [1.0, 1.0, 1.0]}), "phi"),
    ], ids=["practical_no_lambda", "converge_to_no_body", "mixed_count_0",
            "table_nodes_unsorted"])
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

    def test_run_failed_check_exits_1(self, tmp_path, capsys):
        doc = quick_doc(name="failing",
                        checks=[{"kind": "converge_to",
                                 "body": {"kind": "ball", "radius": 9.0},
                                 "tol": 1e-9}])
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1

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

    def test_run_builtin_by_name(self, tmp_path, capsys):
        assert cli.main(["run", "shrink_instability", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "shrink_instability.json").exists()

    def test_every_builtin_runs_clean(self, tmp_path, capsys):
        names = [name for name, _ in scenarios.list_builtins()]
        assert cli.main(["run", *names, "--out", str(tmp_path)]) == 0
        for name in names:
            report = json.loads((tmp_path / f"{name}.json").read_text())
            assert report["passed"] is True, name
            assert (tmp_path / f"{name}.csv").exists()
