"""The leaf-by-leaf report of ``scripts/compare_outputs.py``."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def report(**overrides):
    doc = {"name": "r", "passed": True,
           "checks": [{"kind": "closed_form_area", "passed": True,
                       "details": {"max_rel_error": 4e-4, "kind": "stable"}}],
           "trajectory": {"frames": 3, "final": {"V": 0.5}}}
    for path, value in overrides.items():
        node = doc
        *parents, leaf = path.split("/")
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        node[leaf] = value
    return json.dumps(doc).encode()


def test_a_report_whose_numbers_moved_lists_only_the_count_and_largest_change():
    lines = compare_outputs.leaf_changes(
        "r.json", report(), report(**{"checks/0/details/max_rel_error": 2e-6,
                                      "trajectory/final/V": 0.49}))
    assert lines == ["  2 numeric leaves moved, largest relative change 0.995"]


def test_every_changed_verdict_flag_and_missing_leaf_is_listed():
    a = report()
    b = report(**{"passed": False, "checks/0/details/kind": "unstable",
                  "trajectory/frames": 4, "diagnostic": {"blow_up_at": 0.0}})
    assert compare_outputs.leaf_changes("r.json", a, b) == [
        "  .checks[0].details.kind: 'stable' != 'unstable'",
        "  .diagnostic.blow_up_at: '<missing>' != 0.0",
        "  .passed: True != False",
        "  1 numeric leaves moved, largest relative change 0.25",
    ]


def test_csv_cells_are_leaves_and_the_header_is_not_numeric():
    a = b"t,V,W0\n0,1,1\n0.5,0.75,0.75\n"
    b = b"t,V,W1\n0,1,1\n0.5,0.75,0.7500001\n"
    assert compare_outputs.leaf_changes("r.csv", a, b) == [
        "  [0][2]: 'W0' != 'W1'",
        "  1 numeric leaves moved, largest relative change 1.33e-07",
    ]


def test_non_finite_numbers_compare_by_value():
    nan = b'{"x": NaN, "y": Infinity}'
    assert compare_outputs.leaf_changes("r.json", nan, nan) == []
    assert compare_outputs.leaf_changes("r.json", nan, b'{"x": NaN, "y": 1.0}') == [
        "  .y: inf != 1.0"]


def test_the_summary_line_reads_the_largest_numeric_change_and_every_changed_path():
    a = report()
    files = {
        "x/r.json": compare_outputs.compare_leaves(
            "x/r.json", a, report(**{"trajectory/final/V": 0.49, "solver": "reduced"})),
        "y/r.json": compare_outputs.compare_leaves(
            "y/r.json", a, report(**{"checks/0/details/max_rel_error": 2e-4,
                                     "solver": "reduced"})),
        "y/r.csv": compare_outputs.compare_leaves("y/r.csv", b"t,V\n0,1\n", b"t,V\n0,1.5\n"),
    }
    assert compare_outputs.summary(files, 2) == (
        "summary: 2 runs differ in exit code, stdout or stderr; "
        "largest relative change of a numeric leaf: 0.5 at y/r.json.checks[0].details."
        "max_rel_error; changed non-numeric leaves: .solver (2 files)")


def test_the_summary_of_identical_outputs_reads_none():
    assert compare_outputs.summary({}, 0) == (
        "summary: 0 runs differ in exit code, stdout or stderr; largest relative change "
        "of a numeric leaf: none; changed non-numeric leaves: none")
