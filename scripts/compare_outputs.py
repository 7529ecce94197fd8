"""Compare the outputs of ``setflow run`` at a git revision and in this tree.

Usage::

    python scripts/compare_outputs.py REF [--seeds 777 4242]

``REF`` (any revision ``git archive`` accepts) is exported to a temporary
directory.  Both trees then run the same targets, each tree in one fresh
interpreter: the 7 builtins, and every document of
``bench/workloads.documents`` for each workload and seed (the ladder rungs
flattened), with the documents generated once by this tree's
``bench/workloads.py``.  Every target writes to its own output directory,
whose path is masked in the captured stdout.  The script prints each
difference in CSV/JSON files, stdout, stderr or exit code and exits 1 if
there is any, 0 if the outputs are byte-identical.

A CSV or JSON file that differs is walked leaf by leaf (a JSON value that
is not an object or a list, a CSV cell).  Every changed leaf that is not a
finite number (a verdict, a ``passed`` flag, a header, a leaf on one side
only) is printed with its path; the numeric leaves that moved are counted,
with the largest relative change ``|a - b| / max(|a|, |b|)``.  The last
line sums up every file: the runs whose exit code, stdout or stderr
differ, the largest relative change of any numeric leaf with its file and
path, and each path of a changed non-numeric leaf with the number of files
it changed in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in the fresh interpreter of one tree: argv is the output root and a
# JSON list of [label, target] pairs; prints a JSON list of
# [label, exit code, stdout, stderr].
DRIVER = r"""
import contextlib, io, json, sys
from setflow import cli

root, targets = sys.argv[1], json.loads(sys.argv[2])
runs = []
for label, target in targets:
    out_dir = f"{root}/{label}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["run", target, "--out", out_dir])
    runs.append([label, code, stdout.getvalue().replace(out_dir, "<OUT>"),
                 stderr.getvalue()])
print(json.dumps(runs))
"""


def export(ref: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                         capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def targets(seeds, doc_dir: Path) -> list:
    """[label, builtin name or document path] for every run, in run order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from setflow import scenarios

    runs = [[f"builtin/{name}", name] for name, _ in scenarios.list_builtins()]
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for i, doc in enumerate(workloads.documents(workload, seed)):
                label = f"{workload}/{seed}/{i:02d}_{doc['name']}"
                path = doc_dir / f"{label}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(doc))
                runs.append([label, str(path)])
    return runs


def start(tree: Path, out: Path, runs: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-c", DRIVER, str(out), json.dumps(runs)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=tree)


def files(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def leaves(name: str, data: bytes) -> dict:
    """``{path: value}`` of the leaves of a JSON or CSV file, {} for others."""
    if name.endswith(".json"):
        tree = json.loads(data)
    elif name.endswith(".csv"):
        tree = [[_number(cell) for cell in line.split(",")]
                for line in data.decode().splitlines()]
    else:
        return {}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, f"{path}.{key}")
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, f"{path}[{i}]")
        else:
            out[path] = node
    walk(tree, "")
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def compare_leaves(name: str, a: bytes, b: bytes):
    """``(changed, moved, largest, where)`` of two versions of a CSV or JSON
    file: the ``(path, old, new)`` of each changed leaf that is not a finite
    number on both sides, the count of the numeric leaves that moved, and
    the largest relative change ``|a - b| / max(|a|, |b|)`` and its path."""
    left, right = leaves(name, a), leaves(name, b)
    changed, moved, largest, where = [], 0, 0.0, None
    for path in sorted(left.keys() | right.keys()):
        x, y = left.get(path, "<missing>"), right.get(path, "<missing>")
        if _finite_number(x) and _finite_number(y):
            if x != y:
                moved += 1
                change = abs(x - y) / max(abs(x), abs(y))
                if change > largest or where is None:
                    largest, where = change, path
        elif repr(x) != repr(y):
            changed.append((path or "<root>", x, y))
    return changed, moved, largest, where


def leaf_changes(name: str, a: bytes, b: bytes) -> list:
    """Lines on how two versions of a CSV or JSON file differ, leaf by leaf."""
    changed, moved, largest, _ = compare_leaves(name, a, b)
    lines = [f"  {path}: {x!r} != {y!r}" for path, x, y in changed]
    if moved:
        lines.append(f"  {moved} numeric leaves moved, largest relative change {largest:.3g}")
    return lines


def summary(files_changes, runs_differing: int) -> str:
    """One line over every changed file: the largest relative change of a
    numeric leaf, with its file and path, and each path of a changed
    non-numeric leaf with the number of files it changed in.

    ``files_changes`` maps a file name to its :func:`compare_leaves`.
    """
    largest, where, paths = 0.0, None, {}
    for name, (changed, moved, change, path) in sorted(files_changes.items()):
        if moved and (where is None or change > largest):
            largest, where = change, f"{name}{path}"
        for leaf, _, _ in changed:
            paths[leaf] = paths.get(leaf, 0) + 1
    numeric = f"{largest:.3g} at {where}" if where else "none"
    other = ", ".join(f"{leaf} ({n} files)" for leaf, n in sorted(paths.items())) or "none"
    return (f"summary: {runs_differing} runs differ in exit code, stdout or stderr; "
            f"largest relative change of a numeric leaf: {numeric}; "
            f"changed non-numeric leaves: {other}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare this tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[777, 4242])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        export(args.ref, tmp / "ref")
        runs = targets(args.seeds, tmp / "docs")
        trees = {"ref": tmp / "ref", "tree": ROOT}
        procs = {side: start(tree, tmp / "out" / side, runs) for side, tree in trees.items()}
        results, outputs = {}, {}
        for side, proc in procs.items():
            stdout, stderr = proc.communicate()
            if proc.returncode != 0:
                print(f"error: the {side} interpreter failed:\n{stderr}", file=sys.stderr)
                return 2
            results[side] = {label: run for label, *run in json.loads(stdout)}
            outputs[side] = files(tmp / "out" / side)

        differences, runs_differing, files_changes = [], 0, {}
        for label, _ in runs:
            differs = False
            for what, a, b in zip(("exit code", "stdout", "stderr"),
                                  results["ref"][label], results["tree"][label]):
                if a != b:
                    differs = True
                    differences.append(f"{label}: {what} differs: {a!r} != {b!r}")
            runs_differing += differs
        for name in sorted(outputs["ref"].keys() | outputs["tree"].keys()):
            a, b = outputs["ref"].get(name), outputs["tree"].get(name)
            if a is None or b is None:
                differences.append(f"{name}: only in {'tree' if a is None else args.ref}")
            elif a != b:
                files_changes[name] = compare_leaves(name, a, b)
                differences.append("\n".join([f"{name}: contents differ",
                                               *leaf_changes(name, a, b)]))

    for line in differences:
        print(line)
    print(f"{len(runs)} runs, {len(outputs['tree'])} files: "
          f"{len(differences)} differences against {args.ref}")
    print(summary(files_changes, runs_differing))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
