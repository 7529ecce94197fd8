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
"""

from __future__ import annotations

import argparse
import json
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

        differences = []
        for label, _ in runs:
            for what, a, b in zip(("exit code", "stdout", "stderr"),
                                  results["ref"][label], results["tree"][label]):
                if a != b:
                    differences.append(f"{label}: {what} differs: {a!r} != {b!r}")
        for name in sorted(outputs["ref"].keys() | outputs["tree"].keys()):
            a, b = outputs["ref"].get(name), outputs["tree"].get(name)
            if a is None or b is None:
                differences.append(f"{name}: only in {'tree' if a is None else args.ref}")
            elif a != b:
                differences.append(f"{name}: contents differ")

    for line in differences:
        print(line)
    print(f"{len(runs)} runs, {len(outputs['tree'])} files: "
          f"{len(differences)} differences against {args.ref}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
