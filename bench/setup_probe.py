"""The set-up every ``setflow run`` process pays, timed from a fresh interpreter.

Run as ``python3 bench/setup_probe.py DOC.json ...`` with ``src`` on the
path: it imports ``setflow.cli``, parses every document and takes one flow
step from each initial body, which triggers the lazy imports the documents'
pull-backs need.  ``run.py`` times the whole process from spawn to exit.
"""

from __future__ import annotations

import sys


def prepare(doc_paths) -> None:
    """Import the CLI, parse the documents and trigger lazy imports."""
    import setflow.cli  # noqa: F401  (the import is part of the set-up)
    from setflow import flow, scenarios

    for scenario in [scenarios.load_scenario(path) for path in doc_paths]:
        flow.step(scenario.initial_body, scenario.params, scenario.dt)


if __name__ == "__main__":
    prepare(sys.argv[1:])
