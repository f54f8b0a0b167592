"""Census of the library functions that no run enters.

Runs, in this one process and with ``sys.settrace`` watching every call:

- the four CLI subcommands on the small configs of CI's Demos step, its
  prox, sphere and metric avoidance configs, its two cubic avoidance
  configs, its configs that must exit 2, and ``--help``
- the five demos, each as ``python demos/<name>.py`` would run it
- one pass of each perfbench workload at seed 0, through
  ``perfbench/workloads.py`` as it stands

and then prints every function defined in ``src/saddle_escape/*.py``
(methods and nested functions included) that none of them entered.  A
function listed here is a candidate for deletion, or for a run that reaches
it.  Only Python function calls are seen; the library starts no threads.

Run from anywhere (a few seconds on 2 cores)::

    python tools/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "saddle_escape"

# CI's Demos step: the configs each subcommand runs once, the prox, sphere
# and metric avoidance configs, the two cubic avoidance configs, and the
# configs that are named config errors (exit 2)
CLI_RUNS = [
    ("run", {"experiment": "single_run", "init": [0.5, 0.001], "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "trials": 10, "budget": 2000}, 0),
    ("fig1", {"experiment": "fig1"}, 0),
    ("chart", {"experiment": "chart", "objective": {"name": "cubic", "a": 0.1}}, 0),
    ("avoidance", {"experiment": "avoidance", "method_id": "prox",
                   "objective": {"name": "cubic", "a": 0.1}, "trials": 10, "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "method_id": "manifold-sphere",
                   "objective": {"name": "fig1"}, "trials": 10, "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "method_id": "manifold-intrinsic",
                   "metric": [[2, 0], [0, 1]], "trials": 10, "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "objective": {"name": "cubic", "a": 0.1},
                   "trials": 20, "budget": 5000}, 0),
    ("avoidance", {"experiment": "avoidance", "objective": {"name": "cubic", "a": 0.1},
                   "trials": 5, "budget": 3000, "escape_radius": 1e308}, 0),
    ("run", {"experiment": "single_run", "init": [0.5, 0.001], "budget": 1 << 63}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 2,
                   "init_box": [[-1e308, 1e308], [-1, 1]]}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 2, "grad_tol": 1e-8}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 2, "window": 10}, 2),
    ("fig1", {"experiment": "fig1", "objective": {"name": "cubic", "a": 0.1}}, 2),
    ("chart", {"experiment": "chart", "chart": {"grid_points": 9 * 10 ** 399}}, 2),
    ("chart", {"experiment": "chart", "chart": {"grid_points": 10 ** 20}}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 10 ** 20}, 2),
]


def library_functions() -> dict:
    """{(file, first line of its code object): (file name, def line, qualified
    name)} for every def."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (path.name, child.lineno, prefix + child.name)
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)
        visit(tree, "")
    return found


def run_cli() -> None:
    from saddle_escape import harness_cli

    for i, (command, config, want) in enumerate(CLI_RUNS):
        path = Path(f"cli-{i}.json")
        path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            code = harness_cli.main([command, "--config", str(path), "--out", f"cli-out-{i}"])
        if code != want:
            raise SystemExit(f"census: {command} on {config} exited {code}, not {want}")
    with contextlib.suppress(SystemExit):
        harness_cli.main(["--help"])


def run_demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        argv, sys.argv = sys.argv, [str(demo)]
        try:
            runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.argv = argv


def run_workloads() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        os.mkdir(name)
        workload.run(workload.build(0, name), name)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import saddle_escape

    if Path(saddle_escape.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"census: saddle_escape was imported from {saddle_escape.__file__}")
    functions = library_functions()
    files = {path for path, _ in functions}
    entered = set()

    def trace(frame, event, arg):  # the global hook sees call events only
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        try:
            for label, runs in (("CLI", run_cli), ("demos", run_demos),
                                ("perfbench", run_workloads)):
                t0 = time.perf_counter()
                os.chdir(tmp)
                os.mkdir(label)
                os.chdir(label)  # each group writes its outputs here
                sys.settrace(trace)
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        runs()
                finally:
                    sys.settrace(None)
                print(f"# {label}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        finally:
            os.chdir(cwd)
    missed = sorted(where for key, where in functions.items() if key not in entered)
    print(f"{len(functions)} library functions, {len(missed)} never entered by the "
          f"CLI runs, the demos or one pass of each perfbench workload:")
    for file, line, name in missed:
        print(f"  {file}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
