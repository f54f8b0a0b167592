"""CI's Demos step, and the census of the library functions that no run enters.

Runs, in this one process and with ``sys.settrace`` watching every call:

- every CLI smoke run in ``CLI_RUNS``, each of which must exit with its
  code, and ``--help``
- the five demos, each as ``python demos/<name>.py`` would run it
- one pass of each perfbench workload at seed 0, through
  ``perfbench/workloads.py`` as it stands

and then prints every function defined in ``src/saddle_escape/*.py``
(methods and nested functions included) that none of them entered.  A
function listed here is a candidate for deletion, or for a run that reaches
it.  Only Python function calls are seen; the library starts no threads.

A run that exits with another code, or raises, ends the census with a
nonzero exit that names the command, the config, the code and the run's
captured stderr; under ``python -W error`` a warning raises.  CI's Demos
step runs it that way, in a fresh directory with an empty TMPDIR of its
own.  A new CLI smoke check is one ``CLI_RUNS`` entry: the command, the
config, the exit code it must give and a comment that says why it is there.

Run from anywhere (a few seconds on 2 cores)::

    python -W error tools/census.py
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

CUBIC = {"name": "cubic", "a": 0.1}

# (command, config, the exit code it must give)
CLI_RUNS = [
    # each subcommand once on a tiny config
    ("run", {"experiment": "single_run", "init": [0.5, 0.001], "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "trials": 10, "budget": 2000}, 0),
    ("fig1", {"experiment": "fig1"}, 0),
    ("chart", {"experiment": "chart", "objective": CUBIC}, 0),
    # the steps no other run takes: prox's damped Newton (a non-quadratic
    # objective), the sphere step and a Riemannian metric
    ("avoidance", {"experiment": "avoidance", "method_id": "prox", "objective": CUBIC,
                   "trials": 10, "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "method_id": "manifold-sphere",
                   "objective": {"name": "fig1"}, "trials": 10, "budget": 2000}, 0),
    ("avoidance", {"experiment": "avoidance", "method_id": "manifold-intrinsic",
                   "metric": [[2, 0], [0, 1]], "trials": 10, "budget": 2000}, 0),
    # cubic trials escape radius 1e3 in the middle of a lockstep block, and
    # the steps past an escape overflow: the block must discard them without
    # a warning
    ("avoidance", {"experiment": "avoidance", "objective": CUBIC, "trials": 20,
                   "budget": 5000}, 0),
    # at escape radius 1e308 an escaping cubic trial's squares overflow in the
    # stop test, and its gradient overflows at the final point: both count as
    # inf, with no warning and no traceback
    ("avoidance", {"experiment": "avoidance", "objective": CUBIC, "trials": 5,
                   "budget": 3000, "escape_radius": 1e308}, 0),
    # named config errors, exit 2 with no traceback: a budget of 2^63 or more,
    # an init_box whose width overflows, a retired and an unknown config key,
    # a fig1 config with another objective, a chart option past the float
    # range, a chart grid past its bound, trials past their bound, a chart
    # point that is not critical, and a chart at a local minimum or maximum
    ("run", {"experiment": "single_run", "init": [0.5, 0.001], "budget": 1 << 63}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 2,
                   "init_box": [[-1e308, 1e308], [-1, 1]]}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 2, "grad_tol": 1e-8}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 2, "window": 10}, 2),
    ("fig1", {"experiment": "fig1", "objective": CUBIC}, 2),
    ("chart", {"experiment": "chart", "chart": {"grid_points": 9 * 10 ** 399}}, 2),
    ("chart", {"experiment": "chart", "chart": {"grid_points": 10 ** 20}}, 2),
    ("avoidance", {"experiment": "avoidance", "trials": 10 ** 20}, 2),
    ("chart", {"experiment": "chart", "objective": CUBIC,
               "chart": {"critical_point": [0.3, 0.0]}}, 2),
    ("chart", {"experiment": "chart",
               "objective": {"name": "quadratic", "matrix": [[1, 0], [0, 2]]},
               "schedule": {"kind": "power", "c": 1.0, "p": 1.0, "offset": 3}}, 2),
    ("chart", {"experiment": "chart",
               "objective": {"name": "quadratic", "matrix": [[-1, 0], [0, -2]]}}, 2),
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
        text, path = json.dumps(config), Path(f"cli-{i}.json")
        path.write_text(text, encoding="utf-8")
        run, err = f"census: saddle_escape {command} on {text}", io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = harness_cli.main([command, "--config", str(path), "--out", f"cli-out-{i}"])
        except BaseException:  # named here, above its traceback
            print(f"{run} raised; its stderr:\n{err.getvalue()}", file=sys.stderr)
            raise
        if code != want:
            raise SystemExit(f"{run} exited {code}, not {want}; its stderr:\n{err.getvalue()}")
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
