"""Check that the benchmark's gates can fail: a wrong expectation must be caught.

    python3 perfbench/selfcheck.py

Runs the avoid-fig1 workload (seed 0, shortest run) expecting 99 on-axis
saddle hits per method instead of 100.  The benchmark must then report a
non-zero failed count, ``correct: false``, and exit with a non-zero code.
Exits 0 when it does, 1 otherwise.
"""

import contextlib
import io
import json
import sys

import run


def main() -> int:
    run._prepare_environment()
    run._import_library()
    import workloads

    table = dict(workloads.WORKLOADS, **{"avoid-fig1": workloads.AvoidFig1(axis_hits=99)})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "avoid-fig1", "--seed", "0", "--seconds", "1",
                         "--trace", "0"], workload_table=table)
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    ratio = result["failed"] / result["attempted"]
    ok = code != 0 and result["failed"] > 0 and result["correct"] is False
    print(f"wrong expectation (on-axis saddle_hits == 99): exit code {code}, "
          f"failed {result['failed']}/{result['attempted']} = {ratio:.6g}, "
          f"correct {result['correct']} -> {'caught' if ok else 'NOT caught'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
