"""Race three step-size schedules away from the saddle of x^2 - y^2.

All three start at (0.5, 0.5).  The origin is a strict saddle, so gradient
descent must eventually leave along the y-axis -- unless the schedule decays
so fast that the iterate freezes in place first.

Run:  python3 demos/race_to_escape.py [output_dir]
(without output_dir the CSVs go to a temporary directory that is removed
on exit)
"""

import sys
import tempfile

from saddle_escape import ExperimentConfig, fig1_experiment


def race(out: str) -> None:
    cfg = ExperimentConfig.from_dict({"experiment": "fig1", "output_dir": out})
    records = fig1_experiment(cfg)

    print(f"start (0.5, 0.5), escape ball radius {cfg.escape_radius:g}")
    print()
    for label in ("sqrt", "harmonic", "quartic"):
        rec = records[label]
        kind = rec.terminal.kind
        x = rec.points[-1]
        print(f"  {label:>9}: {kind:<18} k_final={rec.k_final:>6}  "
              f"final=({x[0]:+.3e}, {x[1]:+.3e})  |grad|={rec.grad_norms[-1]:.3e}")

    print()
    print("1/sqrt(k) pumps the unstable coordinate hardest and leaves first;")
    print("1/k still gets out (the step products diverge like a power of k);")
    print("1/k^4 is summable, so the trajectory stalls at a point that is not")
    print("even critical -- the gradient there is still order one.")


if len(sys.argv) > 1:
    race(sys.argv[1])
    print(f"per-step trajectories written to {sys.argv[1]}/fig1_*.csv")
else:
    with tempfile.TemporaryDirectory(prefix="race_to_escape-") as tmp:
        race(tmp)
