"""Regenerate pins.json: the circuit_mc reference numbers.

    python3 perfbench/make_pins.py

Runs every design point of circuit_mc on every input pair of its fixed pool
and records rms/max error, switching-noise rms and the delay-sweep curve.
The benchmark compares each operation against these at a 1e-12 relative
bound, so rewriting the file re-baselines the circuit checks and should
only follow an intended change of simulator behaviour.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import CircuitMc  # noqa: E402


def main():
    cases = []
    for pair in range(CircuitMc.PAIRS):
        full, small = CircuitMc.pair_inputs(pair)
        row = []
        for point in CircuitMc.POINTS:
            net, quiet = CircuitMc.netlists(point)
            _, _, stats, noise, rows = CircuitMc.run_point(net, quiet, point, full, small)
            row.append(CircuitMc.summary(stats, noise, rows))
        cases.append(row)
        print(f"pair {pair} done", file=sys.stderr)
    pins = {
        "samples": CircuitMc.N,
        "sweep_samples": CircuitMc.SWEEP_N,
        "points": [list(p) for p in CircuitMc.POINTS],
        "cases": cases,
    }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
