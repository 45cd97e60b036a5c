"""Byte-identity gate: run the five gate configs and print a sha256 per output file.

`python tools/gate.py OUT [--src SRC]` runs the CLI with PYTHONPATH=SRC (default
src/), one BLAS thread and --seed 0 into OUT/<case>/<command>/ and prints
"<sha256>  <path>" for the 40 files. Outputs echo their directory: to compare
two source trees, run both into the same OUT in turn and diff the printed lines.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ALL = ("gram-spectrum", "reconstruct", "sweep", "stability", "frames-check")
CASES = {
    # the determinism (criterion 10) config
    "small": ({"dim": 4, "target": {"kind": "cat", "alpha": 1.2, "parity": "even"},
               "povm": {"phase_count": 3, "bins": 13, "range": [-4.0, 4.0]},
               "noise": {"exposure": 5000.0}, "solver": {"max_iterations": 300},
               "sweep": {"dims": [1, 2], "trials": 2, "bases": ["gram", "fock"]},
               "stability": {"basis": "gram", "dimension": 2, "trials": 2},
               "wigner_grid": {"x_range": [-3.0, 3.0], "p_range": [-3.0, 3.0],
                               "x_points": 7, "p_points": 7}}, ALL),
    "reference": ({"stability": {"basis": "gram", "dimension": 3, "trials": 8},
                   "sweep": {"dims": [1, 2], "trials": 2, "bases": ["gram", "fock"]}}, ALL),
    "reference-gram5": ({"reconstruction": {"basis": "gram", "dimension": 5}}, ("reconstruct",)),
    "reference-exact": ({"noise": {"kind": "exact", "exposure": 1.0},
                         "solver": {"max_iterations": 3000}}, ("reconstruct",)),
    "dim30": ({"dim": 30, "povm": {"range": [-6.0, 6.0]}}, ("gram-spectrum", "frames-check")),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=Path(__file__).parent.parent / "src")
    args = parser.parse_args()
    out, failed = args.out.resolve(), 0
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), OPENBLAS_NUM_THREADS="1")
    for case, (config, commands) in CASES.items():
        config_path = out / case / "config.json"
        config_path.parent.mkdir(parents=True, exist_ok=True)
        config_path.write_text(json.dumps(config))
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "gramtomo.cli", command, "--config", str(config_path),
                 "--out", str(out / case / command), "--seed", "0"],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                failed += 1
                print(f"exit {proc.returncode}  {case}/{command}")
            for path in sorted((out / case / command).glob("*")):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
