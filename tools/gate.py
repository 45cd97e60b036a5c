"""Byte-identity gate: run the eighteen gate configs and print a sha256 per output file.

`python tools/gate.py OUT [--src SRC]` runs the CLI with PYTHONPATH=SRC (default
src/), one BLAS thread and --seed 0 from OUT, with --out <case>/<command>, and
prints "<sha256>  <path>" for the 96 files. A case whose config names a
counts_file reads tools/gate-counts.csv, and one whose POVM names a file reads
tools/gate-povm.json (SMALL's POVM as encode_povm writes it), each copied to
that path under OUT. Each output echoes its relative directory, so the listing
does not depend on OUT: to compare two source trees by hash, run them into two
directories and diff the printed lines.

`python tools/gate.py --compare BEFORE AFTER` reads two such output trees and
prints, for each file that differs, the largest absolute deviation over its
numbers, ignoring the config echo, and that deviation relative to the largest
|value| of the CSV columns or top-level JSON members in which numbers differ
(an index column that agrees does not set the scale), so that rounding reads
as about 1e-16 whatever the file's scale; it exits 1 when any file differs or
exists on one side only, 0 when all agree. A file that differs in its config
echo alone is listed as "config echo only" and does not change the exit status:
since the echo names no tree, that is a change of config. For reconstruction.json
it also prints the largest deviation of the density matrix alone, since a change
of iterations or of the length of the log_likelihood trace dominates the
overall one, and the iterations, newton_steps and stop_reason on both sides.
Non-numeric cells that differ are counted. Equal numbers can still be written
differently (1e-07 and 1e-7): a file whose text outside the config echo
differs at zero numeric deviation differs too, and its differing lines are
counted.
"""

import argparse
import hashlib
import json
import json.decoder
import os
import shutil
import subprocess
import sys
from pathlib import Path

COUNTS = Path(__file__).with_name("gate-counts.csv")
POVM = Path(__file__).with_name("gate-povm.json")
ALL = ("gram-spectrum", "reconstruct", "sweep", "stability", "frames-check")
# the determinism (criterion 10) config
SMALL = {"dim": 4, "target": {"kind": "cat", "alpha": 1.2, "parity": "even"},
         "povm": {"phase_count": 3, "bins": 13, "range": [-4.0, 4.0]},
         "noise": {"exposure": 5000.0}, "solver": {"max_iterations": 300},
         "sweep": {"dims": [1, 2], "trials": 2, "bases": ["gram", "fock"]},
         "stability": {"basis": "gram", "dimension": 2, "trials": 2},
         "wigner_grid": {"x_range": [-3.0, 3.0], "p_range": [-3.0, 3.0],
                         "x_points": 7, "p_points": 7}}
CASES = {
    "small": (SMALL, ALL),
    "small-json": ({**SMALL, "output": {"format": "json"}}, ALL),
    "reference": ({"stability": {"basis": "gram", "dimension": 3, "trials": 8},
                   "sweep": {"dims": [1, 2], "trials": 2, "bases": ["gram", "fock"]}}, ALL),
    "reference-gram5": ({"reconstruction": {"basis": "gram", "dimension": 5}}, ("reconstruct",)),
    # dims out of order: each is a prefix of the one top-6 basis
    "sweep-unordered": ({"sweep": {"dims": [6, 2, 4], "trials": 2, "bases": ["gram", "fock"]}},
                        ("sweep",)),
    "reference-exact": ({"noise": {"kind": "exact", "exposure": 1.0},
                         "solver": {"max_iterations": 3000}}, ("reconstruct",)),
    "dim30": ({"dim": 30, "povm": {"range": [-6.0, 6.0]}}, ("gram-spectrum", "frames-check")),
    # non-uniform phases on an asymmetric range: the operator frame is one block
    "explicit-phases": ({"povm": {"phases": [0.0, 0.4, 0.9, 1.5, 2.2, 2.8], "range": [-5.0, 5.5]}},
                        ("gram-spectrum", "frames-check")),
    # 16 + 1 coherence-order classes of a 1616 x 2500 coefficient matrix
    "dim50": ({"dim": 50, "povm": {"phase_count": 16, "bins": 101, "range": [-8.0, 8.0]}},
              ("gram-spectrum", "frames-check")),
    # an ill-conditioned measurement at d = 3, where the Newton polish starts
    # early and far from the optimum
    "ill-gram3": ({"povm": {"phase_count": 2, "bins": 51, "range": [-2.0, 2.0]},
                   "noise": {"exposure": 1000.0},
                   "reconstruction": {"basis": "gram", "dimension": 3},
                   "stability": {"basis": "gram", "dimension": 3, "trials": 8}},
                  ("stability", "reconstruct")),
    # the same measurement at d = 12, where the Cholesky test of a Newton
    # direction fails and the eigensolve of the reduced Hessian gives it
    # (newton_fallbacks > 0)
    "ill-gram12": ({"povm": {"phase_count": 2, "bins": 51, "range": [-2.0, 2.0]},
                    "noise": {"exposure": 100000.0},
                    "reconstruction": {"basis": "gram", "dimension": 12}},
                   ("reconstruct",)),
    # one phase: the likelihood is flat along most directions, and almost
    # every Newton direction takes the eigensolve of the reduced Hessian
    "one-phase-gram9": ({"povm": {"phase_count": 1, "bins": 51, "range": [-2.0, 2.0]},
                         "noise": {"exposure": 1000.0},
                         "reconstruction": {"basis": "gram", "dimension": 9}},
                        ("reconstruct",)),
    # a Fock d = 1 truncation that calls an observed outcome impossible: the
    # one case whose solve engages the probability floor (it stops on the cap)
    "floored": ({"dim": 2, "target": {"kind": "coherent", "alpha": 0.5},
                 "povm": {"kind": "projective"}, "noise": {"exposure": 1000.0},
                 "solver": {"max_iterations": 50},
                 "reconstruction": {"basis": "fock", "dimension": 1},
                 "wigner_grid": {"x_points": 7, "p_points": 7}},
                ("reconstruct",)),
    # the target forms besides a real cat alpha: a Fock state, and an odd cat
    # whose alpha is given as [re, im]
    "fock-target": ({"target": {"kind": "fock", "n": 3}}, ("reconstruct",)),
    "complex-alpha": ({"target": {"kind": "cat", "parity": "odd", "alpha": [1.0, 1.5]}},
                      ("reconstruct",)),
    # measured counts in place of simulated ones, on the 39 outcomes of SMALL,
    # with SMALL's target and with none, where no fidelity is written
    "counts-file": ({**SMALL, "counts_file": "counts-file/counts.csv"}, ("reconstruct",)),
    "counts-file-no-target": ({**{key: value for key, value in SMALL.items() if key != "target"},
                               "counts_file": "counts-file-no-target/counts.csv"},
                              ("reconstruct",)),
    # SMALL's POVM read from a file: the codec, and the one-block operator
    # frame on homodyne effects, since a file records no homodyne layout
    "povm-file": ({**SMALL, "povm": {"file": "povm-file/povm.json"}},
                  ("gram-spectrum", "frames-check", "reconstruct")),
}


def _leaves(obj, path=()):
    """(path, value) for every scalar of a JSON document but its config echo."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            if path or key != "config":
                yield from _leaves(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _cells(text: str):
    """((column, row), value) for every CSV cell but the config comment line:
    key[0] names a cell's column as _leaves's names a value's top-level member."""
    rows = [line for line in text.splitlines() if not line.startswith("# config:")]
    for r, line in enumerate(rows):
        for c, cell in enumerate(line.split(",")):
            try:
                yield (c, r), float(cell)
            except ValueError:
                yield (c, r), cell


def _without_echo(text: str) -> str:
    """A JSON document's text with the value of its top-level "config" member
    cut out, whatever its layout."""
    decoder, space = json.JSONDecoder(), json.decoder.WHITESPACE
    i = space.match(text, text.index("{") + 1).end()
    while text[i] != "}":
        key, i = decoder.raw_decode(text, i)
        start = space.match(text, space.match(text, i).end() + 1).end()
        _, i = decoder.raw_decode(text, start)
        if key == "config":
            return text[:start] + text[i:]
        i = space.match(text, i).end()
        i = space.match(text, i + (text[i] == ",")).end()
    return text


def _body(path: Path) -> list[str]:
    """The lines of an output file but its config echo."""
    text = path.read_text()
    if path.suffix == ".json":
        return _without_echo(text).splitlines()
    return [line for line in text.splitlines() if not line.startswith("# config:")]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe_difference(before: Path, after: Path) -> str | None:
    """Largest numeric deviation between two versions of one output file, or
    None when they agree apart from the config echo, byte for byte."""
    if before.suffix == ".json":
        a, b = json.loads(before.read_text()), json.loads(after.read_text())
        items_a, items_b = dict(_leaves(a)), dict(_leaves(b))
    else:
        items_a, items_b = dict(_cells(before.read_text())), dict(_cells(after.read_text()))
    if items_a == items_b:
        lines_a, lines_b = _body(before), _body(after)
        if lines_a == lines_b:
            return None
        changed = sum(x != y for x, y in zip(lines_a, lines_b)) + abs(len(lines_a) - len(lines_b))
        return f"max |dev| 0, {changed} lines differ in bytes"
    # the largest |value| of each column or top-level member, over both sides
    scale = {}
    for key, value in [*items_a.items(), *items_b.items()]:
        if _is_number(value):
            scale[key[0]] = max(scale.get(key[0], 0.0), abs(value))
    dev, rho_dev, other, moved = 0.0, 0.0, 0, set()
    for key in items_a.keys() & items_b.keys():
        x, y = items_a[key], items_b[key]
        if _is_number(x) and _is_number(y):
            dev = max(dev, abs(x - y))
            if x != y:
                moved.add(key[0])
            if key[0] == "density_matrix":
                rho_dev = max(rho_dev, abs(x - y))
        elif x != y:
            other += 1
    text = f"max |dev| {dev:.2g}"
    if moved:
        text += f", {dev / max(scale[group] for group in moved):.2g} relative"
    if other:
        text += f", {other} non-numeric differ"
    for side, extra in (("before", items_a.keys() - items_b.keys()),
                        ("after", items_b.keys() - items_a.keys())):
        if extra:
            text += f", {len(extra)} values only {side}"
    if before.name == "reconstruction.json":
        text += f", density_matrix max |dev| {rho_dev:.2g}"
        text += "".join(f", {key} {a.get(key)} -> {b.get(key)}"
                        for key in ("iterations", "newton_steps", "stop_reason"))
    return text


def compare(before: Path, after: Path) -> int:
    """Print each differing output file with its largest deviation, and each
    file whose config echo alone differs; 1 if any file differs apart from its
    config echo or exists on one side only."""
    paths = sorted({p.relative_to(root) for root in (before, after)
                    for p in root.glob("*/*/*") if p.is_file()})
    differing = missing = echoes = 0
    for rel in paths:
        a, b = before / rel, after / rel
        if not (a.is_file() and b.is_file()):
            missing += 1
            print(f"{rel}  only in {before if a.is_file() else after}")
        elif (text := describe_difference(a, b)) is not None:
            differing += 1
            print(f"{rel}  {text}")
        elif a.read_bytes() != b.read_bytes():
            echoes += 1
            print(f"{rel}  config echo only")
    print(f"{differing} of {len(paths)} files differ, {missing} on one side only, "
          f"{echoes} in the config echo alone")
    return 1 if differing or missing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("--src", type=Path, default=Path(__file__).parent.parent / "src")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT, or --compare BEFORE AFTER")
    out, failed = args.out.resolve(), 0
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), OPENBLAS_NUM_THREADS="1")
    for case, (config, commands) in CASES.items():
        (out / case).mkdir(parents=True, exist_ok=True)
        (out / case / "config.json").write_text(json.dumps(config))
        if "counts_file" in config:
            shutil.copyfile(COUNTS, out / config["counts_file"])
        if "file" in config.get("povm", {}):
            shutil.copyfile(POVM, out / config["povm"]["file"])
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "gramtomo.cli", command, "--config",
                 f"{case}/config.json", "--out", f"{case}/{command}", "--seed", "0"],
                cwd=out, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                failed += 1
                print(f"exit {proc.returncode}  {case}/{command}")
            for path in sorted((out / case / command).glob("*")):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
