"""Output checks for one CLI command, and the failure tally behind failed_frac.

A check never raises: every problem it finds is returned as a string, and
the runner counts a command as failed when its list is not empty.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# rho checks; the solver symmetrizes and normalizes, so rounding is all
# that may remain
RHO_TOL = 1e-9
# the solver accepts a step when ll_cand >= ll - 1e-12
LL_TOL = 1e-12


class Tally:
    """Commands attempted and failed, with the first problems for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])

    def merge(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def digest(outdir: Path) -> str:
    """sha256 over every file name and its bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(outdir).rglob("*") if p.is_file()):
        h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv_column(path: Path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    return [float(row[column]) for row in csv.DictReader(rows)]


def _check_rho(payload: dict) -> list[str]:
    problems = []
    rho = np.array([[complex(re, im) for re, im in row]
                    for row in payload["density_matrix"]])
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > RHO_TOL:
        problems.append(f"rho not Hermitian (max |rho - rho^H| = {herm:.3e})")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < -RHO_TOL:
        problems.append(f"rho not PSD (smallest eigenvalue {low:.3e})")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > RHO_TOL:
        problems.append(f"rho trace {trace:.12g} is not 1")
    ll = np.asarray(payload["log_likelihood"], dtype=float)
    if ll.size and float(np.diff(ll).min(initial=0.0)) < -LL_TOL:
        problems.append("log-likelihood trace decreases")
    return problems


def _check_fidelities(values: list[float]) -> list[str]:
    if not values:
        return ["no fidelities written"]
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return ["fidelity outside [0, 1]"]
    return []


def check_command(command: str, outdir: Path, exit_code, min_fidelity: float | None
                  ) -> tuple[list[str], list[float]]:
    """Problems with one command's outputs, and the fidelities it reported."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], []
    outdir = Path(outdir)
    fidelities: list[float] = []
    try:
        if command == "reconstruct":
            payload = json.loads((outdir / "reconstruction.json").read_text())
            problems = _check_rho(payload)
            fidelities = [float(payload["fidelity_to_target"])]
            problems += _check_fidelities(fidelities)
            if min_fidelity is not None and fidelities[0] < min_fidelity:
                problems.append(f"fidelity {fidelities[0]:.6f} < {min_fidelity}")
        elif command == "stability":
            fidelities = _csv_column(outdir / "stability.csv", "fidelity")
            summary = json.loads((outdir / "stability_summary.json").read_text())
            problems = _check_fidelities(fidelities)
            grids = list(outdir.glob("wigner_trial_*.csv"))
            if len(grids) != summary["trials"] or len(fidelities) != summary["trials"]:
                problems.append("stability outputs do not match the trial count")
        elif command == "sweep":
            summary = json.loads((outdir / "sweep_summary.json").read_text())
            for basis in summary["bases"]:
                fidelities += _csv_column(outdir / f"sweep_{basis}.csv", "fidelity")
            problems = _check_fidelities(fidelities)
        elif command == "gram-spectrum":
            values = np.array(_csv_column(outdir / "g_spectrum.csv", "value"))
            json.loads((outdir / "rank_report.json").read_text())
            problems = []
            if values.size == 0 or values.min() < 0 or np.any(np.diff(values) > 0):
                problems.append("G spectrum is not non-negative and descending")
        elif command == "frames-check":
            report = json.loads((outdir / "frames_report.json").read_text())
            problems = [] if report["all_pass"] is True else ["frames_report all_pass"]
        else:
            problems = [f"no check for command {command!r}"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems, fidelities
