"""The benchmark's workloads: one pass of CLI commands over a fixed config.

Each workload is run closed loop, one command at a time. The noise seed is
never part of the config: the runner passes it to every command as --seed.
Why each workload exists is recorded in bench/README.md.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

# The ROADMAP reference configuration: dim 15, 6 phases x 51 bins over
# (-5, 5), even cat alpha = 2, Poisson exposure 1e5, full basis, 81 x 81
# Wigner grid. Solver controls stay at the program's defaults on purpose, so
# that a change of default stopping rule shows in the benchmark.
REFERENCE = {
    "dim": 15,
    "target": {"kind": "cat", "alpha": 2.0, "parity": "even"},
    "povm": {"kind": "homodyne", "phase_count": 6, "bins": 51, "range": [-5.0, 5.0]},
    "noise": {"kind": "poisson", "exposure": 100000.0},
    "reconstruction": {"basis": "full"},
    "wigner_grid": {"x_range": [-5.0, 5.0], "p_range": [-5.0, 5.0],
                    "x_points": 81, "p_points": 81},
}


@dataclass(frozen=True)
class Workload:
    """One pass: the commands in order, the config they share, the checks."""

    name: str
    config: dict
    commands: tuple[str, ...]
    # lowest fidelity_to_target a full-size reconstruct may report
    min_fidelity: float | None = None

    @property
    def setup_commands(self) -> tuple[str, ...]:
        """Each distinct command once, in order of first use."""
        return tuple(dict.fromkeys(self.commands))

    @property
    def setup_config(self) -> dict:
        """The config of a set-up pass: the solver capped at 2 iterations and the
        fewest trials, so that the pass costs the one-off work of each command
        and little else."""
        return _with(self.config, solver={"max_iterations": 2},
                     stability={"trials": 2}, sweep={"trials": 1})


def _with(base: dict, **sections) -> dict:
    config = copy.deepcopy(base)
    for key, value in sections.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    return config


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="reconstruct-ref",
            config=REFERENCE,
            commands=("reconstruct",),
            # over seeds 0-59 the fidelity is at least 0.9882 (seed 14), and
            # 0.9925 without seed 14, so 0.99 would fail correct code
            min_fidelity=0.98,
        ),
        Workload(
            name="subspace-study",
            config=_with(REFERENCE,
                         stability={"basis": "gram", "dimension": 3, "trials": 8},
                         sweep={"dims": [1, 2], "trials": 2, "bases": ["gram", "fock"]}),
            commands=("stability", "sweep"),
        ),
        Workload(
            name="frame-analysis-d30",
            # (-6, 6), not the reference (-5, 5): at dim 30 frames-check exits 2
            # on (-5, 5) for every seed tried (linear_inversion_round_trip
            # 8.6e-8 > 1e-8); see bench/README.md
            config=_with(REFERENCE, dim=30, povm={"range": [-6.0, 6.0]}),
            commands=("gram-spectrum", "frames-check") * 3,
        ),
    )
}

_MINIMAL = {
    "dim": 4,
    "povm": {"phase_count": 3, "bins": 13, "range": [-4.0, 4.0]},
    "noise": {"exposure": 5000.0},
    "solver": {"max_iterations": 300},
    "stability": {"dimension": 2, "trials": 2},
    "sweep": {"dims": [1, 2], "trials": 2},
    "wigner_grid": {"x_range": [-3.0, 3.0], "p_range": [-3.0, 3.0],
                    "x_points": 7, "p_points": 7},
}


def minimal(workload: Workload) -> Workload:
    """The same commands on a dim-4 measurement, for the benchmark's self-test."""
    return replace(workload, config=_with(workload.config, **_MINIMAL),
                   commands=workload.setup_commands,
                   min_fidelity=0.9 if workload.min_fidelity is not None else None)
