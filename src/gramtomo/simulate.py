"""Synthetic measurement data and the sweep/stability experiment harness.

Randomness comes from counter-based Philox streams: trial t of a study
seeded with s draws from Generator(Philox(SeedSequence((s, t)))). Streams
are independent by construction, so trials may run in any order or in
parallel without reordering draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError, InvalidInputError
from .fock import fidelity, pure_density
from .maxlik import (MAX_ITERATIONS, Dataset, ReconstructionResult, expected_probabilities,
                     maxlik_solve)
from .povm import PovmSet, subspace_basis

NOISE_KINDS = ("exact", "multinomial", "poisson")


@dataclass(frozen=True)
class NoiseModel:
    """Counting statistics for synthetic data.

    exposure is the expected TOTAL count over all outcomes (multinomial:
    exact total; poisson: mean total; exact: multiplier on the raw
    outcome probabilities). A stochastic exposure is at most 1e18, since
    numpy draws no Poisson mean or multinomial total above about 9.2e18.
    """

    kind: str = "poisson"
    exposure: float = 100000.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidInputError(f"noise kind must be one of {NOISE_KINDS}")
        if self.kind != "exact" and not 0 < self.exposure <= 1e18:
            raise InvalidInputError("exposure must lie in (0, 1e18] for stochastic noise")
        if not math.isfinite(self.exposure):
            raise InvalidInputError("exposure must be finite")
        if self.seed < 0:
            raise InvalidInputError("noise seed must be non-negative")


@dataclass(frozen=True)
class SweepResult:
    """Fidelity-versus-dimension sweep for one basis kind.

    results[k][t] is the reconstruction at dims[k] from trial t's dataset,
    and fidelities[k, t] its fidelity to the target.
    """

    basis: str
    dims: tuple[int, ...]
    trials: int
    fidelities: np.ndarray
    results: tuple[tuple[ReconstructionResult, ...], ...]
    trial_seeds: tuple[tuple[int, int], ...]

    @property
    def converged(self) -> np.ndarray:
        return np.array([[r.converged for r in row] for row in self.results], dtype=bool)

    @property
    def mean(self) -> np.ndarray:
        return self.fidelities.mean(axis=1)

    @property
    def minimum(self) -> np.ndarray:
        return self.fidelities.min(axis=1)

    @property
    def maximum(self) -> np.ndarray:
        return self.fidelities.max(axis=1)

    @property
    def std(self) -> np.ndarray:
        return self.fidelities.std(axis=1)


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """The Philox stream owned by one trial index."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial))))


def generate_counts(rho_true: np.ndarray, povm: PovmSet, noise: NoiseModel,
                    trial: int = 0) -> Dataset:
    """Synthesize one dataset under the given noise model.

    exact: real-valued pseudo-counts exposure * p_i; multinomial: one draw
    of size exposure over the normalized probabilities; poisson:
    independent Poisson(exposure * p_i / sum p). Deterministic given
    (seed, trial).
    """
    p = expected_probabilities(rho_true, povm)
    total = p.sum()
    if total <= 0:
        raise EmptyDataError("state assigns zero probability to every outcome")
    if noise.kind == "exact":
        counts = noise.exposure * p
    elif noise.kind == "multinomial":
        rng = trial_generator(noise.seed, trial)
        counts = rng.multinomial(int(round(noise.exposure)), p / total).astype(float)
    else:
        rng = trial_generator(noise.seed, trial)
        counts = rng.poisson(noise.exposure * p / total).astype(float)
    return Dataset(counts=counts)


def dimension_sweep(target: np.ndarray, povm: PovmSet, basis_kind: str,
                    dims: list[int] | tuple[int, ...], noise: NoiseModel, trials: int, *,
                    max_iterations: int = MAX_ITERATIONS) -> SweepResult:
    """Reconstruction fidelity versus subspace dimension.

    Dimension d reconstructs on the first d of the top max(dims) Gram modes
    (basis_kind='gram') or Fock states ('fock'), one basis for all d, so the
    subspaces nest. Trials differ only in the noise stream; the same
    per-trial dataset is reused across dimensions. Every solve is kept in
    results; a non-converged one reads converged=False, never raised.
    Every solve stops after at most max_iterations.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0 or min(dims) < 1 or max(dims) > povm.dim:
        raise InvalidInputError("dims must be within the ambient dimension")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rho_true = pure_density(target)
    datasets = [generate_counts(rho_true, povm, noise, trial=t) for t in range(trials)]
    columns = subspace_basis(basis_kind, max(dims), povm)
    results = [tuple(maxlik_solve(dataset, povm, columns[:, :d], max_iterations=max_iterations)
                     for dataset in datasets) for d in dims]
    fidelities = np.array([[fidelity(target, r.rho) for r in row] for row in results])
    seeds = tuple((noise.seed, t) for t in range(trials))
    return SweepResult(basis=basis_kind, dims=dims, trials=trials, fidelities=fidelities,
                       results=tuple(results), trial_seeds=seeds)


def stability_study(target: np.ndarray, povm: PovmSet, basis_kind: str, d: int,
                    noise: NoiseModel, trials: int, *,
                    max_iterations: int = MAX_ITERATIONS) -> SweepResult:
    """Repeated reconstructions at fixed dimension: the one-row sweep over [d].

    The instability metric is the standard deviation of fidelity across
    trials, std[0]; results[0] holds the reconstructions.
    """
    if trials < 2:
        raise InvalidInputError("stability study needs at least 2 trials")
    return dimension_sweep(target, povm, basis_kind, [d], noise, trials,
                           max_iterations=max_iterations)
