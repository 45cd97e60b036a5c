from __future__ import annotations

import re

import numpy as np
import pytest

from gramtomo import (Dataset, HomodyneConfig, InvalidInputError, NoiseModel,
                      NumericalConsistencyError, PovmSet, born_residual, build_homodyne_povm,
                      coherent_state, dimension_sweep, effective_rank, extremal_residual,
                      fock_state, log_likelihood, operator_frame_apply, restrict_to_subspace,
                      wigner_points)
from gramtomo.cli import load_counts_file
from gramtomo.fock import _real_part
from gramtomo.povm import GramValues

# one effect |0><0| in dimension 2, and a state that it never sees
BLIND = PovmSet(np.array([[1.0, 0.0]], dtype=complex))
EXCITED = np.diag([0.0, 1.0]).astype(complex)
TWO_BINS = build_homodyne_povm(HomodyneConfig.uniform(phase_count=1, bins=2), 2)


def short_row(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("0,0\n0,1,5\n")
    return load_counts_file(str(path), TWO_BINS)


@pytest.mark.parametrize("call, error, message", [
    (lambda _: HomodyneConfig((), 3, (-1.0, 1.0)), InvalidInputError,
     "at least one phase is required"),
    (lambda _: HomodyneConfig((0.0, float("nan")), 3, (-1.0, 1.0)), InvalidInputError,
     "phases must be finite"),
    (lambda _: HomodyneConfig((0.0,), 3, (-1.0, 0.0, 1.0)), InvalidInputError,
     "quadrature range must be a finite increasing interval"),
    (lambda _: HomodyneConfig.uniform(0), InvalidInputError, "phase count must be >= 1"),
    (lambda _: effective_rank(GramValues(np.zeros(0), 0, 0.0)), InvalidInputError,
     "empty spectrum"),
    (lambda _: coherent_state(1.0, dim=0), InvalidInputError, "dim must be >= 1"),
    (lambda _: wigner_points(np.zeros((2, 3)), 0.0, 0.0), InvalidInputError,
     "density operator must be square"),
    (lambda _: _real_part(np.array([1.0 + 2e-8j])), NumericalConsistencyError,
     "Wigner imaginary residue 2.000e-08 exceeds 1e-8"),
    (lambda _: log_likelihood(EXCITED, Dataset(np.ones(2)), BLIND), InvalidInputError,
     "dataset length does not match POVM outcome count"),
    (lambda _: log_likelihood(EXCITED, Dataset(np.ones(1)), BLIND), InvalidInputError,
     "state assigns zero probability to every outcome"),
    (lambda _: restrict_to_subspace(BLIND, np.eye(3)[:, :1]), InvalidInputError,
     "basis must be (ambient dim, d)"),
    (lambda _: restrict_to_subspace(BLIND, np.zeros((2, 0))), InvalidInputError,
     "basis must be (ambient dim, d)"),
    (lambda _: born_residual(np.zeros((2, 2)), Dataset(np.ones(1)), BLIND),
     InvalidInputError, "state assigns zero probability to every outcome"),
    (lambda _: extremal_residual(np.zeros((2, 2)), Dataset(np.ones(1)), BLIND),
     InvalidInputError, "state assigns zero probability to every outcome"),
    (lambda _: operator_frame_apply(np.eye(3), BLIND), InvalidInputError,
     "operator dimension does not match the POVM"),
    (lambda _: dimension_sweep(fock_state(0, 2), TWO_BINS, "fock", [1],
                               NoiseModel(kind="exact"), trials=0),
     InvalidInputError, "trials must be >= 1"),
    (short_row, InvalidInputError, "count file row '0,0' is not phase,bin,count"),
], ids=["homodyne-no-phases", "homodyne-nan-phase", "homodyne-range-not-pair",
        "uniform-zero-phases", "empty-spectrum", "coherent-dim-0", "wigner-non-square",
        "wigner-imaginary-residue", "log-likelihood-length", "log-likelihood-all-zero",
        "subspace-basis-shape", "subspace-no-columns", "born-residual-zero-state",
        "extremal-residual-zero-state", "frame-apply-dimension", "sweep-zero-trials",
        "counts-two-cells"])
def test_refusal(call, error, message, tmp_path):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
