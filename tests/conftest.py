from __future__ import annotations

import numpy as np
import pytest

from gramtomo import (HomodyneConfig, PovmSet, build_homodyne_povm, cat_state,
                      gram_operator, gram_spectrum)

REFERENCE_DIM = 15


@pytest.fixture(scope="session")
def reference_config() -> HomodyneConfig:
    return HomodyneConfig.uniform(phase_count=6, bins=51, x_range=(-5.0, 5.0))


@pytest.fixture(scope="session")
def reference_povm(reference_config) -> PovmSet:
    return build_homodyne_povm(reference_config, REFERENCE_DIM)


@pytest.fixture(scope="session")
def reference_analysis(reference_povm):
    return gram_spectrum(gram_operator(reference_povm))


@pytest.fixture(scope="session")
def cat_target() -> np.ndarray:
    return cat_state(2.0, "even", REFERENCE_DIM)


@pytest.fixture
def make_random_povm():
    """Factory for random rank-1 POVMs with complex Gaussian effect vectors."""

    def make(rng: np.random.Generator, dim: int, n_outcomes: int) -> PovmSet:
        v = rng.normal(size=(n_outcomes, dim)) + 1j * rng.normal(size=(n_outcomes, dim))
        return PovmSet(v / np.sqrt(2.0 * dim))

    return make
