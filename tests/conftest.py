from __future__ import annotations

import os

import numpy as np
import pytest

from gramtomo import HomodyneConfig, PovmSet, build_homodyne_povm, cat_state, gram_spectrum

REFERENCE_DIM = 15


def host_load_line() -> str:
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"host load average (1, 5, 15 min): {load}; OPENBLAS_NUM_THREADS={threads}"


# the acceptance tests' wall-clock bounds assume an idle host: print the load
# and BLAS threads at the start and, since -q hides the header, at the end,
# so that a timing failure in a log can be read against them
def pytest_report_header(config):
    return host_load_line()


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(host_load_line())


@pytest.fixture(scope="session")
def reference_config() -> HomodyneConfig:
    return HomodyneConfig.uniform(phase_count=6, bins=51, x_range=(-5.0, 5.0))


@pytest.fixture(scope="session")
def reference_povm(reference_config) -> PovmSet:
    return build_homodyne_povm(reference_config, REFERENCE_DIM)


@pytest.fixture(scope="session")
def reference_analysis(reference_povm):
    return gram_spectrum(reference_povm)


@pytest.fixture(scope="session")
def gram_fock_povm() -> PovmSet:
    """6 phases x 9 bins on (-5, 5) at the reference dim: a measurement whose
    Gram eigenbasis is not the Fock basis (lambda_15 / lambda_1 = 0.273)."""
    config = HomodyneConfig.uniform(phase_count=6, bins=9, x_range=(-5.0, 5.0))
    return build_homodyne_povm(config, REFERENCE_DIM)


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


@pytest.fixture(scope="session")
def hermitian_basis():
    """Builder of the orthonormal Hermitian basis that to_coords and from_coords
    apply without building it: the diagonal units E_nn, then the off-diagonal
    pairs, as a (dim^2, dim, dim) array with Tr(B_a B_b) = delta_ab."""

    def build(dim: int) -> np.ndarray:
        mats = [np.diag(np.eye(dim, dtype=complex)[n]) for n in range(dim)]
        for m in range(dim):
            for n in range(m + 1, dim):
                E = np.zeros((dim, dim), dtype=complex)
                E[m, n] = 1.0
                mats.append((E + E.T) / np.sqrt(2.0))
                mats.append((1j * E - 1j * E.T) / np.sqrt(2.0))
        return np.array(mats)

    return build
