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
def cat_target() -> np.ndarray:
    return cat_state(2.0, "even", REFERENCE_DIM)


@pytest.fixture
def make_random_povm():
    """Factory for random rank-1 POVMs with complex Gaussian effect vectors."""

    def make(rng: np.random.Generator, dim: int, n_outcomes: int) -> PovmSet:
        v = rng.normal(size=(n_outcomes, dim)) + 1j * rng.normal(size=(n_outcomes, dim))
        return PovmSet(v / np.sqrt(2.0 * dim))

    return make
