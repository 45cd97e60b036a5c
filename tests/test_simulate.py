from __future__ import annotations

import numpy as np
import pytest

from gramtomo import (EmptyDataError, HomodyneConfig, InvalidInputError, NoiseModel,
                      ReconstructionResult, SweepResult, build_homodyne_povm,
                      cat_state, dimension_sweep, expected_probabilities, fidelity,
                      fock_state, generate_counts, maxlik_solve, pure_density,
                      stability_study, subspace_basis, trial_generator)
from gramtomo import maxlik, simulate


@pytest.fixture(scope="module")
def small_problem():
    conf = HomodyneConfig.uniform(phase_count=4, bins=21, x_range=(-4.0, 4.0))
    povm = build_homodyne_povm(conf, 6)
    psi = cat_state(1.2, "even", 6)
    return povm, psi, pure_density(psi)


class TestTrialGenerator:
    def test_deterministic(self):
        a = trial_generator(3, 5).integers(0, 1 << 30, size=8)
        b = trial_generator(3, 5).integers(0, 1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_trials_independent(self):
        a = trial_generator(3, 0).integers(0, 1 << 30, size=8)
        b = trial_generator(3, 1).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)


class TestGenerateCounts:
    def test_exact_counts_reproduce_probabilities(self, small_problem):
        povm, _, rho = small_problem
        p = expected_probabilities(rho, povm)
        ds = generate_counts(rho, povm, NoiseModel(kind="exact", exposure=500.0))
        assert np.abs(ds.counts - 500.0 * p).max() < 1e-12
        assert np.abs(ds.frequencies - p / p.sum()).max() < 1e-14

    def test_poisson_deterministic_per_trial(self, small_problem):
        povm, _, rho = small_problem
        noise = NoiseModel(kind="poisson", exposure=10000.0, seed=11)
        a = generate_counts(rho, povm, noise, trial=2)
        b = generate_counts(rho, povm, noise, trial=2)
        c = generate_counts(rho, povm, noise, trial=3)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_multinomial_total_is_exposure(self, small_problem):
        povm, _, rho = small_problem
        for trial in range(4):
            ds = generate_counts(rho, povm,
                                 NoiseModel(kind="multinomial", exposure=5000.0),
                                 trial=trial)
            assert ds.counts.sum() == pytest.approx(5000.0, abs=0)

    def test_poisson_total_near_exposure(self, small_problem):
        povm, _, rho = small_problem
        exposure = 20000.0
        totals = np.array([
            generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=exposure),
                            trial=t).counts.sum()
            for t in range(100)
        ])
        # total is Poisson(exposure): the mean of 100 draws sits within
        # 5 sigma / sqrt(100) of the exposure
        assert abs(totals.mean() - exposure) < 5 * np.sqrt(exposure) / 10.0

    def test_poisson_frequencies_track_probabilities(self, reference_povm, cat_target):
        rho = pure_density(cat_target)
        p = expected_probabilities(rho, reference_povm)
        q = p / p.sum()
        ds = generate_counts(rho, reference_povm,
                             NoiseModel(kind="poisson", exposure=1e6, seed=0))
        n = ds.counts.sum()
        sigma = np.sqrt(np.maximum(q, 1e-12) / n)
        fraction_within = np.mean(np.abs(ds.frequencies - q) <= 5 * sigma)
        assert fraction_within >= 0.99

    def test_zero_state_rejected(self, small_problem):
        povm, _, _ = small_problem
        with pytest.raises(EmptyDataError):
            generate_counts(np.zeros((6, 6), dtype=complex), povm,
                            NoiseModel(kind="exact"))

    def test_unknown_kind_rejected(self, small_problem):
        povm, _, rho = small_problem
        with pytest.raises(InvalidInputError):
            generate_counts(rho, povm, NoiseModel(kind="bootstrap"))

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(seed=-1)

    @pytest.mark.parametrize("kind", ["exact", "multinomial", "poisson"])
    @pytest.mark.parametrize("exposure", [np.nan, np.inf, -np.inf])
    def test_non_finite_exposure_rejected(self, kind, exposure):
        with pytest.raises(InvalidInputError):
            NoiseModel(kind=kind, exposure=exposure)

    @pytest.mark.parametrize("kind", ["multinomial", "poisson"])
    def test_exposure_numpy_can_draw(self, kind, small_problem):
        # numpy draws no Poisson mean or multinomial total above about 9.2e18
        povm, _, rho = small_problem
        ds = generate_counts(rho, povm, NoiseModel(kind=kind, exposure=1e18))
        assert ds.counts.sum() == pytest.approx(1e18, rel=1e-6)
        for exposure in (1.0000001e18, 1e20, 1e30):
            with pytest.raises(InvalidInputError, match="1e18"):
                NoiseModel(kind=kind, exposure=exposure)
        assert NoiseModel(kind="exact", exposure=1e30).exposure == 1e30


class TestDimensionSweep:
    def test_gram_full_dimension_exact_noise(self, small_problem):
        povm, psi, _ = small_problem
        result = dimension_sweep(psi, povm, "gram", dims=[6],
                                 noise=NoiseModel(kind="exact", exposure=1e5),
                                 trials=1)
        assert isinstance(result, SweepResult)
        assert result.fidelities[0, 0] >= 1 - 1e-4

    def test_fock_dimension_one_matches_vacuum_weight(self, small_problem):
        povm, psi, _ = small_problem
        result = dimension_sweep(psi, povm, "fock", dims=[1],
                                 noise=NoiseModel(kind="exact", exposure=1e5),
                                 trials=1,
                                 max_iterations=2000)
        # a 1-dim Fock subspace pins rho = |0><0|, so fidelity is |c_0|^2
        assert result.fidelities[0, 0] == pytest.approx(abs(psi[0]) ** 2, abs=1e-6)

    def test_monotone_in_dimension_for_exact_noise(self, small_problem):
        povm, psi, _ = small_problem
        result = dimension_sweep(psi, povm, "gram", dims=[2, 4, 6],
                                 noise=NoiseModel(kind="exact", exposure=1e5),
                                 trials=1,
                                 max_iterations=4000)
        fids = result.fidelities[:, 0]
        assert fids[1] >= fids[0] - 1e-8
        assert fids[2] >= fids[1] - 1e-8

    def test_reproducible_bitwise(self, small_problem):
        povm, psi, _ = small_problem
        kwargs = dict(dims=[2, 3], trials=2,
                      noise=NoiseModel(kind="poisson", exposure=2e4, seed=4),
                      max_iterations=500)
        for basis in ("gram", "fock"):
            a = dimension_sweep(psi, povm, basis, **kwargs)
            b = dimension_sweep(psi, povm, basis, **kwargs)
            assert np.array_equal(a.fidelities, b.fidelities)
            assert a.trial_seeds == b.trial_seeds

    def test_summaries(self, small_problem):
        povm, psi, _ = small_problem
        sw = dimension_sweep(psi, povm, "gram", dims=[3],
                             noise=NoiseModel(kind="poisson", exposure=2e4, seed=1),
                             trials=3,
                             max_iterations=500)
        assert sw.fidelities.shape == (1, 3)
        assert sw.mean.shape == (1,)
        assert sw.minimum[0] <= sw.mean[0] <= sw.maximum[0]
        assert sw.std[0] >= 0
        assert sw.trial_seeds == ((1, 0), (1, 1), (1, 2))

    def test_default_solver_stops_on_gap(self, small_problem, monkeypatch):
        povm, psi, _ = small_problem
        noise = NoiseModel(kind="poisson", exposure=2e4, seed=1)
        certified = dimension_sweep(psi, povm, "gram", dims=[1, 3], noise=noise, trials=2)
        assert certified.converged.all()
        # TOL_GAP = 0 never fires, since lambda_max(R') >= 1: the same solves
        # run on to the cap and end where the certified ones stopped
        monkeypatch.setattr(maxlik, "TOL_GAP", 0.0)
        capped = dimension_sweep(psi, povm, "gram", dims=[1, 3], noise=noise, trials=2,
                                 max_iterations=20000)
        assert not capped.converged.any()
        assert np.abs(certified.fidelities - capped.fidelities).max() < 1e-6

    def test_results_agree_with_fidelities_and_converged(self, small_problem):
        povm, psi, _ = small_problem
        sw = dimension_sweep(psi, povm, "gram", dims=[2, 4],
                             noise=NoiseModel(kind="poisson", exposure=2e4, seed=3),
                             trials=2, max_iterations=16)
        assert sw.converged.shape == sw.fidelities.shape == (2, 2)
        # d = 2 certifies in 4 iterations and d = 4 in 28 or 29, so a
        # 16-iteration cap leaves both flags in the table
        assert sw.converged.any() and not sw.converged.all()
        for k in range(2):
            for t in range(2):
                r = sw.results[k][t]
                assert isinstance(r, ReconstructionResult)
                assert fidelity(psi, r.rho) == sw.fidelities[k, t]
                assert r.converged == sw.converged[k, t]

    def test_one_basis_per_sweep(self, small_problem, monkeypatch):
        povm, psi, _ = small_problem
        calls = []

        def counted(kind, d, povm):
            calls.append((kind, d))
            return subspace_basis(kind, d, povm)

        monkeypatch.setattr(simulate, "subspace_basis", counted)
        dimension_sweep(psi, povm, "gram", dims=[3, 1, 2],
                        noise=NoiseModel(kind="poisson", exposure=2e4, seed=2), trials=2,
                        max_iterations=50)
        assert calls == [("gram", 3)]

    @pytest.mark.parametrize("basis", ["gram", "fock"])
    def test_each_dimension_equals_a_direct_solve(self, small_problem, basis):
        # the oracle takes a fresh subspace_basis at each d, not a prefix of one
        povm, psi, rho = small_problem
        noise = NoiseModel(kind="poisson", exposure=2e4, seed=2)
        dims = [4, 1, 3]
        sw = dimension_sweep(psi, povm, basis, dims, noise, trials=2, max_iterations=300)
        for k, d in enumerate(dims):
            for t in range(2):
                direct = maxlik_solve(generate_counts(rho, povm, noise, trial=t), povm,
                                      subspace_basis(basis, d, povm), max_iterations=300)
                swept = sw.results[k][t]
                assert np.array_equal(swept.rho, direct.rho)
                assert np.array_equal(swept.log_likelihood, direct.log_likelihood)
                assert (swept.iterations, swept.newton_steps, swept.stop_reason) == (
                    direct.iterations, direct.newton_steps, direct.stop_reason)

    def test_dims_validation(self, small_problem):
        povm, psi, _ = small_problem
        noise = NoiseModel(kind="exact")
        with pytest.raises(InvalidInputError):
            dimension_sweep(psi, povm, "gram", dims=[0], noise=noise, trials=1)
        with pytest.raises(InvalidInputError):
            dimension_sweep(psi, povm, "gram", dims=[7], noise=noise, trials=1)
        with pytest.raises(InvalidInputError):
            dimension_sweep(psi, povm, "chebyshev", dims=[3], noise=noise, trials=1)


class TestStabilityStudy:
    def test_exact_noise_zero_spread(self, small_problem):
        povm, psi, _ = small_problem
        result = stability_study(psi, povm, "gram", d=6,
                                 noise=NoiseModel(kind="exact", exposure=1e5),
                                 trials=3,
                                 max_iterations=2000)
        assert isinstance(result, SweepResult)
        assert result.dims == (6,)
        assert result.std[0] < 1e-12

    def test_poisson_spread_positive_and_results_shaped(self, small_problem):
        povm, psi, _ = small_problem
        result = stability_study(psi, povm, "fock", d=4,
                                 noise=NoiseModel(kind="poisson", exposure=2e4, seed=2),
                                 trials=3,
                                 max_iterations=500)
        assert result.std[0] > 0
        assert result.std[0] == pytest.approx(result.fidelities[0].std(), abs=0)
        assert result.fidelities.shape == (1, 3)
        assert len(result.results) == 1 and len(result.results[0]) == 3
        assert all(r.rho.shape == (6, 6) for r in result.results[0])
        assert result.trial_seeds == ((2, 0), (2, 1), (2, 2))

    def test_default_solver_stops_on_gap(self, small_problem):
        povm, psi, _ = small_problem
        result = stability_study(psi, povm, "fock", d=3,
                                 noise=NoiseModel(kind="poisson", exposure=2e4, seed=2),
                                 trials=2)
        assert result.converged.all()

    def test_requires_two_trials(self, small_problem):
        povm, psi, _ = small_problem
        with pytest.raises(InvalidInputError):
            stability_study(psi, povm, "gram", d=3,
                            noise=NoiseModel(kind="exact"), trials=1)


class TestFockStateSmoke:
    def test_sweep_accepts_fock_target(self, small_problem):
        povm, _, _ = small_problem
        psi = fock_state(0, 6)
        result = dimension_sweep(psi, povm, "fock", dims=[1],
                                 noise=NoiseModel(kind="exact", exposure=1e4),
                                 trials=1,
                                 max_iterations=200)
        assert result.fidelities[0, 0] >= 1 - 1e-6
