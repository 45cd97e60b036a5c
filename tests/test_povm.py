from __future__ import annotations

import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gramtomo import (Dataset, HomodyneConfig, InvalidInputError, PovmSet,
                      build_homodyne_povm, cat_state, effective_rank, expected_probabilities,
                      fidelity, gram_matrix_operator_space, gram_matrix_state_space,
                      gram_operator, gram_spectrum, hermite_functions, maxlik_solve,
                      pure_density)
from gramtomo.povm import born_probabilities, weighted_effect_sum


class TestHomodyneConfig:
    def test_uniform_phases(self):
        conf = HomodyneConfig.uniform(phase_count=6, bins=51, x_range=(-5.0, 5.0))
        assert conf.phases == tuple(j * np.pi / 6 for j in range(6))
        assert conf.bin_width == pytest.approx(10.0 / 51, abs=1e-15)
        assert conf.bin_centers[0] == pytest.approx(-5.0 + 5.0 / 51, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            HomodyneConfig(phases=(0.0, 0.0), bins=5, x_range=(-1, 1))
        with pytest.raises(InvalidInputError):
            HomodyneConfig(phases=(0.0, 4.0), bins=5, x_range=(-1, 1))
        with pytest.raises(InvalidInputError):
            HomodyneConfig(phases=(0.0,), bins=0, x_range=(-1, 1))
        with pytest.raises(InvalidInputError):
            HomodyneConfig(phases=(0.0,), bins=5, x_range=(1, -1))


class TestBuildHomodynePovm:
    def test_reference_outcome_count_and_norm_bound(self, reference_config, reference_povm):
        assert reference_povm.n_outcomes == 306
        assert reference_povm.dim == 15
        dx = reference_config.bin_width
        xs = np.linspace(-5, 5, 4001)
        psi = hermite_functions(xs, 14)
        bound = dx * (psi ** 2).sum(axis=0).max()
        norms = np.sum(np.abs(reference_povm.vectors) ** 2, axis=1)
        assert np.all(norms <= bound + 1e-12)

    def test_scalar_case(self):
        conf = HomodyneConfig(phases=(0.0,), bins=1, x_range=(-0.5, 1.5))
        povm = build_homodyne_povm(conf, 1)
        assert povm.n_outcomes == 1
        w = 2.0
        x_c = 0.5
        psi0 = np.pi ** -0.25 * np.exp(-x_c ** 2 / 2)
        G = gram_operator(povm)
        assert G[0, 0] == pytest.approx(w * psi0 ** 2, abs=1e-14)

    def test_outcome_order_phase_major(self, reference_config, reference_povm):
        # row j * bins + b is sqrt(dx) e^{i n theta_j} psi_n(x_b): phase j, bin b
        dx = reference_config.bin_width
        n = np.arange(15)
        for i, j, b in [(0, 0, 0), (51, 1, 0), (305, 5, 50), (7, 0, 7)]:
            psi = hermite_functions(reference_config.bin_centers[b:b + 1], 14)[:, 0]
            expected = np.sqrt(dx) * np.exp(1j * n * reference_config.phases[j]) * psi
            assert np.abs(reference_povm.vectors[i] - expected).max() < 1e-14

    def test_per_phase_completeness(self):
        # sum over the bins of one phase approximates int |psi_n|^2 dx = 1
        for bins, rng_, tol in [(51, (-5.0, 5.0), 2e-2), (401, (-8.0, 8.0), 1e-3)]:
            conf = HomodyneConfig.uniform(phase_count=1, bins=bins, x_range=rng_)
            povm = build_homodyne_povm(conf, 11)
            G = gram_operator(povm)
            assert np.abs(np.diag(G).real - 1.0).max() < tol

    def test_determinism_bit_identical(self, reference_config):
        a = build_homodyne_povm(reference_config, 15)
        b = build_homodyne_povm(reference_config, 15)
        assert np.array_equal(a.vectors, b.vectors)

    def test_invalid_dim(self, reference_config):
        with pytest.raises(InvalidInputError):
            build_homodyne_povm(reference_config, 0)

    def test_phase_dependence_is_a_pure_rotation(self, reference_config):
        povm = build_homodyne_povm(reference_config, 4)
        theta = reference_config.phases[2]
        y0 = povm.vectors[5]           # phase 0, bin 5
        y2 = povm.vectors[2 * 51 + 5]  # phase 2, same bin
        rot = np.exp(1j * np.arange(4) * theta)
        assert np.abs(y2 - rot * y0).max() < 1e-14


class TestPovmSet:
    def test_rejects_one_dimensional_or_empty_array(self):
        for vectors in (np.ones(3, dtype=complex), np.zeros((0, 3), dtype=complex)):
            with pytest.raises(InvalidInputError):
                PovmSet(vectors)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_vectors(self, entry):
        vectors = np.eye(3, dtype=complex)
        vectors[1, 2] = entry
        with pytest.raises(InvalidInputError, match="finite"):
            PovmSet(vectors)

    def test_vectors_read_only(self):
        source = np.eye(3, dtype=complex)
        povm = PovmSet(source)
        with pytest.raises(ValueError):
            povm.vectors[0, 0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            povm.vectors = np.eye(3, dtype=complex)
        # the caller's array stays writable and is not shared
        source[0, 0] = 2.0
        assert povm.vectors[0, 0] == 1.0

    def test_homodyne_config_recorded_only_by_the_builder(self, reference_config,
                                                          reference_povm):
        assert reference_povm.homodyne is reference_config
        assert PovmSet(reference_povm.vectors).homodyne is None

    def test_rejects_homodyne_config_of_another_outcome_count(self, reference_config,
                                                             reference_povm):
        PovmSet(reference_povm.vectors, homodyne=reference_config)
        with pytest.raises(InvalidInputError, match="6 phases x 51 bins"):
            PovmSet(reference_povm.vectors[:-1], homodyne=reference_config)


class TestGramOperator:
    def test_orthonormal_completeness(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        assert np.abs(gram_operator(povm) - np.eye(4)).max() < 1e-15

    def test_repeated_effect(self):
        y = np.array([0.6, 0.8j], dtype=complex)
        povm = PovmSet(np.array([y, y]))
        G = gram_operator(povm)
        vals = np.linalg.eigvalsh(G)
        assert vals[-1] == pytest.approx(2.0, abs=1e-14)
        assert abs(vals[0]) < 1e-14

    def test_reference_gram_against_dense_sum(self, reference_povm):
        G = gram_operator(reference_povm)
        dense = np.zeros((15, 15), dtype=complex)
        for y in reference_povm.vectors:
            dense += np.outer(y, y.conj())
        assert np.abs(G - dense).max() < 1e-12

    def test_random_povm_psd(self, make_random_povm):
        rng = np.random.default_rng(11)
        for _ in range(10):
            povm = make_random_povm(rng, int(rng.integers(2, 7)), int(rng.integers(1, 12)))
            assert np.linalg.eigvalsh(gram_operator(povm)).min() >= -1e-10


class TestKernels:
    """born_probabilities and weighted_effect_sum against per-outcome loops."""

    @staticmethod
    def cases(make_random_povm):
        rng = np.random.default_rng(41)
        for dim, n in [(1, 3), (2, 7), (5, 4), (6, 40)]:
            povm = make_random_povm(rng, dim, n)
            M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            yield povm, (M + M.conj().T) / 2, rng.normal(size=n)

    def test_born_probabilities_loop(self, make_random_povm):
        for povm, rho, _ in self.cases(make_random_povm):
            loop = np.array([(y.conj() @ rho @ y).real for y in povm.vectors])
            p = born_probabilities(rho, povm)
            assert p.dtype == float
            assert np.abs(p - loop).max() < 1e-13

    def test_weighted_effect_sum_loop(self, make_random_povm):
        for povm, _, w in self.cases(make_random_povm):
            loop = sum(wi * np.outer(y, y.conj()) for wi, y in zip(w, povm.vectors))
            S = weighted_effect_sum(w, povm)
            assert np.abs(S - loop).max() < 1e-13
            assert np.array_equal(S, S.conj().T)


class TestGramSpectrum:
    def test_identity(self):
        analysis = gram_spectrum(PovmSet(np.eye(15, dtype=complex)))
        assert np.allclose(analysis.eigenvalues, 1.0, atol=1e-14)
        assert analysis.rank == 15

    def test_rank_one(self):
        y = np.array([1.0, 0.0], dtype=complex)
        analysis = gram_spectrum(PovmSet(np.sqrt(2.0) * y[None, :]))
        assert analysis.eigenvalues[0] == pytest.approx(2.0, abs=1e-14)
        assert analysis.eigenvalues[1] == 0.0
        assert analysis.rank == 1

    def test_reassembly(self, reference_povm):
        G = gram_operator(reference_povm)
        analysis = gram_spectrum(reference_povm)
        U, lam = analysis.eigenvectors, analysis.eigenvalues
        assert np.abs((U * lam) @ U.conj().T - G).max() < 1e-10

    def test_descending_and_clamped(self, reference_analysis):
        lam = reference_analysis.eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.all(lam >= 0)
        assert reference_analysis.rank == 15

    def test_orthonormal_eigenvectors(self, reference_analysis):
        U = reference_analysis.eigenvectors
        assert np.abs(U.conj().T @ U - np.eye(15)).max() < 1e-10

    def test_phase_convention_deterministic(self, reference_povm):
        a = gram_spectrum(reference_povm)
        b = gram_spectrum(PovmSet(reference_povm.vectors.copy()))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for col in a.eigenvectors.T:
            lead = col[np.argmax(np.abs(col) > 1e-8)]
            assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_ill_conditioned_spectrum_against_mpmath(self):
        # one phase, 51 bins on (-2, 2) at dim 15: lambda_15 / lambda_1 = 1.8e-10.
        # The oracle sums G from mpmath Hermite functions at 30 digits, at the
        # same float bin centers; an eigendecomposition of the float64 G would
        # be off by ~1e-6 relative in lambda_15
        conf = HomodyneConfig.uniform(1, 51, (-2.0, 2.0))
        dim = 15
        lam = gram_spectrum(build_homodyne_povm(conf, dim)).eigenvalues
        with mpmath.workdps(30):
            dx = mpmath.mpf(conf.bin_width)
            psi = [[mpmath.hermite(n, x) * mpmath.exp(-x * x / 2)
                    / mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2**n * mpmath.factorial(n))
                    for n in range(dim)] for x in map(mpmath.mpf, conf.bin_centers)]
            G = mpmath.matrix(dim, dim)
            for n in range(dim):
                for m in range(n, dim):
                    G[n, m] = G[m, n] = dx * mpmath.fsum(row[n] * row[m] for row in psi)
            oracle = sorted((float(v) for v in mpmath.eigsy(G, eigvals_only=True)),
                            reverse=True)
        assert oracle[-1] / oracle[0] < 1e-9
        assert np.abs(lam / oracle - 1.0).max() < 1e-10

    def test_eigenpairs_of_complex_gram(self):
        # 3 phases x 21 bins on (-4, 5) at dim 8: the window is not symmetric,
        # so G has |Im G| = 1.7e-2 and its eigenvectors are conj(V), not V
        povm = build_homodyne_povm(HomodyneConfig.uniform(3, 21, (-4.0, 5.0)), 8)
        G = gram_operator(povm)
        assert np.abs(G.imag).max() > 1e-2
        analysis = gram_spectrum(povm)
        lam, E = analysis.eigenvalues, analysis.eigenvectors
        assert np.linalg.norm(G @ E - E * lam, axis=0).max() < 1e-12 * lam[0]
        # the full-basis solve reads its rescaled frame and embedding off the
        # same decomposition: exact data of a complex state is recovered
        psi = cat_state(1.0 + 0.6j, "odd", 8)
        ds = Dataset(counts=expected_probabilities(pure_density(psi), povm))
        result = maxlik_solve(ds, povm, max_iterations=3000)
        assert fidelity(psi, result.rho) >= 0.9999


class TestGramMatrices:
    def test_state_space_orthonormal(self):
        povm = PovmSet(np.eye(3, dtype=complex))
        assert np.abs(gram_matrix_state_space(povm) - np.eye(3)).max() < 1e-15

    def test_state_space_two_identical(self):
        y = np.array([1.0, 0.0], dtype=complex)
        Gm = gram_matrix_state_space(PovmSet(np.array([y, y])))
        assert np.abs(Gm - np.ones((2, 2))).max() < 1e-15
        vals = np.sort(np.linalg.eigvalsh(Gm))
        assert vals[1] == pytest.approx(2.0, abs=1e-14) and abs(vals[0]) < 1e-14

    def test_unitary_equivalence_nonzero_spectra(self, reference_povm, reference_analysis):
        Gm = gram_matrix_state_space(reference_povm)
        vals = np.linalg.eigvalsh(Gm)[::-1][:15]
        assert np.abs(vals - reference_analysis.eigenvalues).max() < 1e-9

    def test_operator_space_orthonormal(self):
        povm = PovmSet(np.eye(3, dtype=complex))
        assert np.abs(gram_matrix_operator_space(povm) - np.eye(3)).max() < 1e-15

    def test_hadamard_relation(self, reference_povm):
        Gm = gram_matrix_state_space(reference_povm)
        Q = gram_matrix_operator_space(reference_povm)
        assert np.abs(Q - Gm * Gm.conj()).max() < 1e-14
        assert np.abs(Q.imag).max() == 0.0

    def test_operator_space_decays_faster(self, reference_povm, reference_analysis):
        q = np.linalg.eigvalsh(gram_matrix_operator_space(reference_povm))[::-1]
        lam = reference_analysis.eigenvalues
        # quadratic sensitivity: normalized Q spectrum sits below normalized G
        assert np.all(q[1:15] / q[0] <= lam[1:] / lam[0] + 1e-12)


class TestEffectiveRank:
    def test_flat_spectrum(self):
        analysis = gram_spectrum(PovmSet(np.eye(7, dtype=complex)))
        assert effective_rank(analysis) == 7

    def test_direct_definition(self):
        analysis = gram_spectrum(PovmSet(np.diag(np.sqrt([1.0, 0.5, 1e-6]))))
        assert effective_rank(analysis) == 2

    def test_reference_regression_value(self, reference_analysis):
        # pinned from the first verified run: the clean homodyne model keeps
        # every mode above the 1e-3 bandwidth cut
        assert effective_rank(reference_analysis) == 15

    def test_drop_ratio_read_at_call_time(self, monkeypatch):
        analysis = gram_spectrum(PovmSet(np.diag(np.sqrt([1.0, 0.5, 1e-6]))))
        monkeypatch.setattr("gramtomo.povm.EFFECTIVE_RANK_DROP_RATIO", 0.6)
        assert effective_rank(analysis) == 1


class TestMarginalConsistency:
    def test_cat_quadrature_distribution_against_quadrature_oracle(self, reference_config,
                                                                    reference_povm, cat_target):
        # each bin probability approximates the adaptive-quadrature integral
        # of the wavefunction density over the bin (midpoint-rule error only);
        # the first 51 outcomes are the bins of phase 0
        psi = cat_target

        def density(x):
            wave = psi.real @ hermite_functions(np.asarray(x), 14)
            return float(wave ** 2)

        centers = reference_config.bin_centers
        dx = reference_config.bin_width
        p_model = np.array([abs(np.vdot(y, psi)) ** 2 for y in reference_povm.vectors[:51]])
        p_exact = np.array([quad(density, c - dx / 2, c + dx / 2)[0] for c in centers])
        assert np.abs(p_model - p_exact).max() < 3e-4
        lobe = int(np.argmax(p_exact))
        assert p_model[lobe] == pytest.approx(p_exact[lobe], rel=1e-2)
        # double-peaked marginal with maxima near x = +-2 sqrt(2)
        peaks = centers[np.sort(np.argsort(p_model)[-2:])]
        assert abs(peaks[0] + 2 * np.sqrt(2)) < dx and abs(peaks[1] - 2 * np.sqrt(2)) < dx
