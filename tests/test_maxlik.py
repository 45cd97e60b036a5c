from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from gramtomo import (TOL_GAP, Dataset, EmptyDataError, EmptyMeasurementError,
                      InvalidInputError, PovmSet, born_residual,
                      expected_probabilities,
                      extremal_residual, gram_operator, gram_spectrum,
                      hermite_functions, log_likelihood, maxlik_solve, r_operator,
                      restrict_to_subspace)
from gramtomo import maxlik
from gramtomo.simulate import NoiseModel, generate_counts


def small_problem(dim=6, phases=4, bins=21, alpha=1.2):
    from gramtomo import HomodyneConfig, build_homodyne_povm, cat_state, pure_density
    conf = HomodyneConfig.uniform(phase_count=phases, bins=bins, x_range=(-4.0, 4.0))
    povm = build_homodyne_povm(conf, dim)
    psi = cat_state(alpha, "even", dim)
    return povm, psi, pure_density(psi)


class TestDataset:
    def test_frequencies_sum_to_one(self):
        ds = Dataset(counts=np.array([3.0, 1.0, 0.0, 6.0]))
        assert ds.frequencies.sum() == pytest.approx(1.0, abs=1e-14)

    def test_real_pseudo_counts_accepted(self):
        ds = Dataset(counts=np.array([0.25, 0.75]))
        assert ds.frequencies[1] == 0.75

    def test_rejections(self):
        with pytest.raises(EmptyDataError):
            Dataset(counts=np.array([]))
        with pytest.raises(EmptyDataError):
            Dataset(counts=np.zeros(4))
        with pytest.raises(InvalidInputError):
            Dataset(counts=np.array([1.0, -2.0]))
        with pytest.raises(InvalidInputError):
            Dataset(counts=np.array([1.0, np.inf]))


class TestExpectedProbabilities:
    def test_projector_on_own_state(self):
        povm = PovmSet(np.eye(3, dtype=complex)[:1])
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert expected_probabilities(rho, povm)[0] == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_linearity(self, reference_povm):
        rho = np.eye(15, dtype=complex) / 15
        p = expected_probabilities(rho, reference_povm)
        norms = np.sum(np.abs(reference_povm.vectors) ** 2, axis=1)
        assert np.abs(p - norms / 15).max() < 1e-14

    def test_dimension_mismatch(self, reference_povm):
        with pytest.raises(InvalidInputError):
            expected_probabilities(np.eye(4) / 4, reference_povm)


class TestLogLikelihood:
    def test_single_outcome_is_zero(self):
        povm = PovmSet(np.eye(2, dtype=complex)[:1])
        ds = Dataset(counts=np.array([5.0]))
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert log_likelihood(rho, ds, povm) == 0.0

    def test_two_projector_closed_form(self):
        povm = PovmSet(np.eye(2, dtype=complex))
        ds = Dataset(counts=np.array([3.0, 1.0]))
        rho = np.diag([0.75, 0.25]).astype(complex)
        ref = 3 * math.log(0.75) + math.log(0.25)
        assert log_likelihood(rho, ds, povm) == pytest.approx(ref, abs=1e-14)

    def test_scaling_invariance_exact(self):
        povm = PovmSet(np.eye(3, dtype=complex))
        ds = Dataset(counts=np.array([2.0, 3.0, 5.0]))
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        assert log_likelihood(2.0 * rho, ds, povm) == log_likelihood(rho, ds, povm)

    def test_impossible_observation_sentinel(self):
        povm = PovmSet(np.eye(2, dtype=complex))
        ds = Dataset(counts=np.array([1.0, 1.0]))
        rho = np.diag([1.0, 0.0]).astype(complex)
        with pytest.warns(RuntimeWarning):
            assert log_likelihood(rho, ds, povm) == -np.inf


class TestROperator:
    def test_exact_data_complete_povm_gives_gram(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        ds = Dataset(counts=expected_probabilities(rho, povm))
        R = r_operator(rho, ds, povm)
        assert np.abs(R - gram_operator(povm)).max() < 1e-12

    def test_single_projector(self):
        y = np.array([0.6, 0.8], dtype=complex)
        povm = PovmSet(np.array([y]))
        rho = np.diag([0.5, 0.5]).astype(complex)
        ds = Dataset(counts=np.array([7.0]))
        R = r_operator(rho, ds, povm)
        p = float(np.real(y.conj() @ rho @ y))
        assert np.abs(R - np.outer(y, y.conj()) / p).max() < 1e-14

    def test_zero_count_outcomes_contribute_nothing(self):
        vecs = np.eye(3, dtype=complex)
        povm_all = PovmSet(vecs)
        povm_used = PovmSet(vecs[:2])
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        ds_all = Dataset(counts=np.array([2.0, 1.0, 0.0]))
        ds_used = Dataset(counts=np.array([2.0, 1.0]))
        R_all = r_operator(rho, ds_all, povm_all)
        R_used = r_operator(rho, ds_used, povm_used)
        assert np.abs(R_all[:2, :2] - R_used[:2, :2]).max() < 1e-14
        assert R_all[2, 2] == 0.0

    def test_length_mismatch(self, reference_povm):
        with pytest.raises(InvalidInputError):
            r_operator(np.eye(15) / 15, Dataset(counts=np.ones(5)), reference_povm)


class TestRescaleToSupport:
    def test_identity_gram_is_noop(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        vectors = gram_spectrum(povm).rescaled_vectors
        assert np.abs(vectors - povm.vectors).max() < 1e-12

    def test_reference_completeness_on_support(self, reference_povm):
        vectors = gram_spectrum(reference_povm).rescaled_vectors
        G_prime = gram_operator(PovmSet(vectors))
        assert np.abs(G_prime - np.eye(15)).max() < 1e-10

    def test_rank_deficient_toy(self):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        povm = PovmSet(vecs)
        analysis = gram_spectrum(povm)
        assert analysis.rank == 3
        vectors = analysis.rescaled_vectors
        assert vectors.shape == (3, 3)
        G_prime = gram_operator(PovmSet(vectors))
        assert np.abs(G_prime - np.eye(3)).max() < 1e-10

    def test_zero_support_error(self):
        povm = PovmSet(np.zeros((2, 3), dtype=complex))
        with pytest.raises(EmptyMeasurementError):
            maxlik_solve(Dataset(counts=np.ones(2)), povm)

    def test_complete_on_ill_conditioned_measurement(self):
        # one phase, 51 bins on (-2, 2) at dim 15: lambda_15 / lambda_1 = 1.8e-10,
        # so rescaling through an eigendecomposition of G loses ~1e-6
        from gramtomo import HomodyneConfig, build_homodyne_povm
        povm = build_homodyne_povm(HomodyneConfig.uniform(1, 51, (-2.0, 2.0)), 15)
        analysis = gram_spectrum(povm)
        vals = analysis.eigenvalues
        assert vals[-1] / vals[0] < 1e-9
        vectors = analysis.rescaled_vectors
        assert vectors.shape == (51, 15)
        assert np.abs(vectors.T @ vectors.conj() - np.eye(15)).max() < 1e-12

    def test_embedding_squares_to_gram_pseudo_inverse(self, reference_povm):
        analysis = gram_spectrum(reference_povm)
        embed = analysis.support_vectors / np.sqrt(analysis.support_eigenvalues)
        pinv = np.linalg.pinv(gram_operator(reference_povm))
        assert np.abs(embed @ embed.conj().T - pinv).max() < 1e-12 * np.abs(pinv).max()


class TestRestrictToSubspace:
    def test_full_basis_identity(self, reference_povm):
        restricted = restrict_to_subspace(reference_povm, np.eye(15, dtype=complex))
        assert np.abs(restricted.vectors - reference_povm.vectors).max() < 1e-14

    def test_top_one_gram_eigenvector(self, reference_povm, reference_analysis):
        basis = reference_analysis.eigenvectors[:, :1]
        restricted = restrict_to_subspace(reference_povm, basis)
        G1 = gram_operator(restricted)
        assert G1.shape == (1, 1)
        assert G1[0, 0].real == pytest.approx(reference_analysis.eigenvalues[0], abs=1e-10)

    def test_top_d_spectrum_projection(self, reference_povm, reference_analysis):
        d = 5
        basis = reference_analysis.eigenvectors[:, :d]
        restricted = restrict_to_subspace(reference_povm, basis)
        vals = np.linalg.eigvalsh(gram_operator(restricted))[::-1]
        assert np.abs(vals - reference_analysis.eigenvalues[:d]).max() < 1e-10

    def test_metadata_preserved(self, reference_config, reference_povm):
        # outcome 70 stays phase 1, bin 19: sqrt(dx) e^{i n theta_1} psi_n(x_19), n < 3
        restricted = restrict_to_subspace(reference_povm, np.eye(15, dtype=complex)[:, :3])
        j, b = divmod(70, reference_config.bins)
        psi = hermite_functions(reference_config.bin_centers[b:b + 1], 2)[:, 0]
        expected = (np.sqrt(reference_config.bin_width)
                    * np.exp(1j * np.arange(3) * reference_config.phases[j]) * psi)
        assert restricted.n_outcomes == reference_povm.n_outcomes
        assert np.abs(restricted.vectors[70] - expected).max() < 1e-14

    def test_non_orthonormal_rejected(self, reference_povm):
        bad = np.ones((15, 2), dtype=complex)
        with pytest.raises(InvalidInputError):
            restrict_to_subspace(reference_povm, bad)


class TestResiduals:
    def test_born_zero_at_commuting_fixed_point(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        ds = Dataset(counts=np.array([4.0, 3.0, 2.0, 1.0]))
        rho = np.diag(ds.frequencies).astype(complex)
        assert born_residual(rho, ds, povm) < 1e-12

    def test_born_positive_away_from_fixed_point(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        ds = Dataset(counts=np.array([10.0, 1.0, 1.0, 1.0]))
        rho = np.eye(4, dtype=complex) / 4
        assert born_residual(rho, ds, povm) > 0.1

    def test_extremal_zero_at_commuting_fixed_point(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        ds = Dataset(counts=np.array([4.0, 3.0, 2.0, 1.0]))
        rho = np.diag(ds.frequencies).astype(complex)
        assert extremal_residual(rho, ds, povm) < 1e-14

    def test_extremal_gauge_handles_incomplete_povm(self):
        # the effects sum to G != I; the residual must still vanish at the
        # conditional-likelihood optimum
        povm, psi, rho = small_problem()
        ds = Dataset(counts=expected_probabilities(rho, povm))
        res = maxlik_solve(ds, povm, max_iterations=4000)
        assert extremal_residual(res.rho, ds, povm) < 1e-6


class TestMaxlikSolve:
    def test_commuting_case_closed_form(self):
        povm = PovmSet(np.eye(5, dtype=complex))
        counts = np.array([11.0, 7.0, 5.0, 3.0, 1.0])
        ds = Dataset(counts=counts)
        res = maxlik_solve(ds, povm)
        assert res.converged
        assert np.abs(res.rho - np.diag(ds.frequencies)).max() < 1e-10
        assert res.born_residual < 1e-7
        assert res.extremal_residual <= 10 * 1e-7

    def test_result_is_physical(self):
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=2))
        res = maxlik_solve(ds, povm, max_iterations=500)
        assert abs(np.trace(res.rho).real - 1.0) < 1e-10
        assert np.abs(res.rho - res.rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(res.rho).min() >= -1e-10

    def test_likelihood_trace_non_decreasing(self):
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=4))
        res = maxlik_solve(ds, povm, max_iterations=800)
        assert np.all(np.diff(res.log_likelihood) >= -1e-12)

    def test_born_residual_trend(self):
        povm, psi, rho = small_problem()
        ds = Dataset(counts=expected_probabilities(rho, povm))
        initial = born_residual(np.eye(povm.dim, dtype=complex) / povm.dim, ds,
                                PovmSet(gram_spectrum(povm).rescaled_vectors))
        res = maxlik_solve(ds, povm, max_iterations=2000)
        assert res.born_residual < initial

    def test_gauge_invariance_in_counts(self):
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=3000.0, seed=9))
        a = maxlik_solve(ds, povm, max_iterations=600)
        b = maxlik_solve(Dataset(counts=7.0 * ds.counts), povm, max_iterations=600)
        assert np.abs(a.rho - b.rho).max() < 1e-10

    def test_permutation_invariance(self):
        povm, psi, rho = small_problem(dim=5, phases=3, bins=11)
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=3000.0, seed=1))
        base = maxlik_solve(ds, povm, max_iterations=600)
        rng = np.random.default_rng(0)
        perm = rng.permutation(povm.n_outcomes)
        povm_p = PovmSet(povm.vectors[perm])
        ds_p = Dataset(counts=ds.counts[perm])
        permuted = maxlik_solve(ds_p, povm_p, max_iterations=600)
        assert np.abs(base.rho - permuted.rho).max() < 1e-10

    def test_subspace_consistency_full_basis(self):
        povm, psi, rho = small_problem(dim=5, phases=3, bins=11)
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=3000.0, seed=6))
        a = maxlik_solve(ds, povm, max_iterations=400)
        b = maxlik_solve(ds, povm, np.eye(5, dtype=complex), max_iterations=400)
        assert np.abs(a.rho - b.rho).max() < 1e-10

    def test_subspace_embedding_shape_and_support(self, reference_povm, reference_analysis, cat_target):
        from gramtomo import pure_density
        basis = reference_analysis.eigenvectors[:, :3]
        ds = generate_counts(pure_density(cat_target), reference_povm,
                             NoiseModel(kind="poisson", exposure=100000.0, seed=0))
        res = maxlik_solve(ds, reference_povm, basis, max_iterations=200)
        assert res.rho.shape == (15, 15)
        P = basis @ basis.conj().T
        assert np.abs(P @ res.rho @ P - res.rho).max() < 1e-10

    def test_non_convergence_flagged_not_raised(self):
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=3))
        res = maxlik_solve(ds, povm, max_iterations=3)
        assert res.converged is False
        assert res.iterations == 3
        assert abs(np.trace(res.rho).real - 1.0) < 1e-10

    @pytest.mark.parametrize("max_iterations", [0, -3])
    def test_iteration_cap_below_one_refused(self, max_iterations):
        povm, psi, rho = small_problem()
        ds = Dataset(counts=expected_probabilities(rho, povm))
        with pytest.raises(InvalidInputError, match="max iterations must be >= 1"):
            maxlik_solve(ds, povm, max_iterations=max_iterations)

    def test_dataset_povm_mismatch(self, reference_povm):
        with pytest.raises(InvalidInputError):
            maxlik_solve(Dataset(counts=np.ones(7)), reference_povm)

    def test_truncation_mismatch_floor_warning(self):
        # an observed outcome the model calls impossible trips the floor
        povm = PovmSet(np.eye(2, dtype=complex))
        ds = Dataset(counts=np.array([5.0, 1.0]))
        with pytest.warns(RuntimeWarning):
            res = maxlik_solve(ds, povm, np.eye(2, dtype=complex)[:, :1], max_iterations=50)
        assert abs(np.trace(res.rho).real - 1.0) < 1e-10

    def test_backtracking_keeps_trace_monotone_with_full_dilution(self):
        # commuting case converges after backtracking halves the step
        povm = PovmSet(np.eye(3, dtype=complex))
        ds = Dataset(counts=np.array([5.0, 3.0, 2.0]))
        res = maxlik_solve(ds, povm)
        assert res.converged
        assert np.all(np.diff(res.log_likelihood) >= -1e-12)
        assert np.abs(res.rho - np.diag(ds.frequencies)).max() < 1e-10
        assert res.dilution < 1.0 and res.backtracks > 0


class TestStopReason:
    def test_cap(self):
        # the returned iterate carries its certificate, uncertified at the cap
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=3))
        res = maxlik_solve(ds, povm, max_iterations=3)
        assert (res.stop_reason, res.converged) == ("cap", False)
        assert res.likelihood_gap >= TOL_GAP

    def test_born(self):
        # a complete projective measurement reproduces any frequencies, at
        # rho = diag(f); the gap rule is the stop there too
        povm = PovmSet(np.eye(5, dtype=complex))
        ds = Dataset(counts=np.array([11.0, 7.0, 5.0, 3.0, 1.0]))
        res = maxlik_solve(ds, povm)
        assert (res.stop_reason, res.converged) == ("gap", True)
        assert res.likelihood_gap < TOL_GAP
        assert np.abs(res.rho - np.diag(ds.frequencies)).max() < 1e-10

    def test_gap_on_one_dimensional_subspace(self):
        # r = 1: sigma = 1 is the only state, so R' = 1 and the gap is 0 at once
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=3))
        basis = gram_spectrum(povm).eigenvectors[:, :1]
        res = maxlik_solve(ds, povm, basis)
        assert (res.stop_reason, res.converged, res.iterations) == ("gap", True, 0)
        assert res.log_likelihood.shape == (1,)
        assert abs(res.likelihood_gap) < TOL_GAP

    def test_stalled(self, monkeypatch):
        # without backtracking room the full R rho R step lowers L at once
        monkeypatch.setattr(maxlik, "DILUTION_FLOOR", 1.0)
        povm = PovmSet(np.eye(3, dtype=complex))
        ds = Dataset(counts=np.array([5.0, 3.0, 2.0]))
        res = maxlik_solve(ds, povm)
        assert (res.stop_reason, res.converged) == ("stalled", False)
        assert np.all(np.diff(res.log_likelihood) >= -1e-12)
        assert res.log_likelihood.size == res.iterations + 1
        # the refused step is the one backtrack; eps stays at its floor, here 1
        assert (res.backtracks, res.dilution) == (1, 1.0)

    def test_no_gap_stop_while_floor_is_active(self):
        # the setup of test_truncation_mismatch_floor_warning: R' = 5/6 because
        # the floored outcome is under-weighted, which would read as a gap of
        # -1/6 at iteration 0
        povm = PovmSet(np.eye(2, dtype=complex))
        ds = Dataset(counts=np.array([5.0, 1.0]))
        with pytest.warns(RuntimeWarning):
            res = maxlik_solve(ds, povm, np.eye(2, dtype=complex)[:, :1], max_iterations=50)
        assert res.stop_reason == "cap"
        assert res.converged is False
        assert res.iterations == 50
        # nor is a gap reported for the floored iterate the run returns
        assert res.likelihood_gap is None


class TestLikelihoodGapCertificate:
    def test_gap_stop_is_sound(self):
        # on exact data the true state reproduces the frequencies, so the
        # per-count maximum is sum f log f in closed form; the certificate
        # must bound the distance to it
        povm, psi, rho = small_problem()
        ds = Dataset(counts=expected_probabilities(rho, povm))
        res = maxlik_solve(ds, povm)
        assert res.stop_reason == "gap"
        f = ds.frequencies[ds.frequencies > 0]
        behind = float(f @ np.log(f)) - res.log_likelihood[-1]
        assert behind <= res.likelihood_gap < TOL_GAP

    def test_gap_stop_is_first_certified_iterate(self, monkeypatch):
        # the Rayleigh-quotient shortcut may skip eigensolves but never a stop:
        # every earlier iterate's own gap (read off a capped run) is above tol
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=5))
        tol = 1e-4
        monkeypatch.setattr(maxlik, "TOL_GAP", tol)
        stop = maxlik_solve(ds, povm).iterations
        assert stop > 1
        gaps = [maxlik_solve(ds, povm, max_iterations=k).likelihood_gap
                for k in range(1, stop)]
        assert min(gaps) >= tol


def worst_decrease(trace: np.ndarray) -> float:
    return float(np.max(trace[:-1] - trace[1:])) if trace.size > 1 else 0.0


def phi_derivatives(A, f, Y, Yc):
    """Gradient and Hessian of Phi(A) = sum_i f_i log p_i - log ||A||^2 with
    p_i = ||(conj(Y) A)_i||^2, in the real parameters x = (Re A, Im A) with A
    flattened row-major: the full-space oracle of the solver's horizontal
    Newton direction.

    With W = conj(Y) A, M the effect sum with weights f/p and N = ||A||^2,
    the Jacobian of p has the rows 2 (Re G_i, -Im G_i), G_i = conj(y_i) (x)
    conj(W_i), and

        g = J^T (f/p) - 2x/N,
        H = 2 [[Re M (x) I, -Im M (x) I], [Im M (x) I, Re M (x) I]]
            - J^T diag(f/p^2) J - 2 I/N + 4 x x^T / N^2.
    """
    r, k = A.shape
    N = float(np.vdot(A, A).real)
    W = Yc @ A
    p = np.einsum("ik,ik->i", W, W.conj()).real
    w = f / p
    G = (Yc[:, :, None] * W.conj()[:, None, :]).reshape(-1, r * k)
    J = np.empty((len(G), 2 * r * k))
    np.multiply(G.real, 2.0, out=J[:, : r * k])
    np.multiply(G.imag, -2.0, out=J[:, r * k:])
    x = np.concatenate([A.real.ravel(), A.imag.ravel()])
    g = J.T @ w - 2.0 * x / N
    M = (Y * w[:, None]).T @ Yc
    M = 0.5 * (M + M.conj().T)
    # 2 [[Re M, -Im M], [Im M, Re M]] (x) I_k, added to -J^T diag(f/p^2) J on
    # the k diagonals of its (2, r, k, 2, r, k) view
    twice = np.empty((2, r, 2, r))
    twice[0, :, 0] = twice[1, :, 1] = 2.0 * M.real
    twice[1, :, 0] = 2.0 * M.imag
    twice[0, :, 1] = -twice[1, :, 0]
    H = (J.T * (f / p**2)) @ J
    np.negative(H, out=H)
    blocks = H.reshape(2, r, k, 2, r, k)
    for c in range(k):
        blocks[:, :, c, :, :, c] += twice
    H.flat[:: len(H) + 1] -= 2.0 / N
    H += 4.0 * np.outer(x, x) / N**2
    return g, H


def gauge_generators(k):
    """A basis of the k^2 anti-Hermitian k x k matrices, then the identity:
    the Z for which A -> A exp(t Z) leaves A A^H / ||A||^2, and so Phi,
    unchanged."""
    Z = np.zeros((k * k + 1, k, k), dtype=complex)
    m = 0
    for j in range(k):
        for l in range(j, k):
            Z[m, j, l] = Z[m, l, j] = 1j
            m += 1
            if l > j:
                Z[m, j, l], Z[m, l, j] = 1.0, -1.0
                m += 1
    Z[m] = np.eye(k)
    return Z


def horizontal_basis(A):
    """Orthonormal columns spanning the complement of the vertical directions
    vec(A Z) (see gauge_generators) in the real parameters x of
    phi_derivatives: 2 r k - k^2 - 1 of them, from one complete QR."""
    r, k = A.shape
    AZ = A @ gauge_generators(k)
    vertical = np.hstack([AZ.real.reshape(len(AZ), -1), AZ.imag.reshape(len(AZ), -1)])
    Q = np.linalg.qr(vertical.T, mode="complete")[0]
    return Q[:, len(AZ):]


class TestNewtonPolish:
    def test_derivatives_match_central_differences(self):
        # Phi(A) = sum_i f_i log ||(conj(Y) A)_i||^2 - log ||A||^2 on a random
        # complex POVM; at h = 1e-5 seeds 0-4 give relative errors up to
        # 4.5e-10 (gradient) and 4.0e-10 (Hessian)
        n, r, k = 40, 5, 2
        rng = np.random.default_rng(0)
        Y = (rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))) / np.sqrt(2 * r)
        f = rng.random(n)
        f /= f.sum()

        def unflatten(x):
            return (x[: r * k] + 1j * x[r * k:]).reshape(r, k)

        def phi(x):
            B = unflatten(x)
            p = np.sum(np.abs(Y.conj() @ B) ** 2, axis=1)
            return f @ np.log(p) - np.log(np.vdot(B, B).real)

        def gradient(x):
            return phi_derivatives(unflatten(x), f, Y, Y.conj())[0]

        x = rng.normal(size=2 * r * k)
        g, H = phi_derivatives(unflatten(x), f, Y, Y.conj())
        steps = 1e-5 * np.eye(x.size)
        g_fd = np.array([(phi(x + e) - phi(x - e)) / 2e-5 for e in steps])
        H_fd = np.array([(gradient(x + e) - gradient(x - e)) / 2e-5 for e in steps])
        assert np.abs(g - g_fd).max() < 1e-8 * np.abs(g).max()
        assert np.abs(H - H_fd).max() < 1e-8 * np.abs(H).max()

    @pytest.mark.parametrize("trial", range(3))
    def test_certifies_ill_conditioned_measurement(self, trial):
        # 2 phases x 51 bins on (-2, 2): the R rho R iteration alone certified
        # one solve in 12 within 20000 iterations
        from gramtomo import HomodyneConfig, build_homodyne_povm, cat_state, pure_density
        povm = build_homodyne_povm(
            HomodyneConfig.uniform(phase_count=2, bins=51, x_range=(-2.0, 2.0)), 15)
        ds = generate_counts(pure_density(cat_state(2.0, "even", 15)), povm,
                             NoiseModel(kind="poisson", exposure=100000.0, seed=0),
                             trial=trial)
        res = maxlik_solve(ds, povm)
        assert res.stop_reason == "gap" and res.iterations <= 1000
        assert res.newton_steps > 0
        assert worst_decrease(res.log_likelihood) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 3])
    def test_certifies_reference_seeds(self, reference_povm, cat_target, seed):
        # the R rho R iteration alone ended seed 1 at the 20000-iteration cap
        # and certified seed 3 after 15432 iterations
        from gramtomo import pure_density
        ds = generate_counts(pure_density(cat_target), reference_povm,
                             NoiseModel(kind="poisson", exposure=100000.0, seed=seed))
        res = maxlik_solve(ds, reference_povm)
        assert res.stop_reason == "gap" and res.iterations <= 500
        assert worst_decrease(res.log_likelihood) <= 1e-12
        # no R sigma R step was diluted
        assert res.dilution == 1.0

    def test_no_polish_after_one_without_ascent(self, monkeypatch):
        # TOL_GAP = 0 never fires, since lambda_max(R') >= 1, so the solve runs
        # to the cap; once a polish finds the optimum, the next one finds no
        # ascent and is the last
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=5))
        monkeypatch.setattr(maxlik, "TOL_GAP", 0.0)
        runs = [maxlik_solve(ds, povm, max_iterations=k) for k in (400, 1200)]
        assert [res.stop_reason for res in runs] == ["cap", "cap"]
        assert 0 < runs[0].newton_steps == runs[1].newton_steps

    def test_polish_ends_where_no_step_length_rises(self, monkeypatch):
        # with no halvings allowed, newton_step tries no length and returns
        # None past its loop: that polish, with an ascent direction in hand,
        # rises nowhere and is the run's last
        decrements = []
        newton_direction = maxlik._newton_direction

        def counted(*args):
            out = newton_direction(*args)
            decrements.append(out[1])
            return out

        monkeypatch.setattr(maxlik, "NEWTON_BACKTRACKS", 0)
        monkeypatch.setattr(maxlik, "TOL_GAP", 0.0)
        monkeypatch.setattr(maxlik, "_newton_direction", counted)
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=5))
        res = maxlik_solve(ds, povm, np.eye(povm.dim, dtype=complex)[:, :3], max_iterations=40)
        assert res.stop_reason == "cap" and res.iterations == 40
        assert res.newton_steps == 0
        assert len(decrements) == 1 and decrements[0] > 0.0
        rounding = maxlik.LIKELIHOOD_ROUNDING * max(1.0, np.abs(res.log_likelihood).max())
        assert worst_decrease(res.log_likelihood) <= rounding
        assert np.linalg.eigvalsh(res.rho).min() >= -1e-12
        assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-12)


def complete_frame(rng, n, r):
    """n x r complex Y with Y^H Y = I: the effects conj(y_i) y_i^T sum to the
    identity, as the solver's rescaled frame does."""
    return np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))[0]


def as_real(A):
    """The real parameters x = (Re A, Im A) of phi_derivatives, row-major."""
    return np.concatenate([A.real.ravel(), A.imag.ravel()])


def saddle_free_direction(A, g, H):
    """B U |Lambda|^(-1) U^T B^T g, from eigh of Hr = B^T (-H) B = U Lambda U^T
    over every eigenvalue."""
    B = horizontal_basis(A)
    lam, U = np.linalg.eigh(B.T @ -H @ B)
    return B @ U @ ((U.T @ B.T @ g) / np.abs(lam)), lam


def random_point(r, k, seed):
    """A random factor A with random frequencies on a complete frame."""
    rng = np.random.default_rng(seed)
    Y = complete_frame(rng, 4 * r * r, r)
    f = rng.random(len(Y))
    f /= f.sum()
    return rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k)), f, Y, rng


class TestHorizontalNewton:
    """The Newton direction solved off the gauge directions vec(A Z), Z
    anti-Hermitian or the identity, along which Phi does not change."""

    @pytest.mark.parametrize("r, k", [(4, 1), (5, 3), (15, 6)])
    def test_basis_is_orthonormal_complement_of_the_gauge(self, r, k):
        rng = np.random.default_rng(r + k)
        A = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
        B = horizontal_basis(A)
        assert B.shape == (2 * r * k, 2 * r * k - k * k - 1)
        assert np.abs(B.T @ B - np.eye(B.shape[1])).max() < 1e-12
        # random anti-Hermitian Z and the identity, drawn here, not the
        # module's generators
        M = rng.normal(size=(8, k, k)) + 1j * rng.normal(size=(8, k, k))
        Zs = [*(M - M.conj().transpose(0, 2, 1)), np.eye(k)]
        for Z in Zs:
            v = as_real(A @ Z)
            assert np.abs(B.T @ v).max() < 1e-12 * np.abs(v).max()

    def test_reduced_derivatives_match_central_differences(self):
        # Phi along B's columns: gr = B^T g and Hr = B^T (-H) B against
        # central differences of Phi and of its gradient, as in
        # TestNewtonPolish.test_derivatives_match_central_differences
        n, r, k = 40, 5, 2
        rng = np.random.default_rng(1)
        Y = (rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))) / np.sqrt(2 * r)
        f = rng.random(n)
        f /= f.sum()

        def unflatten(x):
            return (x[: r * k] + 1j * x[r * k:]).reshape(r, k)

        def phi(x):
            C = unflatten(x)
            p = np.sum(np.abs(Y.conj() @ C) ** 2, axis=1)
            return f @ np.log(p) - np.log(np.vdot(C, C).real)

        def gradient(x):
            return phi_derivatives(unflatten(x), f, Y, Y.conj())[0]

        A = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
        x = as_real(A)
        g, H = phi_derivatives(A, f, Y, Y.conj())
        B = horizontal_basis(A)
        gr, Hr = B.T @ g, B.T @ -H @ B
        steps = 1e-5 * B.T
        gr_fd = np.array([(phi(x + e) - phi(x - e)) / 2e-5 for e in steps])
        Hr_fd = -np.array([B.T @ (gradient(x + e) - gradient(x - e)) / 2e-5
                           for e in steps])
        assert np.abs(gr - gr_fd).max() < 1e-8 * np.abs(gr).max()
        assert np.abs(Hr - Hr_fd).max() < 1e-8 * np.abs(Hr).max()
        # g has no vertical part, and x (the 4 x x^T / N^2 term of H) is vertical
        assert abs(np.linalg.norm(gr) - np.linalg.norm(g)) < 1e-12 * np.linalg.norm(g)
        assert np.abs(B.T @ x).max() < 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("r, k", [(4, 1), (6, 1), (2, 2), (3, 3), (4, 4), (5, 3),
                                      (15, 6)])
    def test_cholesky_direction_is_the_pseudo_inverse(self, r, k):
        # near the optimum of exact data from a rank-k state on a complete
        # frame, -H is positive definite off the gauge, and the linear solve
        # is taken at every factor size
        from gramtomo.maxlik import _newton_direction
        rng = np.random.default_rng(2)
        Y = complete_frame(rng, 4 * r * r, r)
        A0 = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
        f = np.sum(np.abs(Y.conj() @ A0) ** 2, axis=1)
        f /= f.sum()
        A = A0 + 1e-3 * (rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k)))
        D, decrement, eigensolved = _newton_direction(A, f, Y.conj())
        assert not eigensolved
        g, H = phi_derivatives(A, f, Y, Y.conj())
        d, lam = saddle_free_direction(A, g, H)
        assert lam[0] > maxlik.NEWTON_PINV_CUTOFF * lam[-1]
        assert np.abs(as_real(D) - d).max() < 1e-10 * np.abs(d).max()
        assert decrement == pytest.approx(g @ d, rel=1e-10)

    @pytest.mark.parametrize("r, k", [(4, 1), (6, 1), (2, 2), (3, 3), (4, 4), (5, 3),
                                      (15, 6)])
    def test_indefinite_point_takes_the_saddle_free_direction(self, r, k):
        # far from the optimum Hr has eigenvalues of both signs; the direction
        # divides by their absolute values, so it still ascends
        from gramtomo.maxlik import _newton_direction
        A, f, Y, _ = random_point(r, k, 5)
        g, H = phi_derivatives(A, f, Y, Y.conj())
        d, lam = saddle_free_direction(A, g, H)
        assert lam[0] < 0 < lam[-1]
        D, decrement, eigensolved = _newton_direction(A, f, Y.conj())
        assert eigensolved
        assert np.abs(as_real(D) - d).max() < 1e-10 * np.abs(d).max()
        assert decrement == pytest.approx(g @ d, rel=1e-10) and decrement > 0

    @pytest.mark.parametrize("r, k", [(2, 2), (3, 3), (5, 3), (15, 6)])
    def test_indefinite_point_direction_is_horizontal(self, r, k):
        from gramtomo.maxlik import _newton_direction
        A, f, Y, rng = random_point(r, k, 5)
        assert saddle_free_direction(A, *phi_derivatives(A, f, Y, Y.conj()))[1][0] < 0
        D = as_real(_newton_direction(A, f, Y.conj())[0])
        # random anti-Hermitian Z and the identity, drawn here, not the
        # module's generators
        M = rng.normal(size=(8, k, k)) + 1j * rng.normal(size=(8, k, k))
        for Z in [*(M - M.conj().transpose(0, 2, 1)), np.eye(k)]:
            v = as_real(A @ Z)
            assert abs(D @ v) < 1e-12 * np.linalg.norm(D) * np.linalg.norm(v)

    def test_reference_stability_solves_take_no_eigensolve(self, reference_povm,
                                                           cat_target):
        # the reference stability config: Gram d = 3, 8 trials
        from gramtomo import stability_study
        study = stability_study(cat_target, reference_povm, "gram", 3,
                                NoiseModel(kind="poisson", exposure=100000.0, seed=0),
                                trials=8)
        for res in study.results[0]:
            assert res.stop_reason == "gap"
            assert res.newton_steps > 0 and res.newton_fallbacks == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reference_solves_take_the_horizontal_route(self, reference_povm, cat_target,
                                                         seed):
        from gramtomo import pure_density
        ds = generate_counts(pure_density(cat_target), reference_povm,
                             NoiseModel(kind="poisson", exposure=100000.0, seed=seed))
        res = maxlik_solve(ds, reference_povm)
        assert res.stop_reason == "gap"
        assert res.newton_steps > 0 and res.newton_fallbacks == 0



def horizontal_directions(hz):
    """The basis directions of a horizontal Jacobian, lifted one coordinate
    at a time, as the columns of a 2 r k x n_h real matrix."""
    return np.array([as_real(hz.lift(e)) for e in np.eye(hz.jb.shape[1])]).T


class TestHorizontalJacobian:
    """The Jacobian JB of p along the closed-form horizontal basis, against
    central differences of p and random gauge directions drawn here."""

    @pytest.mark.parametrize("r, k", [(4, 1), (3, 3), (5, 3), (15, 6)])
    def test_columns_are_central_differences_of_p(self, r, k):
        # p is quadratic in A, so the central difference is exact to rounding
        A, f, Y, _ = random_point(r, k, 7)
        hz = maxlik._horizontal_jacobian(A, Y.conj())

        def p(C):
            return np.sum(np.abs(Y.conj() @ C) ** 2, axis=1)

        assert np.abs(hz.p - p(A)).max() < 1e-14 * p(A).max()
        assert hz.jb.shape == (len(Y), 2 * r * k - k * k - 1)
        for column, e in zip(hz.jb.T, np.eye(hz.jb.shape[1])):
            D = hz.lift(e)
            assert D.shape == (r, k)
            fd = (p(A + 1e-3 * D) - p(A - 1e-3 * D)) / 2e-3
            assert np.abs(column - fd).max() < 1e-10 * np.abs(hz.jb).max()

    @pytest.mark.parametrize("r, k", [(2, 1), (4, 1), (2, 2), (5, 3), (15, 6)])
    def test_basis_is_orthonormal_and_horizontal(self, r, k):
        rng = np.random.default_rng(10 * r + k)
        A = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
        B = horizontal_directions(maxlik._horizontal_jacobian(A, complete_frame(rng, 2 * r, r)))
        assert B.shape == (2 * r * k, 2 * r * k - k * k - 1)
        assert np.abs(B.T @ B - np.eye(B.shape[1])).max() < 1e-12
        M = rng.normal(size=(8, k, k)) + 1j * rng.normal(size=(8, k, k))
        for Z in [*(M - M.conj().transpose(0, 2, 1)), np.eye(k)]:
            v = as_real(A @ Z)
            assert np.abs(B.T @ v).max() < 1e-12 * np.abs(v).max()

    def test_complete_frame_fixes_every_horizontal_direction(self):
        # dim 4, 4 phases x 51 bins on (-5, 5): the effects span the operators,
        # so p moves along every horizontal direction and rank(JB) is
        # 2 d k - k^2 - 1, the rank-k manifold with its scale taken out
        from gramtomo import HomodyneConfig, build_homodyne_povm
        povm = build_homodyne_povm(
            HomodyneConfig.uniform(phase_count=4, bins=51, x_range=(-5.0, 5.0)), 4)
        rng = np.random.default_rng(4)
        ranks = []
        for k in range(1, 5):
            A = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
            sv = np.linalg.svd(maxlik._horizontal_jacobian(A, povm.vectors.conj()).jb,
                               compute_uv=False)
            ranks.append(int(np.count_nonzero(sv > 1e-9 * sv[0])))
        assert ranks == [6, 11, 14, 15]


class TestOneByOneFactor:
    """A 1 x 1 factor has no horizontal space (k = 1 and k = r are parameters
    of TestHorizontalNewton)."""

    def test_direction_is_zero(self):
        from gramtomo.maxlik import _newton_direction
        rng = np.random.default_rng(0)
        Y = complete_frame(rng, 6, 1)
        f = rng.random(6)
        D, decrement, eigensolved = _newton_direction(np.array([[0.3 + 0.4j]]), f / f.sum(),
                                                      Y.conj())
        assert D.shape == (1, 1) and D[0, 0] == 0.0
        assert decrement == 0.0 and not eigensolved

    def test_one_dimensional_solve_ends_its_polish_at_once(self, monkeypatch):
        # TOL_GAP = 0 never fires, so the run reaches the cap; the first polish
        # finds no direction and is the last
        calls = []
        newton_direction = maxlik._newton_direction

        def counted(*args):
            calls.append(args[0].shape)
            return newton_direction(*args)

        monkeypatch.setattr(maxlik, "TOL_GAP", 0.0)
        monkeypatch.setattr(maxlik, "_newton_direction", counted)
        povm, psi, rho = small_problem()
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=5000.0, seed=5))
        res = maxlik_solve(ds, povm, np.eye(povm.dim, dtype=complex)[:, :1],
                           max_iterations=20)
        assert res.stop_reason == "cap" and res.iterations == 20
        assert res.newton_steps == 0 and calls == [(1, 1)]


class TestTelemetry:
    def test_floor_hits_counted(self):
        # the setup of test_truncation_mismatch_floor_warning; a clean solve's
        # zero count is checked through the CLI in test_stop_fields_written
        povm = PovmSet(np.eye(2, dtype=complex))
        ds = Dataset(counts=np.array([5.0, 1.0]))
        with pytest.warns(RuntimeWarning, match="probability floor") as record:
            res = maxlik_solve(ds, povm, np.eye(2, dtype=complex)[:, :1], max_iterations=50)
        assert res.floor_hits > 0
        assert f"engaged {res.floor_hits} time(s)" in str(record[0].message)

    def test_floor_hits_count_each_accepted_iterate_once(self):
        # the same setup: outcome 2 is floored at every iterate, and the
        # initial state and each of the 50 accepted steps count it once;
        # forming R and the final certificate count nothing
        povm = PovmSet(np.eye(2, dtype=complex))
        ds = Dataset(counts=np.array([5.0, 1.0]))
        with pytest.warns(RuntimeWarning, match="probability floor"):
            res = maxlik_solve(ds, povm, np.eye(2, dtype=complex)[:, :1], max_iterations=50)
        assert res.floor_hits == len(res.log_likelihood) == 51

    @pytest.mark.parametrize("counts, d", [([5.0, 1.0, 1.0], 1), ([5.0, 1.0, 1.0], 2),
                                           ([5.0, 0.0, 1.0], 1), ([5.0, 3.0, 2.0], 3)])
    def test_floor_hits_at_most_the_observed_outcomes_per_iterate(self, counts, d):
        povm = PovmSet(np.eye(3, dtype=complex))
        ds = Dataset(counts=np.array(counts))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = maxlik_solve(ds, povm, np.eye(3, dtype=complex)[:, :d], max_iterations=50)
        assert res.floor_hits <= np.count_nonzero(ds.counts) * len(res.log_likelihood)

    @pytest.mark.parametrize("phases, bins, half_width, exposure, basis, d", [
        (6, 51, 5.0, 1e5, "full", None), (6, 51, 5.0, 1e5, "gram", 5),
        (6, 51, 5.0, 1e5, "fock", 4), (2, 51, 2.0, 1e5, "gram", 12),
        (1, 51, 2.0, 1e3, "gram", 9)])
    def test_recorded_telemetry_matches_the_independent_routes(
            self, phases, bins, half_width, exposure, basis, d):
        # the last log-likelihood and born_residual are recorded in rescaled
        # coordinates; the module functions read them off the ambient rho
        from gramtomo import (HomodyneConfig, build_homodyne_povm, cat_state, pure_density,
                              subspace_basis)
        povm = build_homodyne_povm(HomodyneConfig.uniform(
            phase_count=phases, bins=bins, x_range=(-half_width, half_width)), 15)
        ds = generate_counts(pure_density(cat_state(2.0, "even", 15)), povm,
                             NoiseModel(kind="poisson", exposure=exposure, seed=0))
        subspace = None if d is None else subspace_basis(basis, d, povm)
        res = maxlik_solve(ds, povm, subspace=subspace)
        ll = log_likelihood(res.rho, ds, povm) / ds.counts.sum()
        assert abs(res.log_likelihood[-1] - ll) <= 1e-14 * abs(ll)
        assert abs(res.born_residual - born_residual(res.rho, ds, povm)) <= 1e-15


class TestPolishSchedule:
    def test_interval_sized_to_the_frame(self):
        # ceil(8 r^4 / N) R sigma R steps cost about one Newton eigensolve;
        # the reference full basis (r = 15, N = 306) keeps the cap of 100
        assert maxlik._polish_interval(15, 306) == maxlik.POLISH_INTERVAL == 100
        assert [maxlik._polish_interval(r, 306) for r in range(2, 9)] == [
            1, 3, 7, 17, 34, 63, 100]

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_gram_solves_certify_early(self, reference_povm, cat_target, d,
                                             monkeypatch):
        # a polish held off past the cap leaves the R sigma R iteration alone,
        # which certifies the same optimum
        from gramtomo import pure_density, subspace_basis
        basis = subspace_basis("gram", d, reference_povm)
        datasets = [generate_counts(pure_density(cat_target), reference_povm,
                                    NoiseModel(kind="poisson", exposure=100000.0, seed=seed))
                    for seed in range(4)]
        polished = [maxlik_solve(ds, reference_povm, subspace=basis) for ds in datasets]
        monkeypatch.setattr(maxlik, "_polish_interval",
                            lambda r, n: maxlik.MAX_ITERATIONS + 1)
        unpolished = [maxlik_solve(ds, reference_povm, subspace=basis) for ds in datasets]
        for res, plain in zip(polished, unpolished):
            assert res.stop_reason == plain.stop_reason == "gap"
            assert 0 < res.newton_steps and res.iterations <= 15
            assert plain.newton_steps == 0
            assert abs(res.log_likelihood[-1] - plain.log_likelihood[-1]) <= 2 * TOL_GAP

    @pytest.mark.parametrize("phases, bins, half_width", [(2, 51, 2.0), (6, 9, 5.0),
                                                          (1, 51, 2.0)])
    def test_ill_conditioned_gram_solves_certify(self, phases, bins, half_width):
        from gramtomo import (HomodyneConfig, build_homodyne_povm, cat_state, pure_density,
                              subspace_basis)
        povm = build_homodyne_povm(HomodyneConfig.uniform(
            phase_count=phases, bins=bins, x_range=(-half_width, half_width)), 15)
        rho = pure_density(cat_state(2.0, "even", 15))
        basis = subspace_basis("gram", 6, povm)
        for seed in range(4):
            for exposure in (1e3, 1e5):
                ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=exposure,
                                                           seed=seed))
                for d in range(2, 7):
                    res = maxlik_solve(ds, povm, subspace=basis[:, :d])
                    assert res.stop_reason == "gap", (seed, exposure, d)
