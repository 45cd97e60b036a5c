from __future__ import annotations

import warnings

import numpy as np
import pytest

from gramtomo import (EmptyMeasurementError, HomodyneConfig, InvalidInputError,
                      NumericalConsistencyError, PartialInversionWarning, PovmSet,
                      build_homodyne_povm, dual_frame, expected_probabilities,
                      from_coords, gram_operator, gram_spectrum, hadamard_identity_check,
                      linear_inversion, modal_weighting, operator_frame,
                      operator_frame_apply, restrict_to_subspace, to_coords)
from gramtomo.frames import _class_matrices, _effect_coords, frame_values
from gramtomo.povm import SUPPORT_THRESHOLD, GramValues, born_probabilities, gram_values
from gramtomo.serialize import decode_povm, encode_povm


# the reference POVM's effect vectors are scaled by each of these in the
# identity tests, whose tolerances are relative to the identity's own scale
SCALES = (1.0, 100.0, 1e4)


def random_hermitian(rng, dim):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.conj().T) / 2


def full_rank_homodyne(dim=4):
    # dim phases resolve every coherence band |m - n| <= dim - 1
    conf = HomodyneConfig.uniform(phase_count=dim, bins=31, x_range=(-4.5, 4.5))
    return build_homodyne_povm(conf, dim)


def uniform_povm(dim, phases, bins, half_width):
    return build_homodyne_povm(HomodyneConfig.uniform(phases, bins, (-half_width, half_width)),
                               dim)


def plain_svd_frame(povm):
    """The operator frame as one thin SVD of T built from the full outer products."""
    Y = povm.vectors
    T = to_coords(Y[:, :, None] * Y[:, None, :].conj())
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    rank = int(np.sum(s**2 > SUPPORT_THRESHOLD * s[0]**2))
    return T, s**2, Vt.T, rank, (U[:, :rank] / s[:rank]) @ Vt[:rank]


def round_trip(povm, frame, seed=0):
    """Largest |linear_inversion(p) - C| for a random Hermitian C on the frame's
    support and its exact Born values p, as frames-check measures it."""
    rng = np.random.default_rng(seed)
    C = from_coords(frame.project(to_coords(random_hermitian(rng, povm.dim))), povm.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialInversionWarning)
        estimate = linear_inversion(born_probabilities(C, povm), frame)
    return float(np.abs(estimate - C).max())


class TestHermitianBasis:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_orthonormal_and_complete(self, dim, hermitian_basis):
        B = hermitian_basis(dim)
        assert B.shape == (dim * dim, dim, dim)
        for a in range(dim * dim):
            assert np.abs(B[a] - B[a].conj().T).max() < 1e-14
            for b in range(a, dim * dim):
                ref = 1.0 if a == b else 0.0
                assert np.trace(B[a] @ B[b]).real == pytest.approx(ref, abs=1e-12)

    def test_expansion_roundtrip(self, hermitian_basis):
        # the basis expansion, and to_coords / from_coords against it as oracle
        rng = np.random.default_rng(2)
        for dim in range(1, 7):
            B = hermitian_basis(dim)
            A = np.array([random_hermitian(rng, dim) for _ in range(3)])
            coords = np.array([[np.trace(b @ a).real for b in B] for a in A])
            back = np.einsum("a,amn->mn", coords[0], B)
            assert np.abs(back - A[0]).max() < 1e-12
            assert np.abs(to_coords(A[0]) - coords[0]).max() < 1e-12
            assert np.abs(to_coords(A) - coords).max() < 1e-12
            assert np.abs(from_coords(coords[0], dim) - back).max() < 1e-12
            assert np.abs(from_coords(coords, dim)
                          - np.einsum("ka,amn->kmn", coords, B)).max() < 1e-12
            assert np.abs(from_coords(to_coords(A), dim) - A).max() < 1e-12

    def test_from_coords_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            from_coords(np.zeros(8), 3)


class TestDualFrame:
    def test_orthonormal_self_dual(self):
        povm = PovmSet(np.eye(3, dtype=complex))
        analysis = gram_spectrum(povm)
        dual = dual_frame(povm, analysis)
        assert np.abs(dual - povm.vectors).max() < 1e-12

    def test_hand_computed_duals(self):
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        povm = PovmSet(np.array([e0, e0, e1]))
        analysis = gram_spectrum(povm)
        dual = dual_frame(povm, analysis)
        expected = np.array([e0 / 2, e0 / 2, e1])
        assert np.abs(dual - expected).max() < 1e-12

    def test_reference_projector_reassembly_both_orderings(self, reference_povm):
        # the duals scale as 1 / scale, so the projector needs no scale
        for scale in SCALES:
            povm = PovmSet(scale * reference_povm.vectors)
            analysis = gram_spectrum(povm)
            dual = dual_frame(povm, analysis)
            Us = analysis.support_vectors
            P = Us @ Us.conj().T
            left = povm.vectors.T @ dual.conj()
            right = dual.T @ povm.vectors.conj()
            assert np.abs(left - P).max() < 1e-9, scale
            assert np.abs(left - right).max() < 1e-10, scale

    def test_zero_support(self):
        povm = PovmSet(np.zeros((2, 3), dtype=complex))
        with pytest.raises(EmptyMeasurementError):
            dual_frame(povm, gram_spectrum(povm))


class TestFrameReconstruct:
    """The synthesis sum_i <y~_i|psi> |y_i> projects psi onto the frame span."""

    def test_orthonormal_frame_identity(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        analysis = gram_spectrum(povm)
        dual = dual_frame(povm, analysis)
        rng = np.random.default_rng(7)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        assert np.abs(povm.vectors.T @ (dual.conj() @ psi) - psi).max() < 1e-12

    def test_orthogonal_to_span_gives_zero(self):
        povm = PovmSet(np.eye(3, dtype=complex)[:2])
        analysis = gram_spectrum(povm)
        dual = dual_frame(povm, analysis)
        psi = np.array([0.0, 0.0, 1.0], dtype=complex)
        assert np.abs(povm.vectors.T @ (dual.conj() @ psi)).max() < 1e-14

    def test_reference_frame_projects(self, reference_povm, reference_analysis):
        dual = dual_frame(reference_povm, reference_analysis)
        rng = np.random.default_rng(12)
        psi = rng.normal(size=15) + 1j * rng.normal(size=15)
        psi /= np.linalg.norm(psi)
        Us = reference_analysis.support_vectors
        expected = Us @ (Us.conj().T @ psi)
        synthesis = reference_povm.vectors.T @ (dual.conj() @ psi)
        assert np.abs(synthesis - expected).max() < 1e-9


class TestOperatorFrame:
    def test_complete_projectors_fix_diagonals(self):
        povm = PovmSet(np.eye(3, dtype=complex))
        A = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert np.abs(operator_frame_apply(A, povm) - A).max() < 1e-14

    def test_identity_input_trace_identity(self, reference_povm):
        S_I = operator_frame_apply(np.eye(15, dtype=complex), reference_povm)
        Y = reference_povm.vectors
        norms = np.sum(np.abs(Y) ** 2, axis=1)
        expected = (norms[:, None] * Y).T @ Y.conj()
        assert np.abs(S_I - expected).max() < 1e-12

    def test_non_hermitian_operator_rejected(self, reference_povm):
        A = np.zeros((15, 15), dtype=complex)
        A[0, 1] = 1.0
        with pytest.raises(InvalidInputError, match="Hermitian"):
            operator_frame_apply(A, reference_povm)
        with pytest.raises(InvalidInputError, match="Hermitian"):
            operator_frame_apply(1j * np.eye(15), reference_povm)

    def test_self_adjoint_hilbert_schmidt(self, make_random_povm, reference_povm):
        # <S(A), B> scales as scale^4: its rounding is measured relative to it
        for scale in SCALES:
            rng = np.random.default_rng(21)
            for dim in (3, 5, 15):
                povm = reference_povm if dim == 15 else make_random_povm(rng, dim, 2 * dim * dim)
                povm = PovmSet(scale * povm.vectors)
                A, B = random_hermitian(rng, dim), random_hermitian(rng, dim)
                lhs = np.trace(operator_frame_apply(A, povm).conj().T @ B)
                rhs = np.trace(A.conj().T @ operator_frame_apply(B, povm))
                assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (scale, dim)
                if scale == 1.0:
                    assert abs(lhs - rhs) < 1e-10, dim

    def test_matrix_matches_apply_brute_force(self, make_random_povm, hermitian_basis):
        rng = np.random.default_rng(31)
        for dim, n in [(2, 5), (3, 9), (4, 16)]:
            povm = make_random_povm(rng, dim, n)
            T = _effect_coords(povm.vectors)
            B = hermitian_basis(dim)
            A = random_hermitian(rng, dim)
            coords = np.array([np.trace(b @ A).real for b in B])
            s_matrix = T.T @ T
            via_matrix = np.einsum("a,amn->mn", s_matrix @ coords, B)
            direct = operator_frame_apply(A, povm)
            assert np.abs(via_matrix - direct).max() < 1e-10

    def test_coefficients_match_basis_loop(self, reference_povm, hermitian_basis):
        Y = reference_povm.vectors
        B = hermitian_basis(15)
        T = np.empty((reference_povm.n_outcomes, B.shape[0]))
        for a in range(B.shape[0]):
            T[:, a] = np.einsum("ij,ij->i", Y.conj() @ B[a], Y).real
        assert np.abs(_effect_coords(Y) - T).max() < 1e-15

    def test_s_spectrum_equals_q_spectrum(self, reference_povm):
        from gramtomo import gram_matrix_operator_space
        frame = operator_frame(reference_povm)
        q = np.linalg.eigvalsh(gram_matrix_operator_space(reference_povm))[::-1]
        s = frame.eigenvalues
        k = min(q.size, s.size)
        assert np.abs(q[:k] - s[:k]).max() < 1e-9

    def test_reference_operator_rank(self, reference_povm):
        # 6 phases resolve the coherence bands |m-n| mapped to 12 distinct
        # rotation frequencies: sum over resolved bands of (15 - |k|) = 144
        frame = operator_frame(reference_povm)
        assert frame.rank == 144

    def test_reference_population_aliasing(self, reference_povm):
        # coordinate n is the population rho_nn, so 1 - P[n, n] is its weight
        # outside the frame's range; populations 9 to 14 lie in it
        P = operator_frame(reference_povm).project(np.eye(225))
        outside = 1.0 - np.diag(P)[:15]
        low = [0.0062, 0.1286, 0.3559, 0.3151, 0.3885, 0.3151, 0.3559, 0.1286, 0.0062]
        assert np.abs(outside[:9] - low).max() < 5e-5
        assert np.abs(outside[9:]).max() <= 1e-12
        # |0><0| has 7.9% of its norm outside the range
        vacuum = to_coords(np.diag(np.eye(15)[0]))
        assert 0.078 <= np.linalg.norm(vacuum - P @ vacuum) / np.linalg.norm(vacuum) <= 0.080

    def test_dual_effects_invert_on_support(self):
        povm = full_rank_homodyne(3)
        frame = operator_frame(povm)
        assert frame.rank == 9
        for i in (0, 17, 44):
            # the dual effect of outcome i is the dual sum of the unit vector e_i
            pi_tilde = from_coords(frame.dual_sum(np.eye(povm.n_outcomes)[i]), 3)
            back = operator_frame_apply(pi_tilde, povm)
            y = povm.vectors[i]
            assert np.abs(back - np.outer(y, y.conj())).max() < 1e-9


# (dim, phases, bins, half width) of uniform homodyne measurements: the
# reference, 6 x 9 and 2 x 51 on (-2, 2), which the bins and window cap below
# P (2d - P), and dim 30 with 12 x 101
BLOCK_MEASUREMENTS = [(15, 6, 51, 5.0), (15, 6, 9, 5.0), (15, 2, 51, 2.0), (30, 12, 101, 8.0)]
# and edge cases: even bins, P = 1, one bin, dim 1
EDGE_MEASUREMENTS = [(15, 6, 51, 5.0), (4, 3, 13, 4.0), (15, 2, 50, 2.0), (7, 1, 7, 3.0),
                     (15, 5, 21, 5.0), (15, 3, 1, 5.0), (1, 6, 51, 5.0)]


class TestBlockFrame:
    """A uniform-phase homodyne POVM on a symmetric window decomposes by
    coherence-order class; the full SVD of T is the oracle."""

    @pytest.mark.parametrize("dim, phases, bins, half_width", BLOCK_MEASUREMENTS)
    def test_spectrum_matches_full_svd(self, dim, phases, bins, half_width):
        povm = uniform_povm(dim, phases, bins, half_width)
        assert len(list(_class_matrices(povm))) == phases + 1
        frame = operator_frame(povm)
        full = np.linalg.svd(_effect_coords(povm.vectors), compute_uv=False)**2
        k = frame.eigenvalues.size
        assert k <= full.size
        assert np.abs(frame.eigenvalues - full[:k]).max() <= 1e-12 * full[0]
        assert np.all(full[k:] <= 1e-12 * full[0])
        assert frame.rank == int(np.sum(full > SUPPORT_THRESHOLD * full[0]))

    # the dim-30 cases keep the ids of their phase count alone
    @pytest.mark.parametrize("dim, phases", [pytest.param(30, p, id=str(p))
                                             for p in (2, 3, 4, 6, 8, 12, 16)]
                             + [(50, 16), (50, 24)])
    def test_rank_is_p_times_2d_minus_p(self, dim, phases):
        # Leonhardt and Munroe, PRA 54, 3682 (1996): P phases determine
        # P (2d - P) real parameters of a dim-d state, given enough bins and window
        frame = operator_frame(uniform_povm(dim, phases, 101, 8.0))
        assert frame.rank == phases * (2 * dim - phases)

    @pytest.mark.parametrize("dim, phases, bins, half_width", EDGE_MEASUREMENTS)
    def test_blocks_partition_and_decouple(self, dim, phases, bins, half_width):
        povm = uniform_povm(dim, phases, bins, half_width)
        halves = [half for _, class_halves in _class_matrices(povm) for half in class_halves]
        cols = np.concatenate([c for c, _, _ in halves])
        assert np.unique(cols).size == cols.size
        for _, (wave, fold), _ in halves:
            W = np.kron(wave[:, None], fold)
            assert np.abs(W.T @ W - np.eye(W.shape[1])).max(initial=0.0) < 1e-14
        T = _effect_coords(povm.vectors)
        scale = np.linalg.norm(T, 2)**2
        for b, (cols_b, _, _) in enumerate(halves):
            for cols_c, _, _ in halves[b + 1:]:
                assert np.abs(T[:, cols_b].T @ T[:, cols_c]).max(initial=0.0) <= 1e-14 * scale
        # the Im columns of classes 0 and P, and every column of a class without
        # rows (an odd class of one bin), are in no half
        outside = np.setdiff1d(np.arange(dim * dim), cols)
        assert np.abs(T[:, outside]).max(initial=0.0) <= 1e-14 * np.abs(T).max()

    # the reference heads both lists
    @pytest.mark.parametrize("dim, phases, bins, half_width",
                             BLOCK_MEASUREMENTS + EDGE_MEASUREMENTS[1:])
    def test_blockwise_apply_matches_dense_arrays(self, dim, phases, bins, half_width):
        # the support projector P is symmetric and idempotent with trace the
        # rank, and the dual sum of exact data T c is P c: the worst cases,
        # 2 x 51 and 2 x 50 on (-2, 2), read 1.6e-11 and 2.0e-11 of max |c|
        povm = uniform_povm(dim, phases, bins, half_width)
        frame = operator_frame(povm)
        projector = frame.project(np.eye(dim**2))
        assert np.abs(projector - projector.T).max() <= 1e-12
        assert np.abs(projector @ projector - projector).max() <= 1e-12
        assert np.trace(projector) == pytest.approx(frame.rank, abs=1e-10)
        rng = np.random.default_rng(dim * phases * bins)
        c = to_coords(random_hermitian(rng, dim))
        p = _effect_coords(povm.vectors) @ c
        assert np.abs(frame.dual_sum(p) - frame.project(c)).max() <= 1e-10 * np.abs(c).max()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate = linear_inversion(p, frame)
        assert np.array_equal(estimate, from_coords(frame.dual_sum(p), dim))
        assert len(caught) == (frame.rank < dim * dim)

    @pytest.mark.parametrize("dim, phases, bins, half_width",
                             [(15, 2, 51, 2.0), (30, 6, 51, 5.0)])
    def test_ill_conditioned_round_trip(self, dim, phases, bins, half_width):
        # one SVD of T reads 1.0e-10 and 2.7e-11 here; blocks split by column
        # alone, or compressed by phase without the bin fold, miss 1e-9
        povm = uniform_povm(dim, phases, bins, half_width)
        assert round_trip(povm, operator_frame(povm)) <= 1e-9

    @pytest.mark.parametrize("povm", [
        build_homodyne_povm(HomodyneConfig(phases=(0.0, 0.4, 0.9, 1.5, 2.2, 2.8), bins=21,
                                           x_range=(-5.0, 5.0)), 8),
        build_homodyne_povm(HomodyneConfig.uniform(6, 21, (-5.0, 5.5)), 8),
        PovmSet(np.eye(6, dtype=complex)),
        decode_povm(encode_povm(uniform_povm(8, 6, 21, 5.0))),
        restrict_to_subspace(uniform_povm(8, 6, 21, 5.0), np.eye(8, dtype=complex)[:, :6]),
    ], ids=["explicit-phases", "asymmetric-range", "projective", "povm-file", "restricted"])
    def test_single_block_equals_plain_svd(self, povm):
        (X, [(cols, rows, sign)]), = _class_matrices(povm)
        T, eigenvalues, eigenvectors, rank, dual = plain_svd_frame(povm)
        assert np.array_equal(X, T)
        assert np.array_equal(cols, np.arange(povm.dim**2)) and rows is None and sign is None
        frame = operator_frame(povm)
        assert np.array_equal(frame.eigenvalues, eigenvalues)
        (_, _, _, _, Vt), = frame.blocks
        assert np.array_equal(Vt.T, eigenvectors)
        assert frame.rank == rank
        p = np.random.default_rng(povm.n_outcomes).uniform(size=povm.n_outcomes)
        assert np.array_equal(frame.dual_sum(p), dual.T @ p)

    def test_restricted_povm_drops_the_recorded_config(self, reference_povm):
        assert reference_povm.homodyne is not None
        basis = gram_spectrum(reference_povm).eigenvectors[:, :5]
        assert restrict_to_subspace(reference_povm, basis).homodyne is None


# the four producers of a frame operator's spectrum and support: G from the
# singular values alone and with vectors, S with its blocks and from values alone
PRODUCERS = [gram_values, gram_spectrum, operator_frame, frame_values]


class TestSupportRule:
    """povm._support decides the support of G and of S for every producer."""

    @pytest.mark.parametrize("produce", PRODUCERS, ids=lambda f: f.__name__)
    def test_threshold_read_at_call_time(self, produce, reference_povm, monkeypatch):
        default = produce(reference_povm)
        monkeypatch.setattr("gramtomo.povm.SUPPORT_THRESHOLD", 0.5)
        values = produce(reference_povm)
        assert isinstance(values, GramValues)
        lam = values.eigenvalues
        assert values.threshold == 0.5 * lam[0]
        assert values.rank == int(np.sum(lam > 0.5 * lam[0]))
        # G is flat on the reference (lambda_15 / lambda_1 = 0.80); S is not
        assert (values.rank < default.rank) == (produce in (operator_frame, frame_values))

    def test_frame_support_blocks_follow_the_rule(self, reference_povm, monkeypatch):
        monkeypatch.setattr("gramtomo.povm.SUPPORT_THRESHOLD", 0.5)
        frame = operator_frame(reference_povm)
        projector = frame.project(np.eye(225))
        assert np.trace(projector) == pytest.approx(frame.rank, abs=1e-9)

    @pytest.mark.parametrize("produce", PRODUCERS, ids=lambda f: f.__name__)
    def test_records_compare_by_identity(self, produce, reference_povm):
        # records of arrays: equal only to themselves, and hashable
        values = produce(reference_povm)
        assert values == values and values != produce(reference_povm)
        assert len({values, values}) == 1

    @pytest.mark.parametrize("produce", PRODUCERS, ids=lambda f: f.__name__)
    def test_zero_support_refused(self, produce):
        with pytest.raises(EmptyMeasurementError, match="^Gram operator has zero support$"):
            produce(PovmSet(np.zeros((4, 3), dtype=complex)))


class TestLinearInversion:
    def test_complete_projective_recovers_diagonal(self):
        povm = PovmSet(np.eye(4, dtype=complex))
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        p = expected_probabilities(rho, povm)
        # rank 4 < 16: only the diagonal band is recoverable
        with pytest.warns(PartialInversionWarning):
            est = linear_inversion(p, operator_frame(povm))
        assert np.abs(np.diag(est) - np.diag(rho)).max() < 1e-12

    def test_full_rank_round_trip(self):
        povm = full_rank_homodyne(4)
        frame = operator_frame(povm)
        assert frame.rank == 16
        rng = np.random.default_rng(8)
        rho = random_hermitian(rng, 4)
        rho = rho @ rho.conj().T
        rho /= np.trace(rho).real
        p = expected_probabilities(rho, povm)
        est = linear_inversion(p, frame)
        assert np.abs(est - rho).max() < 1e-8

    def test_partial_inversion_warns_with_projector(self, reference_povm):
        frame = operator_frame(reference_povm)
        p = np.ones(reference_povm.n_outcomes) / reference_povm.n_outcomes
        with pytest.warns(PartialInversionWarning) as rec:
            linear_inversion(p, frame)
        assert rec[0].message.args == (
            "operator frame rank 144 < 225: inversion recovers only the support component",)
        proj = frame.project(np.eye(225))
        assert proj.shape == (225, 225)
        assert np.abs(proj @ proj - proj).max() < 1e-9

    def test_rank_deficient_recovers_support_component(self, reference_povm, cat_target,
                                                        hermitian_basis):
        from gramtomo import pure_density
        frame = operator_frame(reference_povm)
        rho = pure_density(cat_target)
        p = expected_probabilities(rho, reference_povm)
        with pytest.warns(PartialInversionWarning):
            est = linear_inversion(p, frame)
        B = hermitian_basis(15)
        coords = np.array([np.trace(b @ rho).real for b in B])
        rho_proj = np.einsum("a,amn->mn", frame.project(coords), B)
        assert np.abs(est - rho_proj).max() < 1e-8

    def test_noisy_data_goes_negative(self):
        from gramtomo import cat_state, pure_density
        from gramtomo.simulate import NoiseModel, generate_counts
        povm = full_rank_homodyne(4)
        rho = pure_density(cat_state(1.2, "even", 4))
        ds = generate_counts(rho, povm, NoiseModel(kind="poisson", exposure=2000.0, seed=5))
        est = linear_inversion(ds.frequencies, operator_frame(povm))
        assert np.linalg.eigvalsh(est).min() < 0

    def test_length_mismatch(self, reference_povm):
        with pytest.raises(InvalidInputError):
            linear_inversion(np.ones(5), operator_frame(reference_povm))

    def test_class_route_reads_only_the_phase_zero_effects(self, reference_povm,
                                                           monkeypatch):
        # the frame, its values, its projection and the inversion take the
        # coordinates of the 51 phase-0 effects, never of all 306
        from gramtomo import frames
        rows = []

        def recorder(Y):
            rows.append(Y.shape[0])
            return _effect_coords(Y)

        monkeypatch.setattr(frames, "_effect_coords", recorder)
        frame = operator_frame(reference_povm)
        frame_values(reference_povm)
        frame.project(np.ones(225))
        with pytest.warns(PartialInversionWarning):
            linear_inversion(np.ones(306) / 306, frame)
        assert rows == [51, 51]


class TestHadamardIdentity:
    def test_random_rank_one_povms(self, make_random_povm):
        rng = np.random.default_rng(42)
        for _ in range(10):
            povm = make_random_povm(rng, int(rng.integers(2, 7)), int(rng.integers(2, 15)))
            assert hadamard_identity_check(povm) < 1e-14

    def test_orthonormal_frame_both_identity(self):
        povm = PovmSet(np.eye(5, dtype=complex))
        assert hadamard_identity_check(povm) == 0.0

    def test_reference_povm(self, reference_povm):
        assert hadamard_identity_check(reference_povm) < 1e-14


class TestModalWeighting:
    def test_identity_gram(self):
        povm = PovmSet(np.eye(3, dtype=complex))
        analysis = gram_spectrum(povm)
        rng = np.random.default_rng(3)
        rho = random_hermitian(rng, 3)
        modes, weighted = modal_weighting(rho, analysis)
        assert np.abs(modes - rho).max() < 1e-12
        assert np.abs(weighted - rho).max() < 1e-12

    def test_rank_one_gram(self):
        y = np.array([1.0, 0.0], dtype=complex)
        analysis = gram_spectrum(PovmSet(np.sqrt(3.0) * y[None, :]))
        rng = np.random.default_rng(4)
        rho = random_hermitian(rng, 2)
        _, weighted = modal_weighting(rho, analysis)
        assert abs(weighted[0, 0]) > 0
        assert np.abs(weighted[1:, :]).max() < 1e-14
        assert np.abs(weighted[:, 1:]).max() < 1e-14

    def test_reference_congruence(self, reference_povm):
        # G rho G scales as scale^4: its rounding is measured relative to it
        rho = random_hermitian(np.random.default_rng(9), 15)
        for scale in SCALES:
            povm = PovmSet(scale * reference_povm.vectors)
            analysis = gram_spectrum(povm)
            _, weighted = modal_weighting(rho, analysis)
            # G summed from the effects, independent of the SVD behind the analysis
            G = gram_operator(povm)
            GrhoG = G @ rho @ G
            U = analysis.eigenvectors
            deviation = np.abs(U @ weighted @ U.conj().T - GrhoG).max()
            assert deviation <= 1e-12 * np.abs(GrhoG).max(), scale
            if scale == 1.0:
                assert deviation < 1e-9

    def test_dimension_mismatch(self, reference_analysis):
        with pytest.raises(InvalidInputError):
            modal_weighting(np.eye(4, dtype=complex), reference_analysis)
