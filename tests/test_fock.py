from __future__ import annotations

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gramtomo import fock
from gramtomo import (DegenerateStateError, InvalidInputError, NumericalConsistencyError,
                      PhaseSpaceGrid, cat_state, coherent_state, fidelity, fock_state,
                      hermite_functions, kept_weight, pure_density, wigner,
                      wigner_points)


def mp_hermite_function(n: int, x) -> mpmath.mpf:
    """Extended-precision psi_n(x) by the same normalized recurrence."""
    x = mpmath.mpf(x)
    prev = mpmath.mpf(0)
    cur = mpmath.pi ** mpmath.mpf("-0.25") * mpmath.exp(-x * x / 2)
    for k in range(n):
        nxt = mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * x * cur \
            - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev
        prev, cur = cur, nxt
    return cur


class TestHermiteFunctions:
    def test_ground_state_closed_form(self):
        xs = np.linspace(-3, 3, 13)
        psi = hermite_functions(xs, 0)
        assert np.allclose(psi[0], np.pi ** -0.25 * np.exp(-xs ** 2 / 2), atol=1e-14)

    def test_against_extended_precision(self):
        with mpmath.workdps(50):
            for n, x in [(14, 4.9), (10, 0.3), (25, -6.1)]:
                ref = float(mp_hermite_function(n, x))
                got = hermite_functions(x, n)[n]
                assert got == pytest.approx(ref, abs=1e-12)

    def test_orthonormality_on_fine_grid(self):
        xs = np.linspace(-8, 8, 1601)
        dx = xs[1] - xs[0]
        psi = hermite_functions(xs, 10)
        overlap = dx * psi @ psi.T
        assert np.abs(overlap - np.eye(11)).max() < 1e-3

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            hermite_functions(0.0, -1)
        with pytest.raises(InvalidInputError):
            hermite_functions(np.inf, 3)


class TestCoherentState:
    def test_vacuum_case(self):
        c = coherent_state(0.0, 15)
        assert c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_two_term_closed_form(self):
        c = coherent_state(1.0, 2)
        assert c[0] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert c[1] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_truncation_leak_against_series(self):
        c = coherent_state(2.0, 15)
        with mpmath.workdps(60):
            series = sum(
                mpmath.exp(-4) * mpmath.mpf(4) ** n / mpmath.factorial(n)
                for n in range(15)
            )
            ref = float(series)
        total = float(np.sum(np.abs(c) ** 2))
        assert total == pytest.approx(ref, abs=1e-13)
        assert 0 < 1.0 - total < 1e-4

    def test_normalized_variant(self):
        c = coherent_state(2.0, 15, normalized=True)
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-14)

    def test_complex_amplitude_series(self):
        alpha = 0.7 - 1.1j
        c = coherent_state(alpha, 10)
        n = 7
        ref = np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
        assert c[n] == pytest.approx(ref, abs=1e-14)

    def test_nonfinite_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            coherent_state(complex(np.nan, 0.0), 5)
        with pytest.raises(InvalidInputError):
            coherent_state(np.inf, 5)

    def test_unrepresentable_truncation_rejected(self):
        # at |alpha| = 30 the dim-4 amplitudes are ~1e-192 and their squares
        # underflow; beyond |alpha| = 1.3e154, |alpha|^2 overflows
        for alpha in (30.0, 2e200j):
            with pytest.raises(InvalidInputError, match="dim-4 Fock truncation"):
                coherent_state(alpha, 4, normalized=True)
        assert np.all(coherent_state(2e200, 4) == 0.0)


class TestCatState:
    def test_alpha_zero_even_is_vacuum(self):
        c = cat_state(0.0, "even", 15)
        assert c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_odd_cat_at_zero_degenerate(self):
        with pytest.raises(DegenerateStateError):
            cat_state(0.0, "odd", 15)

    def test_large_alpha_names_the_truncation(self):
        with pytest.raises(InvalidInputError, match="dim-4 Fock truncation") as info:
            cat_state(30.0, "even", 4)
        assert not isinstance(info.value, DegenerateStateError)

    @pytest.mark.parametrize("alpha, parity, dim", [(2.0, "even", 15), (1.2, "even", 4),
                                                    (0.3 + 0.4j, "odd", 2),
                                                    (1e-3, "odd", 2), (20.0, None, 4)])
    def test_kept_weight_against_series(self, alpha, parity, dim):
        # the kept share of the untruncated state's squared norm, at 60 digits
        with mpmath.workdps(60):
            a2 = abs(mpmath.mpc(alpha)) ** 2
            terms = [mpmath.exp(-a2) * a2 ** n / mpmath.factorial(n) for n in range(dim)]
            if parity is None:
                ref = sum(terms)
            else:
                sign = 1 if parity == "even" else -1
                ref = 2 * sum(terms[n] for n in range(dim) if (-1) ** n == sign)
                ref /= 1 + sign * mpmath.exp(-2 * a2)
            ref = float(ref)
        assert kept_weight(alpha, dim, parity) == pytest.approx(ref, rel=1e-12)

    def test_kept_weight_of_wide_truncation_is_one(self):
        assert kept_weight(2.0, 60, "even") == pytest.approx(1.0, abs=1e-14)
        assert kept_weight(2.0, 60) == pytest.approx(1.0, abs=1e-14)

    def test_excluded_parity_bitwise_zero(self):
        even = cat_state(2.0, "even", 15)
        assert np.all(even[1::2] == 0.0)
        odd = cat_state(2.0, "odd", 15)
        assert np.all(odd[0::2] == 0.0)

    def test_normalized(self):
        for parity in ("even", "odd"):
            c = cat_state(2.0, parity, 15)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)

    def test_c0_against_closed_form_normalization(self):
        # N = 1/sqrt(2 (1 + e^{-2|alpha|^2})) before truncation, c_0 of
        # |alpha> + |-alpha> is 2 e^{-|alpha|^2/2}
        alpha = 2.0
        ref = 2.0 * math.exp(-alpha ** 2 / 2.0) / math.sqrt(2.0 * (1 + math.exp(-2 * alpha ** 2)))
        c60 = cat_state(alpha, "even", 60)
        assert c60[0].real == pytest.approx(ref, abs=1e-13)
        # the dim-15 truncation renormalizes inside the truncated space, so
        # c_0 moves only by the half-leak
        c15 = cat_state(alpha, "even", 15)
        assert c15[0].real == pytest.approx(ref, abs=2e-4)

    def test_bad_parity_label(self):
        with pytest.raises(InvalidInputError):
            cat_state(2.0, "both", 15)


class TestFockStateAndFidelity:
    def test_fock_state_basis_vector(self):
        c = fock_state(3, 6)
        assert c[3] == 1.0 and np.linalg.norm(c) == 1.0

    def test_fock_state_out_of_range(self):
        with pytest.raises(InvalidInputError):
            fock_state(6, 6)

    def test_identical_states(self):
        e0 = fock_state(0, 4)
        assert fidelity(e0, pure_density(e0)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_states(self):
        e0, e1 = fock_state(0, 4), fock_state(1, 4)
        assert fidelity(e0, pure_density(e1)) == 0.0

    def test_maximally_mixed_trace_identity(self):
        psi = cat_state(2.0, "even", 15)
        rho = np.eye(15, dtype=complex) / 15
        assert fidelity(psi, rho) == pytest.approx(1.0 / 15, abs=1e-14)

    def test_range_and_purity_characterization(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi = v / np.linalg.norm(v)
            w = rng.normal(size=6) + 1j * rng.normal(size=6)
            phi = w / np.linalg.norm(w)
            f = fidelity(psi, pure_density(phi))
            assert 0.0 <= f <= 1.0
            assert fidelity(psi, pure_density(psi)) == pytest.approx(1.0, abs=1e-12)
            if f > 1.0 - 1e-12:
                assert abs(abs(psi.conj() @ phi) - 1.0) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            fidelity(fock_state(0, 3), np.eye(4) / 4)

    def test_unnormalized_target_rejected(self):
        with pytest.raises(InvalidInputError):
            fidelity(2.0 * fock_state(0, 3), np.eye(3) / 3)


def wigner_oracle(psi: np.ndarray, x: float, p: float) -> float:
    """Defining Fourier integral W = (1/2pi) int psi(x-y/2) psi*(x+y/2) e^{ipy} dy."""
    dim = psi.size

    def wave(u):
        return psi @ hermite_functions(np.asarray(u), dim - 1)

    def integrand_re(y):
        return (wave(x - y / 2) * np.conj(wave(x + y / 2)) * np.exp(1j * p * y)).real

    def integrand_im(y):
        return (wave(x - y / 2) * np.conj(wave(x + y / 2)) * np.exp(1j * p * y)).imag

    re, _ = quad(integrand_re, -14, 14, limit=300)
    im, _ = quad(integrand_im, -14, 14, limit=300)
    assert abs(im) < 1e-12
    return re / (2 * np.pi)


class TestWigner:
    def test_vacuum_peak(self):
        rho = pure_density(fock_state(0, 5))
        val = wigner_points(rho, np.array([0.0]), np.array([0.0]))[0]
        assert val == pytest.approx(1 / np.pi, abs=1e-14)

    def test_fock1_negative_at_origin(self):
        rho = pure_density(fock_state(1, 5))
        val = wigner_points(rho, np.array([0.0]), np.array([0.0]))[0]
        assert val == pytest.approx(-1 / np.pi, abs=1e-14)

    def test_vacuum_grid_integral(self):
        grid = PhaseSpaceGrid(x_range=(-6, 6), p_range=(-6, 6), x_points=201, p_points=201)
        W = wigner(pure_density(fock_state(0, 5)), grid)
        dx = grid.xs[1] - grid.xs[0]
        dp = grid.ps[1] - grid.ps[0]
        assert abs(W.sum() * dx * dp - 1.0) < 1e-3

    def test_cat_interference_peak_against_integral_oracle(self):
        psi = cat_state(2.0, "even", 15)
        rho = pure_density(psi)
        for x, p in [(0.0, 0.0), (1.3, -0.7), (2.0 * np.sqrt(2.0), 0.0)]:
            got = wigner_points(rho, np.array([x]), np.array([p]))[0]
            assert got == pytest.approx(wigner_oracle(psi, x, p), abs=1e-10)
        origin = wigner_points(rho, np.array([0.0]), np.array([0.0]))[0]
        assert origin > 0.25  # constructive fringe of the even cat

    def test_coherent_peak_position(self):
        alpha = 0.8 + 0.5j
        psi = coherent_state(alpha, 30, normalized=True)
        pk = wigner_points(pure_density(psi),
                           np.array([np.sqrt(2) * alpha.real]),
                           np.array([np.sqrt(2) * alpha.imag]))[0]
        assert pk == pytest.approx(1 / np.pi, abs=1e-6)

    def test_linearity(self):
        rho1 = pure_density(fock_state(0, 6))
        rho2 = pure_density(cat_state(1.5, "even", 6))
        a = 0.3
        grid = PhaseSpaceGrid(x_range=(-3, 3), p_range=(-3, 3), x_points=21, p_points=21)
        mix = wigner(a * rho1 + (1 - a) * rho2, grid)
        parts = a * wigner(rho1, grid) + (1 - a) * wigner(rho2, grid)
        assert np.abs(mix - parts).max() < 1e-10

    def test_marginal_matches_wavefunction(self):
        psi = cat_state(2.0, "even", 15)
        grid = PhaseSpaceGrid(x_range=(-5, 5), p_range=(-7, 7), x_points=41, p_points=281)
        W = wigner(pure_density(psi), grid)
        dp = grid.ps[1] - grid.ps[0]
        marginal = W.sum(axis=1) * dp
        wave = psi @ hermite_functions(grid.xs, 14)
        assert np.abs(marginal - np.abs(wave) ** 2).max() < 1e-6

    def test_non_hermitian_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidInputError):
            wigner_points(bad, np.array([0.0]), np.array([0.0]))

    def test_non_unit_trace_rejected_on_grid(self):
        grid = PhaseSpaceGrid(x_range=(-2, 2), p_range=(-2, 2), x_points=5, p_points=5)
        with pytest.raises(InvalidInputError):
            wigner(2 * pure_density(fock_state(0, 3)), grid)

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            PhaseSpaceGrid(x_range=(2, -2), p_range=(-2, 2), x_points=5, p_points=5)
        with pytest.raises(InvalidInputError):
            PhaseSpaceGrid(x_range=(-2, 2), p_range=(-2, 2), x_points=1, p_points=5)


def ladder_wigner(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The displaced-parity kernel ladder that evaluated W before the separable
    expansion: with A = (x + ip)/sqrt(2) the |0><0| kernel is exp(-2|A|^2)/pi,
    and the |m><n| kernels follow by raising recurrences in m and n, kept in
    a two-row ladder. It runs in extended precision (np.clongdouble): in
    double precision it is itself off by up to about 1e-11 at dim 30 on
    (-5, 5)^2, where the expansion stays within 1e-16 of the mpmath oracle."""
    dt = np.clongdouble
    rho = np.asarray(rho, dtype=dt)
    d = rho.shape[0]
    A = (np.asarray(x, dtype=dt) + 1j * np.asarray(p, dtype=dt)) / np.sqrt(dt(2))
    K = np.zeros((2, d) + A.shape, dtype=dt)
    K[0, 0] = np.exp(-2 * np.abs(A) ** 2) / np.pi
    W = rho[0, 0] * K[0, 0]
    for n in range(1, d):
        K[0, n] = 2 * A * K[0, n - 1] / np.sqrt(dt(n))
        W += rho[0, n] * K[0, n] + rho[n, 0] * K[0, n].conj()
    for m in range(1, d):
        K[1, m] = (2 * A.conj() * K[0, m] - np.sqrt(dt(m)) * K[0, m - 1]) / np.sqrt(dt(m))
        W += rho[m, m] * K[1, m]
        for n in range(m + 1, d):
            K[1, n] = (2 * A * K[1, n - 1] - np.sqrt(dt(m)) * K[0, n - 1]) / np.sqrt(dt(n))
            W += rho[m, n] * K[1, n] + rho[n, m] * K[1, n].conj()
        K[0] = K[1]
    return W.real.astype(float)


def laguerre_wigner(rho: np.ndarray, x: float, p: float) -> float:
    """Closed form at 60 digits: the |m><n| kernel, m <= n, is
    (-1)^m/pi sqrt(m!/n!) (2A)^(n-m) L_m^(n-m)(4|A|^2) exp(-2|A|^2)."""
    d = rho.shape[0]
    with mpmath.workdps(60):
        A = (mpmath.mpf(x) + 1j * mpmath.mpf(p)) / mpmath.sqrt(2)
        r2 = 4 * abs(A) ** 2
        total = mpmath.mpc(0)
        for m in range(d):
            for n in range(m, d):
                kernel = ((-1) ** m * mpmath.sqrt(mpmath.factorial(m) / mpmath.factorial(n))
                          * (2 * A) ** (n - m) * mpmath.laguerre(m, n - m, r2)
                          * mpmath.exp(-r2 / 2) / mpmath.pi)
                total += mpmath.mpc(complex(rho[m, n])) * kernel
                if n != m:
                    total += mpmath.mpc(complex(rho[n, m])) * mpmath.conj(kernel)
        assert abs(total.imag) < 1e-40
        return float(total.real)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2  # Hermitian to the last bit
    return rho / np.trace(rho).real


class TestSeparableWigner:
    @pytest.mark.parametrize("dim", [1, 2, 4, 15, 30])
    def test_grid_matches_ladder(self, dim):
        rho = random_density(np.random.default_rng(dim), dim)
        grid = PhaseSpaceGrid(x_range=(-5, 5), p_range=(-5, 5), x_points=81, p_points=81)
        X, P = np.meshgrid(grid.xs, grid.ps, indexing="ij")
        assert np.abs(wigner(rho, grid) - ladder_wigner(rho, X, P)).max() < 1e-13

    def test_dim_30_against_laguerre_closed_form(self):
        rho = random_density(np.random.default_rng(30), 30)
        # the corners of (-5, 5)^2, and the point where the double-precision
        # ladder strays furthest on the reference grid
        points = [(5.0, 5.0), (-5.0, 5.0), (5.0, -5.0), (-5.0, -5.0), (3.25, 2.5)]
        got = wigner_points(rho, np.array([x for x, _ in points]),
                            np.array([p for _, p in points]))
        ref = np.array([laguerre_wigner(rho, x, p) for x, p in points])
        assert np.abs(got - ref).max() < 1e-15

    def test_beam_splitter_blocks_orthogonal(self):
        for total in range(59):
            U = fock._beam_splitter(total)
            assert U.shape == (total + 1, total + 1)
            assert np.abs(U @ U.T - np.eye(total + 1)).max() < 1e-14

    def test_grid_equals_points_on_meshgrid(self):
        rho = random_density(np.random.default_rng(7), 15)
        grid = PhaseSpaceGrid(x_range=(-4, 5), p_range=(-3, 2), x_points=19, p_points=23)
        X, P = np.meshgrid(grid.xs, grid.ps, indexing="ij")
        points = wigner_points(rho, X, P)
        assert points.shape == (19, 23)
        assert np.abs(wigner(rho, grid) - points).max() < 1e-15

    def test_points_broadcast_scalar_p(self):
        rho = random_density(np.random.default_rng(3), 6)
        xs = np.linspace(-2, 2, 9)
        got = wigner_points(rho, xs, 0.5)
        assert got.shape == xs.shape
        assert np.array_equal(got, wigner_points(rho, xs, np.full_like(xs, 0.5)))
        assert np.abs(got - ladder_wigner(rho, xs, 0.5)).max() < 1e-13

    def test_points_empty(self):
        rho = random_density(np.random.default_rng(3), 6)
        assert wigner_points(rho, np.array([]), np.array([])).shape == (0,)
        assert wigner_points(rho, np.zeros((0, 3)), 0.5).shape == (0, 3)

    @pytest.mark.parametrize("dim", [4, 15])
    def test_stack_gives_each_state_grid_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        a = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
        rank_two = a @ a.conj().T
        states = [pure_density(psi / np.linalg.norm(psi)), random_density(rng, dim),
                  rank_two / np.trace(rank_two).real, pure_density(fock_state(dim - 1, dim)),
                  random_density(rng, dim), np.eye(dim) / dim]
        stack = np.reshape(states, (2, 3, dim, dim))
        grid = PhaseSpaceGrid(x_range=(-4, 5), p_range=(-3, 2), x_points=19, p_points=23)
        W = wigner(stack, grid)
        assert W.shape == (2, 3, 19, 23)
        for index in np.ndindex(2, 3):
            assert np.array_equal(W[index], wigner(stack[index], grid))

    @pytest.mark.parametrize("bad", [np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex),
                                     np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)])
    def test_stack_refuses_a_bad_member_as_alone(self, bad):
        grid = PhaseSpaceGrid(x_range=(-2, 2), p_range=(-2, 2), x_points=5, p_points=5)
        with pytest.raises(InvalidInputError) as alone:
            wigner(bad, grid)
        good = pure_density(fock_state(1, 2))
        with pytest.raises(InvalidInputError) as stacked:
            wigner(np.array([good, bad, good]), grid)
        assert str(stacked.value) == str(alone.value)

    def test_grid_bytes_independent_of_blas_threads(self):
        script = ("import hashlib, numpy as np\n"
                  "from gramtomo import PhaseSpaceGrid, wigner\n"
                  "grid = PhaseSpaceGrid((-5, 5), (-5, 5), 81, 81)\n"
                  "for dim in (15, 30):\n"
                  "    a = np.random.default_rng(dim).normal(size=(dim, 2 * dim))\n"
                  "    rho = (a[:, :dim] + 1j * a[:, dim:]) @ (a[:, :dim] - 1j * a[:, dim:]).T\n"
                  "    W = wigner(rho / np.trace(rho).real, grid)\n"
                  "    print(dim, hashlib.sha256(W.tobytes()).hexdigest())\n")
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2
