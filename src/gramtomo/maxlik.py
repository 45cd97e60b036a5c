"""Normalized maximum-likelihood reconstruction: two kinds of step, one certificate.

The estimator maximizes the conditional log-likelihood

    log L = sum_i n_i log(p_i / sum_k p_k),      p_i = <y_i|rho|y_i>,

whose stationarity condition is the extremal equation R(rho) rho = G rho
with R(rho) = sum_i (f_i/p_i) |y_i><y_i| and G = sum_i |y_i><y_i|. The
measurement is first rescaled by G^(-1/2) on its support, read off the
thin SVD of the synthesis matrix Y by povm.gram_spectrum rather than from
G = Y^T conj(Y), whose condition number is that of Y squared. The rescaled
effects sum to the identity on the support to rounding. In rescaled
coordinates the run takes two kinds of step.

The diluted R sigma R step

    sigma <- normalize(R~ sigma R~),   R~ = (1 - eps) I + eps R'(sigma)

preserves positivity by congruence and has the extremal equation as its
fixed point. eps = 1 is tried first and halved (persistently, down to
DILUTION_FLOOR) whenever a step would decrease the likelihood by more than
its rounding, which keeps the recorded likelihood trace non-decreasing to
within rounding on every dataset. It moves each eigenvalue of sigma in
proportion to its own size, so the weak directions of a low-rank optimum
crawl.

After every ceil(8 r^4 / N) R sigma R steps on the N x r rescaled frame,
but at most POLISH_INTERVAL, a Newton polish takes over (_polish_interval
gives the cost model behind the interval). At N = 306 the interval is 1, 3,
7, 17, 34 and 63 for r = 2...7, and the cap of 100 from r = 8 on, the
reference full basis (r = 15) included. The polish sets
sigma ~ A A^H / ||A||^2, with A the eigenvectors of sigma above
FACTOR_CUTOFF times its largest eigenvalue, scaled by their square roots,
and damped Newton steps ascend Phi(A) = sum_i f_i log p_i - log ||A||^2,
which equals the recorded log-likelihood because the rescaled effects are
complete. Each Newton step takes an Armijo backtracking line search, is
accepted only where the likelihood rises to within its rounding and no
observed outcome is floored, and counts as one iteration. The polish ends
at its first step whose predicted ascent is below rounding, where
quadratic convergence has reached the optimum to rounding, or when no step
length rises. An iterate with a floored outcome skips the polish, and a
polish with no step whose predicted ascent is above rounding ends polishing
for the run: at the optimum it would only repeat itself. The schedule does
not depend on TOL_GAP, which only decides where the run stops.

Phi does not change under the gauge A -> A U (U unitary) or the scale
A -> c A, so the Hessian H of Phi has a (k^2 + 1)-dimensional near-null
space, spanned by the vertical directions A Z (Z anti-Hermitian, or Z = I),
and the gradient is orthogonal to it. The Newton direction is solved on the
horizontal space, its orthogonal complement {D : A^H D Hermitian,
tr A^H D = 0}, as in the quotient geometry of low-rank PSD factorizations
(Burer and Monteiro, Math. Program. 95, 329, 2003; Journee, Bach, Absil and
Sepulchre, SIAM J. Optim. 20, 2327, 2010; Absil, Mahony and Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008), at every factor size.
With the factor's SVD A = U diag(s) V^H (U square), that space has an
orthonormal basis B in closed form, n_h = 2 r k - k^2 - 1 directions
D = U K V^H:

- k - 1 diagonal ones, K = diag(t) in the upper k x k block, t orthogonal
  to s;
- two for each pair c < e, with K non-zero only at (c, e) and (e, c), where
  it is (s_e, s_c) / nu_ce or (i s_e, -i s_c) / nu_ce, and
  nu_ce = sqrt(s_c^2 + s_e^2);
- the 2 (r - k) k unit directions, real and imaginary, of the lower
  (r - k) x k block of K.

With Q = conj(Y) U, the Jacobian JB of p along them has the columns
2 (|Q_ic|^2 s_c) t, 2 nu_ce (Re, Im) of conj(Q_ic) Q_ie and
2 s_b (Re, Im) of conj(Q_ia) Q_ib (a >= k > b), one kernel
(_horizontal_jacobian). The reduced gradient and negative Hessian are

    gr = JB^T (f/p),
    Hr = JB^T diag(f/p^2) JB - 2 Re tr(D_a^H Mt D_b) + (2/N) I,
    Mt = Q^H diag(f/p) Q,

three terms: the curvature of the log p_i, the second derivative of the
p_i, which couples two directions only through a shared column of K, and
the scale, N = ||A||^2. The 4 x x^T / N^2 term of H vanishes, since x = A
is vertical, so neither H nor the vertical vectors are formed. The
direction is d = B |Hr|^+ gr, where |Hr|^+ is the pseudo-inverse of the
absolute value of Hr over its eigenvalues above NEWTON_PINV_CUTOFF times
the largest in magnitude (the saddle-free Newton step). A direction of
positive curvature, far from the optimum, is thus ascended along rather
than dropped. A Cholesky factorization of Hr - tau I,
tau = NEWTON_PINV_CUTOFF times a bound on the largest eigenvalue of Hr,
shows where every eigenvalue of Hr is positive and clears the cutoff; there
|Hr|^+ is the inverse, and a linear solve gives d. Elsewhere the direction
takes the eigendecomposition of Hr. A 1 x 1 factor has no horizontal
space: its direction is zero and its polish ends.

The direction does not depend on which orthonormal basis spans the
horizontal space: another is B O, O orthogonal, which takes Hr to
O^T Hr O and gr to O^T gr, keeps the eigenvalues of Hr, and gives the same
B |Hr|^+ B^T. So the Cholesky test, the eigendecomposition and
newton_fallbacks mean what they meant when B came from a QR of the
vertical vectors; only tau, a bound that depends on the basis, and the
rounding move.

The recorded log-likelihood is per unit count, sum_i f_i log p_i with
sum_k p_k = 1 enforced by the rescaling, so its rounding does not grow with
the exposure. Both kinds of step take one rounding rule: a candidate may
fall below the current log L by at most LIKELIHOOD_ROUNDING times
max(1, |log L|).

Because the rescaled effects are complete on the support, concavity of the
likelihood gives the Glancy-Knill-Girard certificate (NJP 14, 095017, 2012)

    log L_max - log L(sigma) <= lambda_max(R'(sigma)) - 1      (per count),

valid at any iterate where no observed outcome sits below the probability
floor; the recorded gap carries an allowance of r * eps * lambda_max for the
rounding of R' and its eigensolve, so that it stays an upper bound at an
iterate that is optimal to rounding. Both kinds of step pass through the same
stop check. The run stops on the first of: this likelihood gap below TOL_GAP
(stop reason "gap", the only convergence rule), a step that lowers the
likelihood even at the floor dilution ("stalled"), or max_iterations
("cap"). The gap rule is the one stop that certifies an optimum on sampled
data, where the ML state cannot reproduce the frequencies exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyDataError, InvalidInputError
from .frames import _pairs
from .povm import (PovmSet, _born, _effect_sum, born_probabilities, gram_operator,
                   gram_spectrum, weighted_effect_sum)

# the solver stops, certified, once the likelihood gap (per count) is below this
TOL_GAP = 1e-10
# the solver stops, uncertified, after this many iterations unless told otherwise
MAX_ITERATIONS = 20000
# the R sigma R step starts undiluted (eps = 1) and halves eps, no lower than
# this, while a step would lower the likelihood
DILUTION_FLOOR = 1.0 / 64.0
# an observed outcome's probability is raised to this multiple of the largest
PROBABILITY_FLOOR = 1e-14

# the R sigma R iteration hands over to a Newton polish of a factor of sigma
# after every _polish_interval(r, N) of its own steps, never more than
# POLISH_INTERVAL; the factor keeps the eigenvalues of sigma above
# FACTOR_CUTOFF times the largest. No cap between 50 and 100 is measurably
# faster at r = 15 with the closed-form Newton direction: eight reference
# solves (N = 306, seeds 200-207, best of 5, one BLAS thread on a 2-core
# host) took a median 198 ms at a cap of 100, 187 at 70 and 200 at 50 over
# 10 alternating runs, with interquartile ranges of about 35 ms, and 70
# and 50 were faster than 100 in only 5 and 6 of the 10; every solve
# certified. Re-deriving the cap from a measured Newton step is open
POLISH_INTERVAL = 100
FACTOR_CUTOFF = 1e-6
# Newton direction: the pseudo-inverse of |Hr| keeps its eigenvalues above this
# multiple of the largest; the linear solve is taken where a Cholesky
# factorization of Hr - tau I, tau this multiple of the largest absolute row
# sum of Hr, shows that every eigenvalue of Hr is positive and clears it
NEWTON_PINV_CUTOFF = 1e-12
# Armijo fraction and the most halvings of a Newton step
NEWTON_ARMIJO = 1e-4
NEWTON_BACKTRACKS = 30
EPS = np.finfo(float).eps
# the per-count log-likelihood is known to this multiple of max(1, |log L|):
# a smaller ascent cannot be seen, and a Newton step may fall by as much
LIKELIHOOD_ROUNDING = 16 * EPS


@dataclass(frozen=True)
class Dataset:
    """Observed counts per POVM outcome, with derived relative frequencies.

    Counts may be real-valued pseudo-counts (exact-probability data), not
    only integers.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1 or counts.size == 0:
            raise EmptyDataError("counts must be a non-empty 1-d array")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise InvalidInputError("counts must be finite and non-negative")
        if counts.sum() <= 0:
            raise EmptyDataError("dataset carries no counts")
        object.__setattr__(self, "counts", counts)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.counts.sum()


@dataclass(frozen=True)
class ReconstructionResult:
    """Converged (or capped) reconstruction with its diagnostics.

    stop_reason is "gap", "stalled" or "cap" (see the module docstring);
    converged is True exactly when it is "gap". likelihood_gap is
    lambda_max(R') - 1 at the returned iterate, with the rounding allowance
    of the module docstring: an upper bound on how far the per-count
    log-likelihood is below its maximum. It is None only when an observed
    outcome is floored there, where lambda_max(R') - 1 bounds nothing.
    born_residual is max_i |p_i - f_i| of the returned iterate in rescaled
    coordinates, where sum_i p_i = 1. iterations counts both kinds of
    step, newton_steps the Newton steps among them. newton_fallbacks counts
    the Newton directions for which the reduced Hessian Hr needed its
    eigendecomposition, where its Cholesky test failed (see the module
    docstring). floor_hits counts, for every accepted iterate (the initial
    state included), its observed outcomes whose probability was raised to
    the floor: one per floored outcome per iterate, the count that the
    RuntimeWarning reports. backtracks counts the refused candidates of
    either kind: an R sigma R candidate that lowers the likelihood (each
    halves eps, or at DILUTION_FLOOR stalls the run) and a Newton candidate
    that fails the Armijo test or floors an outcome (each halves the step).
    A refused candidate counts in backtracks only, never in floor_hits.
    dilution is the final eps of the R sigma R step.
    """

    rho: np.ndarray
    log_likelihood: np.ndarray
    iterations: int
    born_residual: float
    extremal_residual: float
    stop_reason: str
    likelihood_gap: float | None
    newton_steps: int
    newton_fallbacks: int
    floor_hits: int
    backtracks: int
    dilution: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "gap"


def expected_probabilities(rho: np.ndarray, povm: PovmSet) -> np.ndarray:
    """Born-rule outcome probabilities p_i = <y_i|rho|y_i>, clamped at 0.

    Not normalized: for incomplete POVMs sum p_i = Tr(rho G) < Tr(rho).
    """
    if np.shape(rho) != (povm.dim, povm.dim):
        raise InvalidInputError("state dimension does not match the POVM")
    return np.maximum(born_probabilities(rho, povm), 0.0)


def log_likelihood(rho: np.ndarray, dataset: Dataset, povm: PovmSet) -> float:
    """Conditional log-likelihood sum_i n_i log(p_i / sum_k p_k).

    Invariant under rho -> c rho for c > 0 (the ratio form). Outcomes with
    n_i = 0 contribute nothing; an observed outcome with zero probability
    returns -inf with a RuntimeWarning rather than raising.
    """
    if dataset.counts.size != povm.n_outcomes:
        raise InvalidInputError("dataset length does not match POVM outcome count")
    p = expected_probabilities(rho, povm)
    total = p.sum()
    if total <= 0:
        raise InvalidInputError("state assigns zero probability to every outcome")
    n = dataset.counts
    mask = n > 0
    if np.any(p[mask] <= 0):
        warnings.warn("observed outcome has zero probability; log-likelihood is -inf",
                      RuntimeWarning, stacklevel=2)
        return float("-inf")
    return float(np.sum(n[mask] * np.log(p[mask] / total)))


def _floored(p: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, int]:
    """The observed outcomes' probabilities p[mask], raised to PROBABILITY_FLOOR
    times the largest of p (never below 0), and how many were raised."""
    lim = PROBABILITY_FLOOR * max(p.max(), 0.0)
    pm = p[mask]
    hits = int(np.count_nonzero(pm < lim))
    return (np.maximum(pm, lim) if hits else pm), hits


def r_operator(rho: np.ndarray, dataset: Dataset, povm: PovmSet) -> np.ndarray:
    """R(rho) = sum_i (f_i/p_i) |y_i><y_i| over outcomes with f_i > 0, with p_i
    no lower than PROBABILITY_FLOOR times the largest."""
    if dataset.counts.size != povm.n_outcomes:
        raise InvalidInputError("dataset length does not match POVM outcome count")
    f = dataset.frequencies
    mask = f > 0
    w = np.zeros_like(f)
    w[mask] = f[mask] / _floored(born_probabilities(rho, povm), mask)[0]
    return weighted_effect_sum(w, povm)


def restrict_to_subspace(povm: PovmSet, basis: np.ndarray) -> PovmSet:
    """Project every effect vector onto an orthonormal subspace basis.

    basis has shape (dim, d) with orthonormal columns; the returned POVM
    lives in dimension d, with vectors V^H y_i, and its Gram operator
    equals V^H G V.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != povm.dim:
        raise InvalidInputError("basis must be (ambient dim, d)")
    d = basis.shape[1]
    if np.abs(basis.conj().T @ basis - np.eye(d)).max() > 1e-10:
        raise InvalidInputError("basis columns must be orthonormal")
    return PovmSet(povm.vectors @ basis.conj())


def born_residual(rho: np.ndarray, dataset: Dataset, povm: PovmSet) -> float:
    """max_i |p_i / sum_k p_k - f_i|, the fixed-point Born-rule mismatch."""
    p = born_probabilities(rho, povm)
    total = p.sum()
    if total <= 0:
        raise InvalidInputError("state assigns zero probability to every outcome")
    return float(np.abs(p / total - dataset.frequencies).max())


def extremal_residual(rho: np.ndarray, dataset: Dataset, povm: PovmSet) -> float:
    """max-entry |R(rho~) rho~ - G rho~| in the gauge where sum_k p_k = 1.

    Stationarity of the conditional likelihood holds at the scaling
    rho~ = rho / Tr(G rho); at any other scale the residual is O(1) even at
    the exact optimum.
    """
    rho = np.asarray(rho, dtype=complex)
    G = gram_operator(povm)
    scale = np.trace(G @ rho).real
    if scale <= 0:
        raise InvalidInputError("state assigns zero probability to every outcome")
    rho_g = rho / scale
    R = r_operator(rho_g, dataset, povm)
    return float(np.abs(R @ rho_g - G @ rho_g).max())


def _factor(sigma: np.ndarray) -> np.ndarray:
    """A = V_k diag(sqrt(w_k)) over the eigenvalues of sigma above
    FACTOR_CUTOFF times the largest, so that sigma ~ A A^H / ||A||^2."""
    w, V = np.linalg.eigh(sigma)
    keep = w > FACTOR_CUTOFF * w[-1]
    return V[:, keep] * np.sqrt(w[keep])


class _Horizontal(NamedTuple):
    """An orthonormal basis of the horizontal space at A = U[:, :k] diag(s) V^H
    in closed form, and the Jacobian of p along it (see _horizontal_jacobian).

    A direction is D = U K V^H with K an r x k matrix. Its coordinates h are,
    in order: the k - 1 diagonal directions and the real and the imaginary
    direction of each pair c < e, k^2 - 1 directions whose K is zero below
    row k and whose upper k x k blocks of K, transposed, are top; then the
    real and imaginary parts of the lower (r - k) x k block of K, column by
    column.
    """

    jb: np.ndarray  # J B: n x n_h
    p: np.ndarray  # p_i = ||(conj(Y) A)_i||^2
    q: np.ndarray  # Q = conj(Y) U: n x r
    u: np.ndarray  # r x r unitary
    vh: np.ndarray  # V^H, k x k
    top: np.ndarray  # (k^2 - 1, k, k)

    def lift(self, h: np.ndarray) -> np.ndarray:
        """The r x k direction D = U K V^H with horizontal coordinates h."""
        nt, k = self.top.shape[:2]
        kt = np.concatenate([(h[:nt] @ self.top.reshape(nt, k * k)).reshape(k, k),
                             h[nt:].view(complex).reshape(k, len(self.u) - k)], axis=1)
        return self.u @ kt.T @ self.vh


def _horizontal_jacobian(A: np.ndarray, Yc: np.ndarray) -> _Horizontal:
    """The Jacobian JB of p_i = ||(Yc A)_i||^2 along the closed-form
    orthonormal basis B of the horizontal space at A (see the module
    docstring), with the gauge-fixed frame that lifts its coordinates.

    With A = U diag(s) V^H (U square) and Q = Yc U, the columns of JB are
    2 (|Q_ic|^2 s_c) t for the diagonal directions, 2 nu_ce (Re, Im) of
    conj(Q_ic) Q_ie for the pairs c < e, and 2 s_b (Re, Im) of
    conj(Q_ia) Q_ib for the complement (a >= k > b). Each complex column
    pair is written through a complex view of JB, with no temporary of its
    size.
    """
    r, k = A.shape
    U, s, vh = np.linalg.svd(A)
    q = Yc @ U
    qk = q[:, :k]
    sq = qk.real**2 + qk.imag**2
    p = sq @ s**2
    c, e = _pairs(k)
    nt, n = k * k - 1, len(p)
    jb = np.empty((n, nt + 2 * (r - k) * k))
    # t runs over the columns 1..k-1 of the Householder reflection that takes
    # e_0 to w = s / ||s||: an orthonormal basis of the t orthogonal to s
    w = s / math.sqrt(s @ s)
    v = w[1:] / (1.0 + w[0])
    t = np.outer(w, -v)
    t[0] -= v
    t.flat[k - 1:: k] += 1.0
    np.matmul(sq * (2.0 * s), t, out=jb[:, : k - 1])
    nu = np.hypot(s[e], s[c])
    z = qk[:, c]
    np.conjugate(z, out=z)
    z *= 2.0 * nu
    np.multiply(z, qk[:, e], out=jb[:, k - 1: nt].view(complex))
    np.multiply((2.0 * s * qk)[:, :, None], q[:, None, k:].conj(),
                out=jb[:, nt:].view(complex).reshape(n, k, r - k))
    # top[m, j, i] holds K[i, j] of direction m: the diagonal direction m sets
    # (m, j, j), and the real (re) and imaginary (re + 1) direction of each
    # pair set (., e, c) and (., c, e)
    xe, xc = s[e] / nu, s[c] / nu
    top = np.zeros((nt, k, k), dtype=complex)
    ar, re = np.arange(k), np.arange(k - 1, nt, 2)
    top[: k - 1, ar, ar] = t.T
    top[re, e, c], top[re, c, e] = xe, xc
    top[re + 1, e, c], top[re + 1, c, e] = 1j * xe, -1j * xc
    return _Horizontal(jb, p, q, U, vh, top)


def _newton_direction(A: np.ndarray, f: np.ndarray, Yc: np.ndarray):
    """Newton ascent direction of Phi on the horizontal space at A as an
    r x k complex matrix, with the Newton decrement gr^T dr (twice the ascent
    it predicts) and whether Hr needed its eigendecomposition: the
    saddle-free dr = |Hr|^+ gr of the module docstring (Dauphin et al.,
    NeurIPS 2014), by a linear solve where a Cholesky factorization of
    Hr - tau I succeeds, tau = NEWTON_PINV_CUTOFF times the largest absolute
    row sum of Hr."""
    r, k = A.shape
    hz = _horizontal_jacobian(A, Yc)
    nt = k * k - 1
    rf = np.sqrt(f)
    # J B weighted by sqrt(f)/p, in place: Hr starts as JB^T diag(f/p^2) JB
    jw = hz.jb
    jw *= (rf / hz.p)[:, None]
    gr = rf @ jw
    Hr = jw.T @ jw
    # - 2 Re tr(D_a^H Mt D_b), Mt = Q^H diag(f/p) Q: M2 is 2 Mt, and M2 K of
    # the first nt directions, transposed, is kt M2^T; a real matmul of the
    # complex float views sums Re(conj(x) y)
    M2 = (hz.q.conj().T * (2.0 * f / hz.p)) @ hz.q
    kt = hz.top.reshape(nt * k, k)
    Hr[:nt, :nt] -= (hz.top.reshape(nt, k * k).view(float)
                     @ (kt @ M2[:k, :k].T).reshape(nt, k * k).view(float).T)
    cross = (kt @ M2[k:, :k].T).reshape(nt, (r - k) * k).view(float)
    Hr[nt:, :nt] -= cross.T
    Hr[:nt, nt:] -= cross
    # the complement block: I_k (x) [[Re, -Im], [Im, Re]] of M2's lower block,
    # with (re, im) interleaved
    twice = np.empty((r - k, 2, r - k, 2))
    twice[:, 0, :, 0] = twice[:, 1, :, 1] = M2[k:, k:].real
    twice[:, 1, :, 0] = M2[k:, k:].imag
    twice[:, 0, :, 1] = -twice[:, 1, :, 0]
    ar = np.arange(k)
    Hr[nt:, nt:].reshape(k, r - k, 2, k, r - k, 2)[ar, :, :, ar] -= twice
    Hr.flat[:: len(Hr) + 1] += 2.0 / np.vdot(A, A).real
    # a 1 x 1 factor has no horizontal space: Hr is 0 x 0 and d is zero
    tau = NEWTON_PINV_CUTOFF * np.abs(Hr).sum(axis=1).max(initial=0.0)
    # Hr - tau I in place, its diagonal restored after the test
    diagonal = Hr.diagonal().copy()
    Hr.flat[:: len(Hr) + 1] -= tau
    try:
        np.linalg.cholesky(Hr)
        eigensolved = False
    except np.linalg.LinAlgError:
        eigensolved = True
    Hr.flat[:: len(Hr) + 1] = diagonal
    if eigensolved:
        lam, V = np.linalg.eigh(Hr)
        lam = np.abs(lam)
        keep = lam > NEWTON_PINV_CUTOFF * lam.max()
        dr = V[:, keep] @ ((V[:, keep].T @ gr) / lam[keep])
    else:
        dr = np.linalg.solve(Hr, gr)
    return hz.lift(dr), float(gr @ dr), eigensolved


def _polish_interval(r: int, n_outcomes: int) -> int:
    """R sigma R steps between Newton polishes on an n_outcomes x r frame:
    ceil(8 r^4 / n_outcomes), capped by POLISH_INTERVAL.

    An R sigma R step costs ~ n_outcomes r^2. The interval was sized when a
    full-rank Newton direction factored a Hessian of size 2 r^2, ~ (2 r^2)^3.
    A direction now solves the reduced system of size n_h = 2 r k - k^2 - 1
    (r^2 - 1 at full rank), whose Hr costs ~ n_outcomes n_h^2 to form and
    ~ n_h^3 to factor, so the interval prices a full-rank direction above its
    cost. At r = 15 the cap decides the interval, and no cap between 50 and
    100 is measurably faster there (see POLISH_INTERVAL). Re-deriving the
    interval from a measured Newton step is open.
    """
    return min(POLISH_INTERVAL, -(-8 * r**4 // n_outcomes))


def _iterate(Yp: np.ndarray, f: np.ndarray, max_iterations: int) -> tuple:
    """Diluted R sigma R iteration in rescaled coordinates, with a Newton
    polish of a low-rank factor of sigma after every _polish_interval R sigma
    R steps.

    Returns sigma, the likelihood trace and, by name, the ReconstructionResult
    fields other than rho, log_likelihood and extremal_residual.
    """
    n_out, r = Yp.shape
    Ypc = Yp.conj()
    mask = f > 0
    fm = f[mask]
    Ym = np.ascontiguousarray(Yp[mask])
    Ymc = np.ascontiguousarray(Ypc[mask])
    eye = np.eye(r, dtype=complex)
    interval = _polish_interval(r, n_out)
    floor_hits = backtracks = newton_fallbacks = 0

    def evaluate(c):
        """(sigma, p, pm, hits, log L) of a candidate c: its Hermitian part at
        unit trace, its probabilities, the observed ones after _floored with
        the number raised, and its log-likelihood."""
        c = 0.5 * (c + c.conj().T)
        c /= np.trace(c).real
        p = _born(Ypc, c, Yp)
        pm, hits = _floored(p, mask)
        return c, p, pm, hits, float(fm @ np.log(pm))

    def certified_gap(lam_max):
        # lambda_max(R') >= 1 in exact arithmetic; the allowance for the
        # rounding of R' and of its eigensolve keeps the bound an upper bound
        # where the iterate is optimal to rounding
        return float(lam_max * (1.0 + r * EPS) - 1.0)

    def newton_step(A, ll, rounding):
        """An Armijo-damped Newton step on the factor A from log-likelihood ll,
        known to within rounding, as (A, its evaluated candidate, whether its
        predicted ascent is above rounding), or None where no step length
        rises. A candidate that floors an observed outcome is refused."""
        nonlocal backtracks, newton_fallbacks
        D, decrement, eigensolved = _newton_direction(A, fm, Ymc)
        newton_fallbacks += eigensolved
        if not decrement > 0.0:
            return None
        t = 1.0
        for _ in range(NEWTON_BACKTRACKS):
            A_cand = A + t * D
            cand = evaluate(A_cand @ A_cand.conj().T)
            if not cand[3] and cand[4] >= ll + NEWTON_ARMIJO * t * decrement - rounding:
                return A_cand, cand, decrement / 2.0 > rounding
            backtracks += 1
            t /= 2.0
        return None

    cand = evaluate(eye)
    trace = []
    eps = 1.0
    stop = "cap"
    gap = None
    # top eigenvector (and its conjugate) of the last R whose spectrum was
    # taken: while its Rayleigh quotient v^H R v >= 1 + TOL_GAP, so is
    # lambda_max(R)
    v = vc = None
    # every completed iteration is one R sigma R step or one Newton step
    rsr_steps = newton_steps = 0
    # the factor of a polish in progress, whether that polish has risen by
    # more than rounding, and whether polishing is still on
    factor, ascended, polish = None, False, True

    while True:
        # the candidate is accepted: its floored outcomes count here, once
        sigma, p, pm, hits, ll = cand
        floor_hits += hits
        trace.append(ll)
        # a candidate of either kind may fall below ll by this much
        rounding = LIKELIHOOD_ROUNDING * max(1.0, abs(ll))
        R = _effect_sum(fm / pm, Ym, Ymc)
        if rsr_steps + newton_steps == max_iterations:
            break
        # an R built from floored probabilities under-weights those outcomes,
        # so its gap certifies nothing
        if not hits and (v is None or certified_gap((vc @ R @ v).real) < TOL_GAP):
            lam, vecs = np.linalg.eigh(R)
            gap, v = certified_gap(lam[-1]), vecs[:, -1]
            vc = v.conj()
            if gap < TOL_GAP:
                stop = "gap"
                break
        step = None
        if factor is not None:
            step = None if hits else newton_step(factor, ll, rounding)
            if step is None:
                # a floored iterate skips this polish; one that found no ascent
                # is not tried again, since it would repeat itself at the optimum
                factor, polish = None, hits > 0 or ascended
            else:
                factor, cand, resolved = step
                newton_steps += 1
                # the first step whose predicted ascent is below rounding ends
                # the polish: quadratic convergence has reached the optimum
                ascended = ascended or resolved
                if not resolved:
                    factor, polish = None, ascended
        if step is None:
            while True:
                # undiluted, R~ is R itself
                R_tilde = R if eps == 1.0 else eps * R + (1.0 - eps) * eye
                cand = evaluate(R_tilde @ sigma @ R_tilde)
                if cand[4] >= ll - rounding:
                    break
                backtracks += 1
                if eps <= DILUTION_FLOOR:
                    break
                eps = max(eps / 2.0, DILUTION_FLOOR)
            if cand[4] < ll - rounding:
                # even the floor dilution decreases the likelihood: keep the
                # last good iterate rather than record a falling trace
                stop = "stalled"
                break
            rsr_steps += 1
            if polish and rsr_steps % interval == 0:
                factor, ascended = _factor(cand[0]), False

    if stop != "gap":
        # certificate of the returned iterate; none where it is floored
        gap = None if hits else certified_gap(np.linalg.eigvalsh(R)[-1])
    if floor_hits:
        warnings.warn(
            f"probability floor engaged {floor_hits} time(s): some observed "
            "outcomes are nominally impossible under the truncated model",
            RuntimeWarning, stacklevel=3)
    return sigma, np.array(trace), dict(
        iterations=rsr_steps + newton_steps, newton_steps=newton_steps,
        newton_fallbacks=newton_fallbacks,
        floor_hits=floor_hits, backtracks=backtracks, dilution=eps,
        born_residual=float(np.abs(p - f).max()), stop_reason=stop, likelihood_gap=gap)


def maxlik_solve(dataset: Dataset, povm: PovmSet, subspace: np.ndarray | None = None, *,
                 max_iterations: int = MAX_ITERATIONS) -> ReconstructionResult:
    """Maximum-likelihood reconstruction from counts.

    The run converges when the certified likelihood gap lambda_max(R') - 1
    is below the module constant TOL_GAP at an iterate where no observed
    outcome is floored. max_iterations ends the run otherwise
    (converged=False). The dilution floor and the probability floor are the
    module constants DILUTION_FLOOR and PROBABILITY_FLOOR.

    Parameters
    ----------
    dataset : Dataset
        Counts aligned with the POVM outcome order.
    povm : PovmSet
        The measurement; rescaled internally to its Gram support.
    subspace : ndarray, optional
        (dim, d) orthonormal columns, such as subspace_basis gives: the solve
        runs on the measurement projected onto them, embedded back after.
    max_iterations : int, optional
        The most iterations of either kind; at least 1.

    Returns
    -------
    ReconstructionResult
        rho is PSD with unit trace, embedded in the ambient basis when a
        subspace was requested. converged=False (never an exception) marks
        runs ended by the iteration cap or a stalled step; stop_reason says
        which rule ended the run.
    """
    if max_iterations < 1:
        raise InvalidInputError("max iterations must be >= 1")
    if dataset.counts.size != povm.n_outcomes:
        raise InvalidInputError(
            f"dataset has {dataset.counts.size} entries, POVM has {povm.n_outcomes}")

    solve_povm = povm
    if subspace is not None:
        subspace = np.asarray(subspace, dtype=complex)
        solve_povm = restrict_to_subspace(povm, subspace)

    analysis = gram_spectrum(solve_povm)
    f = dataset.frequencies

    sigma, trace, telemetry = _iterate(analysis.rescaled_vectors, f, max_iterations)

    # a rescaled-space state maps back as G^(-1/2) sigma G^(-1/2) on the support
    embed = analysis.support_vectors / np.sqrt(analysis.support_eigenvalues)
    rho_sub = embed @ sigma @ embed.conj().T
    rho_sub = 0.5 * (rho_sub + rho_sub.conj().T)
    # the embedded state is G^(-1/2) sigma G^(-1/2): already in the gauge
    # where the outcome probabilities sum to 1; record the residual there
    resid = extremal_residual(rho_sub, dataset, solve_povm)
    rho = rho_sub / np.trace(rho_sub).real
    if subspace is not None:
        rho = subspace @ rho @ subspace.conj().T
        rho = 0.5 * (rho + rho.conj().T)

    return ReconstructionResult(rho=rho, log_likelihood=trace, extremal_residual=resid,
                                **telemetry)
