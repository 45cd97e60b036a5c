"""Finite-frame machinery: dual frames, operator frames, linear inversion.

The effect vectors {|y_i>} form a frame for the Gram support; the
canonical dual frame |y~_i> = G^+ |y_i> reconstructs any vector in the
span through psi = sum_i <y~_i|psi> |y_i>. In operator space the frame
operator S(A) = sum_i Tr(Pi_i A) Pi_i plays the same role: its
pseudo-inverse yields dual effects Pi~_i = S^(-1)(Pi_i) and the linear
inversion estimate rho = sum_i p_i Pi~_i, which is Hermitian but NOT
positivity-constrained. Operators get real coordinates in an orthonormal
Hermitian basis (identity plus generalized Gell-Mann); with T the N x d^2
matrix of effect coordinates, S = T^T T is never formed: its data come from
thin SVDs of T, whose condition number S would square (6.2e4 -> 3.8e9).

A homodyne POVM with uniform phases theta_j = j pi / P on a window symmetric
about 0 makes T block diagonal. The coordinates of rho_mn, m < n, enter
outcome (j, x) as cos(k theta_j) and sin(k theta_j) times psi_m(x) psi_n(x),
for the coherence order k = n - m, and k theta_j = +-c theta_j mod 2 pi with
c = min(k mod 2P, -k mod 2P). So the columns fall into P + 1 classes
c = 0..P (the diagonal is c = 0, and the Re and Im coordinates of a pair,
which mix the orders +-k, share a class), and the rows of class c lie in
W_c = (cos, sin of c theta_j) kron (bin vectors of parity (-1)^c), since
psi_m psi_n has the parity of k = c mod 2. The phase sums make the W_c of
one parity orthogonal and the parities are orthogonal, so S = T^T T couples
rho_nm and rho_n'm' only when n - m = +-(n' - m') mod 2P, and each block is
the thin SVD of the small matrix W_c^T T_c. The projection onto W_c, the
bin fold included, is what keeps the blocks orthogonal to rounding: the
bin centres are mirror images only to an ulp, so each column of T carries a
rounding-level part of the wrong parity and frequency, and a split of the
columns alone would keep it and amplify it by the square of the frame's
condition number in the dual effects (a dim-30 round trip on (-5, 5) read
3.5e-7 with the columns split, 4.1e-8 without the fold and 1.7e-11 with
it, against 2.7e-11 for one SVD of T). With enough bins and window the rank
is P (2d - P) for P <= d phases, d^2 from P = d on (Leonhardt and Munroe,
PRA 54, 3682, 1996). Every other POVM is one block: the SVD of T itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyMeasurementError, InvalidInputError
from .povm import (SUPPORT_THRESHOLD, GramAnalysis, HomodyneConfig, PovmSet,
                   born_probabilities, gram_matrix_operator_space, gram_matrix_state_space,
                   weighted_effect_sum)


class PartialInversionWarning(UserWarning):
    """Linear inversion over a rank-deficient operator frame.

    The result is the projection onto the operator-space support; the
    instance carries the support projector (in vectorized coordinates) as
    the attribute support_projector, formed when first read, so that a caller
    that ignores the warning never pays for the d^2 x d^2 product.
    """

    def __init__(self, message: str, support_basis: np.ndarray):
        super().__init__(message)
        self._support_basis = support_basis

    @cached_property
    def support_projector(self) -> np.ndarray:
        return self._support_basis @ self._support_basis.T


@dataclass(eq=False)
class OperatorFrame:
    """Vectorized operator frame of a rank-1 POVM.

    coefficients T[i, a] = Tr(Pi_i B_a), so S = T^T T and T T^T = Q. The
    columns of T split into blocks (see the module docstring), and block b
    has the thin SVD T_b = U_b diag(s_b) V_b^T. eigenvalues holds every
    s_b^2, descending by a stable sort on s: one per mode a block can carry,
    sum_b min(rows_b, columns_b), which is min(N, d^2) for one block and no
    more for many. S's remaining eigenvalues are zero in exact arithmetic.
    eigenvectors holds the matching V columns, zero off their block, as a
    (d^2, eigenvalues.size) array. rank counts the s^2 above
    SUPPORT_THRESHOLD times the largest, and dual_effects =
    U_r diag(1/s_r) V_r^T on those rank modes.
    """

    coefficients: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    dual_effects: np.ndarray


def to_coords(A: np.ndarray) -> np.ndarray:
    """Real coordinates Tr(B_a A) of Hermitian (..., d, d) matrices.

    B_a is an orthonormal Hermitian basis, never built: I / sqrt(d), the
    traceless diagonals (1, ..., 1, -k, 0, ...) / sqrt(k (k + 1)), then
    (E_mn + E_nm) / sqrt(2) and i (E_mn - E_nm) / sqrt(2) for each m < n in
    row-major order. So the coordinates are Tr A / sqrt(d), the traceless
    diagonal from partial diagonal sums, then sqrt(2) (Re A_mn, Im A_mn).
    """
    A = np.asarray(A, dtype=complex)
    m, n = np.triu_indices(A.shape[-1], 1)
    return _coords(np.diagonal(A, axis1=-2, axis2=-1).real, A[..., m, n])


def _coords(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """to_coords from the real diagonal and the upper triangle in row-major order."""
    dim = diag.shape[-1]
    k = np.arange(1, dim)
    partial = np.cumsum(diag, axis=-1)
    out = np.empty(diag.shape[:-1] + (dim * dim,))
    out[..., 0] = partial[..., -1] / np.sqrt(dim)
    out[..., 1:dim] = (partial[..., :-1] - k * diag[..., 1:]) / np.sqrt(k * (k + 1))
    upper = np.sqrt(2.0) * upper
    out[..., dim::2], out[..., dim + 1::2] = upper.real, upper.imag
    return out


def _effect_coords(Y: np.ndarray) -> np.ndarray:
    """to_coords of every effect |y_i><y_i| without the (N, dim, dim) products.

    Row m of the upper triangle is y_m conj(y_n) for n > m, the same
    broadcast products as the full outer product, so the bits agree.
    """
    Yc = Y.conj()
    upper = [Y[:, m, None] * Yc[:, m + 1:] for m in range(Y.shape[1])]
    return _coords((Y * Yc).real, np.concatenate(upper, axis=1))


def from_coords(c: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian (..., dim, dim) matrices sum_a c_a B_a; inverse of to_coords."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1] != dim * dim:
        raise InvalidInputError(f"{c.shape[-1]} coordinates do not describe a dim-{dim} operator")
    k = np.arange(1, dim)
    w = c[..., 1:dim] / np.sqrt(k * (k + 1))
    # B_k contributes w_k to diagonal entries j < k and -k w_k to entry k
    diag = np.repeat(c[..., :1] / np.sqrt(dim), dim, axis=-1)
    diag[..., :-1] += np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    diag[..., 1:] -= k * w
    m, n = np.triu_indices(dim, 1)
    upper = (c[..., dim::2] + 1j * c[..., dim + 1::2]) / np.sqrt(2.0)
    out = diag[..., None] * np.eye(dim, dtype=complex)
    out[..., m, n] = upper
    out[..., n, m] = upper.conj()
    return out


def dual_frame(povm: PovmSet, analysis: GramAnalysis) -> np.ndarray:
    """The canonical dual vectors |y~_i> = G^+ |y_i> on the Gram support, as the
    rows of an (N, dim) array."""
    if analysis.rank == 0:
        raise EmptyMeasurementError("Gram operator has zero support")
    Us = analysis.support_vectors
    ws = analysis.support_eigenvalues
    return (povm.vectors @ Us.conj() / ws) @ Us.T


def operator_frame_apply(A: np.ndarray, povm: PovmSet) -> np.ndarray:
    """S(A) = sum_i <y_i|A|y_i> |y_i><y_i| for Hermitian A."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (povm.dim, povm.dim):
        raise InvalidInputError("operator dimension does not match the POVM")
    if np.abs(A - A.conj().T).max() > 1e-10:
        raise InvalidInputError("operator must be Hermitian within 1e-10")
    return weighted_effect_sum(born_probabilities(A, povm), povm)


def _frame_blocks(povm: PovmSet) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The operator frame's blocks: (column indices in to_coords order, row basis W).

    A POVM recorded with uniform phases j*pi/P and a window symmetric about 0
    gives P + 1 blocks, keyed c = min(k mod 2P, -k mod 2P) for the coherence
    order k = n - m of each coordinate (the diagonal has c = 0). Block c's
    rows are cos(c theta_j) R + sin(c theta_j) I with R and I of parity c mod
    2 in x, so W = (unit cos, sin columns of c theta_j) kron (even or odd bin
    fold). Every other POVM is one block of all dim^2 columns, with W None.
    """
    dim = povm.dim
    single = [(np.arange(dim * dim), None)]
    h = povm.homodyne
    if h is None:
        return single
    P = len(h.phases)
    uniform = HomodyneConfig.uniform(P, h.bins, h.x_range).phases
    if tuple(h.phases) != uniform or h.x_range[0] != -h.x_range[1]:
        return single
    m, n = np.triu_indices(dim, 1)
    k = (n - m) % (2 * P)
    classes = np.concatenate([np.zeros(dim, dtype=int), np.repeat(np.minimum(k, 2 * P - k), 2)])
    # bin b pairs with bin B-1-b; an odd bin count puts the centre bin in the even fold
    bins, half = h.bins, h.bins // 2
    b = np.arange(half)
    even, odd = np.zeros((bins, bins - half)), np.zeros((bins, half))
    even[b, b] = even[bins - 1 - b, b] = odd[b, b] = np.sqrt(0.5)
    odd[bins - 1 - b, b] = -np.sqrt(0.5)
    if bins % 2:
        even[half, half] = 1.0
    theta = np.asarray(h.phases)
    blocks = []
    for c in range(P + 1):
        # sin(c theta_j) vanishes for c = 0 and c = P
        waves = [np.cos(c * theta)] if c % P == 0 else [np.cos(c * theta), np.sin(c * theta)]
        phase_basis = np.stack([w / np.linalg.norm(w) for w in waves], axis=1)
        blocks.append((np.flatnonzero(classes == c), np.kron(phase_basis, odd if c % 2 else even)))
    return blocks


def operator_frame(povm: PovmSet) -> OperatorFrame:
    """The operator frame from one thin SVD per block of T (see _frame_blocks).

    A block with a row basis W takes the SVD of W^T T_b and lifts U by W; one
    block takes the SVD of T itself. rank keeps s^2 above SUPPORT_THRESHOLD
    times the largest over all blocks, and the modes are ordered by a stable
    sort on s.
    """
    T = _effect_coords(povm.vectors)
    parts = []
    for cols, W in _frame_blocks(povm):
        if W is None:
            U, s, Vt = np.linalg.svd(T, full_matrices=False)
        elif W.size and cols.size:
            U, s, Vt = np.linalg.svd(W.T @ T[:, cols], full_matrices=False)
            U = W @ U
        else:  # a class with no coordinates, or no rows (one bin has no odd fold)
            continue
        parts.append((cols, U, s, Vt))
    s = np.concatenate([part[2] for part in parts])
    order = np.argsort(-s, kind="stable")
    s = s[order]
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    tau = SUPPORT_THRESHOLD * s[0]**2
    rank = int(np.sum(s**2 > tau))
    modes_t = np.zeros((s.size, T.shape[1]))
    dual = np.zeros(T.shape)
    start = 0
    for cols, U, sb, Vt in parts:
        modes_t[np.ix_(position[start:start + sb.size], cols)] = Vt
        start += sb.size
        r = int(np.sum(sb**2 > tau))
        dual[:, cols] = (U[:, :r] / sb[:r]) @ Vt[:r]
    return OperatorFrame(coefficients=T, eigenvalues=s**2, eigenvectors=modes_t.T, rank=rank,
                         dual_effects=dual)


def linear_inversion(probabilities: np.ndarray, povm: PovmSet,
                     frame: OperatorFrame | None = None) -> np.ndarray:
    """rho = sum_i p_i Pi~_i, Hermitian but deliberately not PSD-constrained.

    When the operator frame is rank-deficient the result is the projection
    of the true operator onto the support; a PartialInversionWarning
    carrying the support projector is emitted.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (povm.n_outcomes,):
        raise InvalidInputError("probability vector length does not match the POVM")
    if frame is None:
        frame = operator_frame(povm)
    if frame.rank < povm.dim**2:
        warnings.warn(PartialInversionWarning(
            f"operator frame rank {frame.rank} < {povm.dim**2}: inversion recovers "
            "only the support component", frame.eigenvectors[:, : frame.rank]),
            stacklevel=2)
    return from_coords(frame.dual_effects.T @ p, povm.dim)


def hadamard_identity_check(povm: PovmSet) -> float:
    """max |Q - G o G*| entrywise, comparing the two Gram-matrix routes."""
    Gm = gram_matrix_state_space(povm)
    Q = gram_matrix_operator_space(povm)
    return float(np.abs(Q - Gm * Gm.conj()).max())


def modal_weighting(rho: np.ndarray, analysis: GramAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """Modal coefficients rho~ = U^H rho U and their Gram-weighted form.

    Returns (rho~, weighted) with weighted_kl = lambda_k lambda_l rho~_kl,
    which equals U^H (G rho G) U: weakly measured modes are suppressed
    quadratically. frames-check tests that congruence against a G summed
    from the effects.
    """
    rho = np.asarray(rho, dtype=complex)
    U = analysis.eigenvectors
    lam = analysis.eigenvalues
    if rho.shape != (U.shape[0], U.shape[0]):
        raise InvalidInputError("operator dimension does not match the analysis")
    rho_modes = U.conj().T @ rho @ U
    return rho_modes, np.outer(lam, lam) * rho_modes
