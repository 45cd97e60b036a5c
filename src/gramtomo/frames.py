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
the thin SVD of T, whose condition number S would square (6.2e4 -> 3.8e9).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyMeasurementError, InvalidInputError
from .povm import (SUPPORT_THRESHOLD, GramAnalysis, PovmSet, born_probabilities,
                   gram_matrix_operator_space, gram_matrix_state_space, weighted_effect_sum)


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

    coefficients T[i, a] = Tr(Pi_i B_a), so S = T^T T and T T^T = Q. From
    the thin SVD T = U diag(s) V^T: eigenvalues = s^2 (of S, descending),
    eigenvectors = V and dual_effects = U_r diag(1/s_r) V_r^T on rank r.
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
    dim = A.shape[-1]
    k = np.arange(1, dim)
    diag = np.diagonal(A, axis1=-2, axis2=-1).real
    partial = np.cumsum(diag, axis=-1)
    out = np.empty(A.shape[:-2] + (dim * dim,))
    out[..., 0] = partial[..., -1] / np.sqrt(dim)
    out[..., 1:dim] = (partial[..., :-1] - k * diag[..., 1:]) / np.sqrt(k * (k + 1))
    m, n = np.triu_indices(dim, 1)
    upper = np.sqrt(2.0) * A[..., m, n]
    out[..., dim::2], out[..., dim + 1::2] = upper.real, upper.imag
    return out


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


def operator_frame(povm: PovmSet) -> OperatorFrame:
    """The operator frame from the thin SVD of T; rank keeps s^2 above
    SUPPORT_THRESHOLD times the largest."""
    Y = povm.vectors
    T = to_coords(Y[:, :, None] * Y[:, None, :].conj())
    U, s, Vt = np.linalg.svd(T, full_matrices=False)
    rank = int(np.sum(s**2 > SUPPORT_THRESHOLD * s[0]**2))
    return OperatorFrame(coefficients=T, eigenvalues=s**2, eigenvectors=Vt.T, rank=rank,
                         dual_effects=(U[:, :rank] / s[:rank]) @ Vt[:rank])


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
