"""Finite-frame machinery: dual frames, operator frames, linear inversion.

The effect vectors {|y_i>} form a frame for the Gram support; the
canonical dual frame |y~_i> = G^+ |y_i> reconstructs any vector in the
span through psi = sum_i <y~_i|psi> |y_i>. In operator space the frame
operator S(A) = sum_i Tr(Pi_i A) Pi_i plays the same role: its
pseudo-inverse yields dual effects Pi~_i = S^(-1)(Pi_i) and the linear
inversion estimate rho = sum_i p_i Pi~_i, which is Hermitian but NOT
positivity-constrained. Operators get real coordinates in an orthonormal
Hermitian basis, E_nn and then (E_mn + E_nm) / sqrt(2) and
i (E_mn - E_nm) / sqrt(2) for m < n, so that each coordinate is one matrix
element (to_coords); with T the N x d^2 matrix of effect coordinates,
S = T^T T is never formed: its data come from thin SVDs, whose condition
number S would square (6.2e4 -> 3.8e9).

For uniform phases theta_j = j pi / P on a window symmetric about 0, T
factorises. Let G hold the coordinates of the phase-0 effects, whose vectors
sqrt(dx) psi(x_b) are real. Outcome (j, b) has G's diagonal coordinates,
and for rho_mn G's Re one times cos(k theta_j) and -sin(k theta_j), k = n - m.
With k = +-c mod 2P, c = 0..P, class c's diagonal and Re columns are
(cos c theta) kron G_c and its Im columns -+(sin c theta) kron G_c (zero for
c = 0 and P); G_c has the parity of c, so it lies in the span of the even or
odd bin fold F_c. Classes are orthogonal, so each is one thin SVD of the small
X_c = |cos c theta| F_c^T G_c (at most 26 x 77 at dim 30, 6 x 51), whose
U and s serve both halves; the frame keeps only these blocks, so neither T
nor any (N, d^2) array is formed. The fold drops the wrong-parity rounding
that bin centres, mirror images to an ulp, put in G_c, which the dual
effects would amplify by the square of the condition number (a dim-30 round
trip on (-5, 5) read 3.5e-7 with T's columns split by class and no fold,
1.7e-11 with it). The rank is
P (2d - P) for P <= d phases, given enough bins and window (Leonhardt and
Munroe, PRA 54, 3682, 1996). Every other POVM is one block, the SVD of T.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidInputError
from .povm import (GramAnalysis, GramValues, HomodyneConfig, PovmSet, _support,
                   born_probabilities, gram_matrix_state_space, weighted_effect_sum)


class PartialInversionWarning(UserWarning):
    """Linear inversion over a rank-deficient operator frame: the result is the
    projection onto the operator-space support (OperatorFrame.project)."""


@dataclass(frozen=True, eq=False)
class OperatorFrame(GramValues):
    """Vectorized operator frame of a rank-1 POVM, held as its blocks, with the
    spectrum and support of S as GramValues.

    With T[i, a] = Tr(Pi_i B_a) the coefficients, S = T^T T. A block (columns,
    rows, U, s, V^T) gives T's columns as W U diag(s) V^T, W the identity for
    rows None or phi kron F for rows (phi, F); a column in no block has no mode.
    eigenvalues holds each s^2, one per mode of a block, descending (876 at
    dim 30, 12 x 101, where one SVD of T gives 900). The frame is read through
    project and dual_sum, block by block: neither T, nor S's eigenvectors, nor
    the dual effects are formed.
    """

    povm: PovmSet
    blocks: list[tuple]

    def _support_blocks(self):
        # the blocks cut to their modes above the support threshold
        for cols, rows, U, s, Vt in self.blocks:
            r = int(np.sum(s**2 > self.threshold))
            yield cols, rows, U[:, :r], s[:r], Vt[:r]

    def project(self, c: np.ndarray) -> np.ndarray:
        """Orthogonal projection of coordinates (along axis 0) onto the support."""
        out = np.zeros(c.shape)
        for cols, _, _, _, Vt in self._support_blocks():
            out[cols] = Vt.T @ (Vt @ c[cols])
        return out

    def dual_sum(self, p: np.ndarray) -> np.ndarray:
        """Coordinates of sum_i p_i Pi~_i, the dual effects Pi~_i never formed:
        W^T p is phi^T p.reshape(phases, bins) F."""
        out = np.zeros(self.povm.dim**2)
        for cols, rows, U, s, Vt in self._support_blocks():
            w = p if rows is None else rows[0] @ p.reshape(rows[0].size, -1) @ rows[1]
            out[cols] = ((U / s) @ Vt).T @ w
        return out


def to_coords(A: np.ndarray) -> np.ndarray:
    """Real coordinates Tr(B_a A) of Hermitian (..., d, d) matrices.

    B_a is an orthonormal Hermitian basis, never built: E_nn for each n, then
    (E_mn + E_nm) / sqrt(2) and i (E_mn - E_nm) / sqrt(2) for each m < n in
    the row-major order of _pairs. So each coordinate is one matrix element:
    the real diagonal, then sqrt(2) (Re A_mn, Im A_mn).
    """
    A = np.asarray(A, dtype=complex)
    m, n = _pairs(A.shape[-1])
    return _coords(np.diagonal(A, axis1=-2, axis2=-1).real, A[..., m, n])


@cache
def _pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only pairs m < n of np.triu_indices(dim, 1), in row-major order:
    the one pair index, of the operator coordinates and of maxlik's Newton basis."""
    out = np.triu_indices(dim, 1)
    for a in out:
        a.flags.writeable = False
    return out


def _coords(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """to_coords from the real diagonal and the upper triangle in row-major order."""
    dim = diag.shape[-1]
    out = np.empty(diag.shape[:-1] + (dim * dim,))
    out[..., :dim] = diag
    upper = np.sqrt(2.0) * upper
    out[..., dim::2], out[..., dim + 1::2] = upper.real, upper.imag
    return out


def _effect_coords(Y: np.ndarray) -> np.ndarray:
    """to_coords of every effect |y_i><y_i| without the (N, dim, dim) products.

    The upper triangle is y_m conj(y_n) over the pairs m < n of _pairs, the
    same products as the full outer product, so the bits agree.
    """
    Yc = Y.conj()
    m, n = _pairs(Y.shape[1])
    return _coords((Y * Yc).real, Y[:, m] * Yc[:, n])


def from_coords(c: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian (..., dim, dim) matrices sum_a c_a B_a; inverse of to_coords."""
    c = np.asarray(c, dtype=float)
    if c.shape[-1] != dim * dim:
        raise InvalidInputError(f"{c.shape[-1]} coordinates do not describe a dim-{dim} operator")
    m, n = _pairs(dim)
    upper = (c[..., dim::2] + 1j * c[..., dim + 1::2]) / np.sqrt(2.0)
    out = c[..., :dim, None] * np.eye(dim, dtype=complex)
    out[..., m, n] = upper
    out[..., n, m] = upper.conj()
    return out


def dual_frame(povm: PovmSet, analysis: GramAnalysis) -> np.ndarray:
    """The canonical dual vectors |y~_i> = G^+ |y_i> on the Gram support, as the
    rows of an (N, dim) array."""
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


def _class_matrices(povm: PovmSet) -> Iterator[tuple]:
    """(X, halves) for each class that has rows and columns, one class at a time so
    that each X is freed after its SVD. X is the matrix whose thin SVD gives the
    class; each half is (columns, rows, sign), sign the factor of its V^T or None.

    Uniform phases j*pi/P on a window symmetric about 0 give P + 1 classes
    c = min(k mod 2P, -k mod 2P), k = n - m for pair p = (m, n) of _pairs. The
    Re half of class c is its pairs' columns dim + 2p (and the diagonal for
    c = 0), with rows the unit cos(c theta_j) and the bin fold of parity c; the
    Im half, for c = 1..P-1, is the columns dim + 2p + 1 with the unit
    sin(c theta_j), sharing the Re half's U and s, with V^T negated where
    k = c mod 2P. The Im columns of classes 0 and P are zero in T. Any other
    POVM is one class: X is T, with one half of all columns, no rows and no sign.
    """
    dim, h = povm.dim, povm.homodyne
    if h is None or h.x_range[0] != -h.x_range[1] or tuple(h.phases) != HomodyneConfig.uniform(
            len(h.phases), h.bins, h.x_range).phases:
        yield _effect_coords(povm.vectors), [(np.arange(dim * dim), None, None)]
        return
    P = len(h.phases)
    m, n = _pairs(dim)
    k = (n - m) % (2 * P)
    classes, sign = np.minimum(k, 2 * P - k), np.where(k <= P, -1.0, 1.0)
    # bin b pairs with bin B-1-b; an odd bin count puts the centre bin in the even fold
    I, J = np.eye(h.bins), np.eye(h.bins)[::-1]
    even = (I + J)[:, : h.bins - h.bins // 2]
    folds = (even / np.linalg.norm(even, axis=0), (I - J)[:, : h.bins // 2] / np.sqrt(2.0))
    G = _effect_coords(povm.vectors[: h.bins].real)
    theta = np.asarray(h.phases)
    for c in range(P + 1):
        p, fold = np.flatnonzero(classes == c), folds[c % 2]
        re = dim + 2 * p if c else np.concatenate([np.arange(dim), dim + 2 * p])
        if not (fold.shape[1] and re.size):  # no rows (one bin has no odd fold) or columns
            continue
        # sin(c theta_j) vanishes for c = 0 and c = P
        waves = np.stack([np.cos(c * theta), np.sin(c * theta)], axis=1)[:, : 1 + (c % P > 0)]
        waves = waves / np.linalg.norm(waves, axis=0)
        # |cos c theta|^2 is P for c = 0 and c = P, P / 2 between
        X = np.sqrt(P / waves.shape[1]) * fold.T @ G[:, re]
        halves = [(re, (waves[:, 0], fold), None)]
        if waves.shape[1] == 2:
            halves.append((dim + 2 * p + 1, (waves[:, 1], fold), sign[p]))
        yield X, halves


def operator_frame(povm: PovmSet) -> OperatorFrame:
    """The operator frame from one thin SVD per class (see the module docstring)."""
    blocks = []
    for X, halves in _class_matrices(povm):
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        blocks += [(cols, rows, U, s, Vt if sign is None else Vt * sign)
                   for cols, rows, sign in halves]
    s = np.concatenate([block[3] for block in blocks])
    return OperatorFrame(povm=povm, blocks=blocks, **_support(s, s.size))


def frame_values(povm: PovmSet) -> GramValues:
    """The spectrum and support of operator_frame(povm) from the classes' singular
    values alone, zero-padded to the outcome count: Q = T T^T shares the
    nonzero spectrum of S = T^T T, whose modes are at most N. A values-only
    SVD rounds differently from one that also returns vectors."""
    # each half of a class lists the class's values, as each of its blocks does
    s = [s for X, halves in _class_matrices(povm)
         for s in [np.linalg.svd(X, compute_uv=False)] * len(halves)]
    return GramValues(**_support(np.concatenate(s), povm.n_outcomes))


def linear_inversion(probabilities: np.ndarray, frame: OperatorFrame) -> np.ndarray:
    """rho = sum_i p_i Pi~_i over the POVM of frame, Hermitian but deliberately
    not PSD-constrained.

    Over a rank-deficient frame the result is the projection of the true
    operator onto the support (frame.project), with a PartialInversionWarning.
    """
    povm = frame.povm
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (povm.n_outcomes,):
        raise InvalidInputError("probability vector length does not match the POVM")
    if frame.rank < povm.dim**2:
        warnings.warn(PartialInversionWarning(
            f"operator frame rank {frame.rank} < {povm.dim**2}: inversion recovers "
            "only the support component"), stacklevel=2)
    return from_coords(frame.dual_sum(p), povm.dim)


def hadamard_identity_check(povm: PovmSet) -> float:
    """max |Q - G o G*| entrywise, comparing the two Gram-matrix routes. Both
    start from one state-space Gram matrix G_s, so this is the rounding of
    |z|^2 against z conj(z): it cannot detect a wrong measurement."""
    Gm = gram_matrix_state_space(povm)
    # Q = |G_s|^2 as gram_matrix_operator_space forms it, from the same G_s
    return float(np.abs(np.abs(Gm) ** 2 - Gm * Gm.conj()).max())


def modal_weighting(rho: np.ndarray, analysis: GramAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """Modal coefficients rho~ = U^H rho U and their Gram-weighted form.

    Returns (rho~, weighted) with weighted_kl = lambda_k lambda_l rho~_kl,
    which equals U^H (G rho G) U: weakly measured modes are suppressed
    quadratically.
    """
    rho = np.asarray(rho, dtype=complex)
    U = analysis.eigenvectors
    lam = analysis.eigenvalues
    if rho.shape != (U.shape[0], U.shape[0]):
        raise InvalidInputError("operator dimension does not match the analysis")
    rho_modes = U.conj().T @ rho @ U
    return rho_modes, np.outer(lam, lam) * rho_modes
