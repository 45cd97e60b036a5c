"""Homodyne measurement model and Gram-structure analysis.

A binned homodyne measurement at local-oscillator phase theta and bin
center x_b is modeled by the rank-1 effect Pi = |y><y| with

    |y> = sqrt(dx) * (<x_b,theta|n>)*_{n<dim},

a midpoint-rule discretization of the binned quadrature projector. The
rank-1 form keeps the correspondence between the Gram operator
G = sum_i Pi_i, the N x N Gram matrix <y_i|y_j>, and the operator-space
Gram matrix |<y_i|y_j>|^2 exact; the discretization error is a documented,
testable quantity rather than a hidden model ingredient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasurementError, InvalidInputError
from .fock import hermite_functions


@dataclass(frozen=True)
class HomodyneConfig:
    """Phases, bin count per phase, and quadrature range of the measurement."""

    phases: tuple[float, ...]
    bins: int
    x_range: tuple[float, float]

    def __post_init__(self):
        if len(self.phases) == 0:
            raise InvalidInputError("at least one phase is required")
        ph = np.asarray(self.phases, dtype=float)
        if not np.all(np.isfinite(ph)):
            raise InvalidInputError("phases must be finite")
        if np.any(ph < 0.0) or np.any(ph >= np.pi):
            raise InvalidInputError("phases must lie in [0, pi)")
        if np.any(np.diff(ph) <= 0.0):
            raise InvalidInputError("phases must be strictly increasing")
        if self.bins < 1:
            raise InvalidInputError("bin count must be >= 1")
        x = np.asarray(self.x_range, dtype=float)
        if x.shape != (2,) or not (np.all(np.isfinite(x)) and x[0] < x[1]):
            raise InvalidInputError("quadrature range must be a finite increasing interval")

    @classmethod
    def uniform(cls, phase_count: int = 6, bins: int = 51,
                x_range: tuple[float, float] = (-5.0, 5.0)) -> "HomodyneConfig":
        """Phases j*pi/count for j = 0..count-1, uniform over [0, pi)."""
        if phase_count < 1:
            raise InvalidInputError("phase count must be >= 1")
        phases = tuple(j * np.pi / phase_count for j in range(phase_count))
        return cls(phases=phases, bins=bins, x_range=x_range)

    @property
    def bin_width(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.bins

    @property
    def bin_centers(self) -> np.ndarray:
        lo = self.x_range[0]
        return lo + (np.arange(self.bins) + 0.5) * self.bin_width


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Rank-1 measurement as the rows of one read-only (N, dim) array.

    Row i is the effect ket |y_i>, so the array is the frame's synthesis
    matrix and the outcome order is its row order. dim and n_outcomes are
    read off the shape.

    homodyne is the HomodyneConfig the vectors were built from, recorded by
    build_homodyne_povm and None for every other POVM. It is data, not an
    option: for uniform phases j*pi/P on a window symmetric about 0 the
    operator frame splits into P + 1 coherence-order classes, which
    frames._class_matrices yields, and a POVM without it is one class.
    """

    vectors: np.ndarray
    homodyne: HomodyneConfig | None = None

    def __post_init__(self):
        vectors = np.array(self.vectors, dtype=complex, order="C")
        if vectors.ndim != 2:
            raise InvalidInputError("expected a 2-d (N, dim) array of effect vectors")
        if vectors.shape[0] == 0:
            raise InvalidInputError("POVM must contain at least one effect")
        if not np.all(np.isfinite(vectors)):
            raise InvalidInputError("effect vectors must be finite")
        h = self.homodyne
        if h is not None and len(h.phases) * h.bins != vectors.shape[0]:
            raise InvalidInputError(f"{len(h.phases)} phases x {h.bins} bins do not describe "
                                    f"{vectors.shape[0]} effects")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]


# an eigenvalue of G, or of the operator frame's S, is in the support when it
# exceeds this multiple of the largest one (_support)
SUPPORT_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class GramValues:
    """Descending eigenvalues of a frame operator, with its support: the Gram
    operator G of a measurement, or its operator frame's S (frames).

    eigenvalues are descending and non-negative; rank counts those above
    threshold, SUPPORT_THRESHOLD times lambda_1.
    """

    eigenvalues: np.ndarray
    rank: int
    threshold: float

    @property
    def support_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.rank]


@dataclass(frozen=True, eq=False)
class GramAnalysis(GramValues):
    """Descending eigendecomposition of the Gram operator of a measurement.

    eigenvectors are the orthonormal columns matching the eigenvalues, with
    the phase convention that each column's first significant component is
    real-positive, so repeated runs produce identical bases.
    rescaled_vectors (N, rank) holds the rows G^(-1/2)|y_i> in the support
    basis: their effects sum to the identity.
    """

    eigenvectors: np.ndarray
    rescaled_vectors: np.ndarray

    @property
    def support_vectors(self) -> np.ndarray:
        return self.eigenvectors[:, : self.rank]


def build_homodyne_povm(config: HomodyneConfig, dim: int) -> PovmSet:
    """Assemble the binned homodyne POVM, outcome order phase-major, bin-minor.

    Parameters
    ----------
    config : HomodyneConfig
        Phases, bins per phase, quadrature range.
    dim : int
        Ambient Fock-space dimension (cutoff + 1).

    Returns
    -------
    PovmSet with len(phases) * bins effects.
    """
    if dim < 1:
        raise InvalidInputError("dim must be >= 1")
    psi = hermite_functions(config.bin_centers, dim - 1)  # (dim, bins)
    root_dx = np.sqrt(config.bin_width)
    n = np.arange(dim)
    theta = np.asarray(config.phases)[:, None, None]
    # conjugate of <x_theta|n> = e^{-i n theta} psi_n(x); axes (phase, bin, n)
    phase = np.exp(1j * n * theta)
    vectors = root_dx * phase * psi.T
    return PovmSet(vectors.reshape(-1, dim), homodyne=config)


def born_probabilities(rho: np.ndarray, povm: PovmSet) -> np.ndarray:
    """Born-rule values <y_i|rho|y_i> of every outcome, unclamped (real part)."""
    Y = povm.vectors
    return _born(Y.conj(), np.asarray(rho, dtype=complex), Y)


def weighted_effect_sum(weights: np.ndarray, povm: PovmSet) -> np.ndarray:
    """Hermitian part of sum_i w_i |y_i><y_i|."""
    Y = povm.vectors
    return _effect_sum(np.asarray(weights), Y, Y.conj())


# the array kernels take the conjugate rows Yc = Y.conj() from the caller,
# so the solver loop conjugates once per solve rather than once per call
def _born(Yc: np.ndarray, rho: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", Yc @ rho, Y).real


def _effect_sum(weights: np.ndarray, Y: np.ndarray, Yc: np.ndarray) -> np.ndarray:
    S = (Y * weights[:, None]).T @ Yc
    return 0.5 * (S + S.conj().T)


def gram_operator(povm: PovmSet) -> np.ndarray:
    """Gram operator G = sum_i |y_i><y_i| on the ambient space."""
    return weighted_effect_sum(np.ones(povm.n_outcomes), povm)


def _support(s: np.ndarray, size: int) -> dict:
    """The GramValues fields of the frame operator whose synthesis matrix has the
    singular values s: the eigenvalues s^2, descending and zero-padded to size,
    and the support rule's rank and threshold. The one place that rule is
    applied, for G and for S; a frame operator of zero support is refused."""
    vals = np.zeros(size)
    vals[: s.size] = np.sort(s**2)[::-1]
    if vals[0] == 0.0:
        raise EmptyMeasurementError("Gram operator has zero support")
    tau = SUPPORT_THRESHOLD * vals[0]
    return {"eigenvalues": vals, "rank": int(np.sum(vals > tau)), "threshold": tau}


def gram_values(povm: PovmSet) -> GramValues:
    """The Gram operator's spectrum and support from the singular values of Y
    alone; gram_spectrum's SVD, which also returns vectors, rounds differently."""
    return GramValues(**_support(np.linalg.svd(povm.vectors, compute_uv=False), povm.dim))


def gram_spectrum(povm: PovmSet) -> GramAnalysis:
    """The Gram operator's spectrum, eigenbasis and rescaled frame from one SVD.

    With the synthesis matrix Y = U diag(s) V^H, G = Y^T conj(Y) =
    conj(V) diag(s^2) V^T: the eigenvalues are s^2, zero-padded to dim, the
    eigenvectors are conj(V), and in that basis G^(-1/2)|y_i> has the
    coordinates U_ik on the support, rephased with the eigenvectors. G is
    not formed, which would square the condition number of Y. When N < dim
    the full V supplies the null-space eigenvectors.
    """
    Y = povm.vectors
    n_outcomes, dim = Y.shape
    U, s, Vh = np.linalg.svd(Y, full_matrices=n_outcomes < dim)
    vecs = Vh.T
    # deterministic eigenvector phases: first significant component real-positive
    lead = vecs[np.argmax(np.abs(vecs) > 1e-8, axis=0), np.arange(dim)]
    phase = lead.conj() / np.abs(lead)
    support = _support(s, dim)
    rank = support["rank"]
    return GramAnalysis(**support, eigenvectors=vecs * phase,
                        rescaled_vectors=U[:, :rank] * phase[:rank].conj())


def subspace_basis(kind: str, d: int, povm: PovmSet) -> np.ndarray:
    """Orthonormal (dim, d) columns: the top-d Gram modes or the first d Fock states."""
    if kind not in ("gram", "fock"):
        raise InvalidInputError("basis kind must be 'gram' or 'fock'")
    if not 1 <= d <= povm.dim:
        noun = "Gram modes" if kind == "gram" else "Fock states"
        raise InvalidInputError(f"requested {d} {noun} of a dim-{povm.dim} space")
    if kind == "fock":
        return np.eye(povm.dim, dtype=complex)[:, :d]
    return gram_spectrum(povm).eigenvectors[:, :d]


def gram_matrix_state_space(povm: PovmSet) -> np.ndarray:
    """N x N Gram matrix G_ij = <y_i|y_j>; shares its nonzero spectrum with G."""
    Y = povm.vectors
    return Y.conj() @ Y.T


def gram_matrix_operator_space(povm: PovmSet) -> np.ndarray:
    """Operator-space Gram matrix Q_ij = |<y_i|y_j>|^2 = Tr(Pi_i Pi_j)."""
    return np.abs(gram_matrix_state_space(povm)) ** 2


# effective_rank counts the eigenvalues of G at or above this multiple of the
# largest, read at call time, and gram-spectrum reports that count
EFFECTIVE_RANK_DROP_RATIO = 1e-3


def effective_rank(analysis: GramValues) -> int:
    """Count of eigenvalues within EFFECTIVE_RANK_DROP_RATIO of the largest.

    This is the looser, statistical bandwidth (reliably resolved modes),
    distinct from the numerical support rank in the analysis.
    """
    vals = analysis.eigenvalues
    if vals.size == 0:
        raise InvalidInputError("empty spectrum")
    return int(np.sum(vals >= EFFECTIVE_RANK_DROP_RATIO * vals[0]))
