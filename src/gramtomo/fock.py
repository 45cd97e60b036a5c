"""Truncated Fock-space states, Hermite functions, Wigner functions, fidelity.

Conventions, fixed globally: hbar = 1 and x = (a + a^dag)/sqrt(2), so the
vacuum quadrature variance is 1/2 and a coherent state |alpha> sits at
x = sqrt(2) Re(alpha), p = sqrt(2) Im(alpha). The quadrature eigenstate at
local-oscillator phase theta overlaps Fock states as

    <x_theta|n> = exp(-i n theta) * psi_n(x),

with psi_n the n-th Hermite function. The Wigner function is normalized to
integrate to 1 over the (x, p) plane, so the vacuum peaks at 1/pi:

    W(x, p) = (1/pi) int <x-y|rho|x+y> exp(2ipy) dy
            = (1/pi) sum_mn rho[m, n] int psi_m(x-y) psi_n(x+y) exp(2ipy) dy.

It is evaluated through an exact separable expansion. psi_m(x-y) psi_n(x+y)
is the two-mode Fock state |m, n> in the coordinates u = x-y, v = x+y; a
50:50 beam splitter, the rotation to x' = (u+v)/sqrt(2) = sqrt(2) x and
y' = (v-u)/sqrt(2) = sqrt(2) y, keeps the photon number N = m + n and turns
it into sum_{a+b=N} U^N[a, m] psi_a(sqrt(2) x) psi_b(sqrt(2) y), with U^N a
real orthogonal (N+1) x (N+1) block. The Fourier integral in y maps
psi_b(sqrt(2) y) to sqrt(pi) i^b psi_b(sqrt(2) p), so

    W(x, p) = sum_ab C[a, b] psi_a(sqrt(2) x) psi_b(sqrt(2) p),
    C[a, N-a] = pi^(-1/2) i^(N-a) sum_m U^N[a, m] rho[m, N-m],

with a, b <= 2 dim - 2: each anti-diagonal of C is the matching anti-diagonal
of rho carried through one beam-splitter block. A Hermitian rho gives a real
C, up to rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, InvalidInputError, NumericalConsistencyError


def hermite_functions(x: np.ndarray | float, nmax: int) -> np.ndarray:
    """Evaluate the Hermite functions psi_0..psi_nmax at the points x.

    psi_n(x) = pi^(-1/4) (2^n n!)^(-1/2) H_n(x) exp(-x^2/2), computed by the
    normalized three-term recurrence so no factorial ever overflows.

    Parameters
    ----------
    x : array_like
        Evaluation points.
    nmax : int
        Highest index to evaluate, nmax >= 0.

    Returns
    -------
    ndarray of shape (nmax + 1,) + x.shape.
    """
    if nmax < 0:
        raise InvalidInputError("nmax must be >= 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("quadrature points must be finite")
    psi = np.zeros((nmax + 1,) + x.shape)
    psi[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if nmax >= 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(1, nmax):
        psi[n + 1] = np.sqrt(2.0 / (n + 1)) * x * psi[n] - np.sqrt(n / (n + 1)) * psi[n - 1]
    return psi


def coherent_state(alpha: complex, dim: int, normalized: bool = False) -> np.ndarray:
    """Coherent-state amplitudes c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!).

    By default the truncated tail is NOT renormalized, so the truncation
    leak 1 - sum |c_n|^2 stays observable. Pass normalized=True to rescale
    to unit norm inside the truncated space.
    """
    if dim < 1:
        raise InvalidInputError("dim must be >= 1")
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise InvalidInputError("alpha must be finite")
    c = np.zeros(dim, dtype=complex)
    try:
        c[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    except OverflowError:
        # |alpha|^2 beyond the float range: the vacuum amplitude is 0 anyway
        c[0] = 0.0
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return _normalized(c, alpha) if normalized else c


def _normalized(c: np.ndarray, alpha: complex) -> np.ndarray:
    """c / |c|, refused where the truncation keeps no representable norm: for
    large |alpha| the squared amplitudes underflow, and c / |c| would be NaN."""
    norm = np.linalg.norm(c)
    if not norm >= 1e-300:
        raise InvalidInputError(
            f"the dim-{c.size} Fock truncation keeps no representable weight of the "
            f"state at |alpha| = {abs(alpha):.6g}; raise dim or lower |alpha|")
    return c / norm


def cat_state(alpha: complex, parity: str, dim: int) -> np.ndarray:
    """Normalized cat state N(|alpha> + s|-alpha>), s = +1 (even) or -1 (odd).

    Amplitudes of the excluded photon-number parity are exactly zero, not
    merely small: the construction zeroes them before normalizing.
    """
    if parity not in ("even", "odd"):
        raise InvalidInputError(f"parity must be 'even' or 'odd', got {parity!r}")
    if parity == "odd" and alpha == 0:
        raise DegenerateStateError("cat state is the zero vector (odd cat at alpha = 0)")
    c = coherent_state(alpha, dim)
    if parity == "even":
        c[1::2] = 0.0
    else:
        c[0::2] = 0.0
    return _normalized(c, alpha)


def kept_weight(alpha: complex, dim: int, parity: str | None = None) -> float:
    """Weight sum_{n<dim} |c_n|^2 that a dim-dimensional truncation keeps of
    the coherent state |alpha> (parity None) or of the even or odd cat state."""
    weights = np.abs(coherent_state(alpha, dim)) ** 2
    if parity is None:
        return float(weights.sum())
    # |alpha> + s|-alpha> has the amplitudes 2 c_n on its own parity and the
    # squared norm 2 (1 + s exp(-2 |alpha|^2))
    overlap = np.expm1(-2.0 * abs(complex(alpha)) ** 2)
    if parity == "even":
        return float(2.0 * weights[0::2].sum() / (2.0 + overlap))
    return float(2.0 * weights[1::2].sum() / -overlap)


def fock_state(n: int, dim: int) -> np.ndarray:
    """Number state |n> in a dim-dimensional truncated space."""
    if not 0 <= n < dim:
        raise InvalidInputError(f"Fock index {n} outside truncated space of dim {dim}")
    c = np.zeros(dim, dtype=complex)
    c[n] = 1.0
    return c


def pure_density(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density operator |psi><psi| of a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """Overlap fidelity <psi|rho|psi> of a pure target with a density operator.

    For pure rho = |phi><phi| this reduces to |<psi|phi>|^2.
    """
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (psi.size, psi.size):
        raise InvalidInputError(f"dimension mismatch: state {psi.size}, operator {rho.shape}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise InvalidInputError("target state must be normalized")
    val = float(np.real(psi.conj() @ rho @ psi))
    return min(max(val, 0.0), 1.0)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular evaluation grid in natural quadrature units."""

    x_range: tuple[float, float]
    p_range: tuple[float, float]
    x_points: int
    p_points: int

    def __post_init__(self):
        if self.x_range[0] >= self.x_range[1] or self.p_range[0] >= self.p_range[1]:
            raise InvalidInputError("grid ranges must be increasing intervals")
        if self.x_points < 2 or self.p_points < 2:
            raise InvalidInputError("grid resolution must be >= 2 per axis")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.x_points)

    @property
    def ps(self) -> np.ndarray:
        return np.linspace(self.p_range[0], self.p_range[1], self.p_points)


@functools.lru_cache(maxsize=None)
def _beam_splitter(total: int) -> np.ndarray:
    """Real orthogonal 50:50 beam-splitter block U on the N = total photon states.

    U[a, m] is the amplitude of psi_a(x') psi_(N-a)(y') in psi_m(u) psi_(N-m)(v)
    under the rotation x' = (u + v)/sqrt(2), y' = (v - u)/sqrt(2), so
    U = exp(pi/4 G) for the generator G = L - L^T with
    L[a+1, a] = sqrt((a+1)(N-a)). The exponential is taken through the
    eigendecomposition of the Hermitian -iG, whose eigenvalues are the
    integers -N, -N+2, ..., N.
    """
    a = np.arange(total, dtype=float)
    lower = np.diag(np.sqrt((a + 1.0) * (total - a)), -1)
    lam, V = np.linalg.eigh(-1j * (lower - lower.T))
    return ((V * np.exp(0.25j * np.pi * lam)) @ V.conj().T).real


@functools.lru_cache(maxsize=None)
def _coefficient_tables(dim: int) -> tuple[np.ndarray, ...]:
    """Gather, block and scatter tables of the map rho -> C for a dim x dim rho.

    rho[rows, cols] holds in row N the anti-diagonal rho[m, N-m], m = 0..dim-1,
    with cols clipped where N - m falls outside; blocks[N] holds the columns
    of U^N that those entries feed, and zeros for the clipped ones. The pairs
    (a, b) with a + b <= 2 dim - 2 are the entries of C that can be nonzero,
    and scale holds their factors i^b / sqrt(pi).
    """
    size = 2 * dim - 1
    rows = np.broadcast_to(np.arange(dim), (size, dim))
    cols = np.arange(size)[:, None] - rows
    blocks = np.zeros((size, size, dim))
    for total in range(size):
        m = np.flatnonzero((cols[total] >= 0) & (cols[total] < dim))
        blocks[total, :total + 1][:, m] = _beam_splitter(total)[:, m]
    totals, a = np.tril_indices(size)
    b = totals - a
    scale = np.array([1, 1j, -1, -1j])[b % 4] / np.sqrt(np.pi)
    return rows, np.clip(cols, 0, dim - 1), blocks, a, b, scale


def _wigner_coefficients(rho: np.ndarray) -> np.ndarray:
    """The (2d-1) x (2d-1) matrix C of the module docstring for a d x d rho,
    or the stack (..., 2d-1, 2d-1) of a stack (..., d, d) of them."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[-1]
    if rho.ndim < 2 or rho.shape[-2] != d:
        raise InvalidInputError("density operator must be square")
    if np.any(np.abs(rho - rho.conj().swapaxes(-1, -2)) > 1e-10):
        raise InvalidInputError("density operator must be Hermitian")
    rows, cols, blocks, a, b, scale = _coefficient_tables(d)
    # anti[..., N, a] = sum_m U^N[a, m] rho[..., m, N-m]
    anti = (blocks @ rho[..., rows, cols, None])[..., 0]
    C = np.zeros(rho.shape[:-2] + (2 * d - 1, 2 * d - 1), dtype=complex)
    C[..., a, b] = anti[..., a + b, a] * scale
    return C


def _real_part(W: np.ndarray) -> np.ndarray:
    """W.real, once the imaginary part a Hermitian rho leaves is rounding-level."""
    resid = np.abs(W.imag).max() if W.size else 0.0
    if resid > 1e-8:
        raise NumericalConsistencyError(f"Wigner imaginary residue {resid:.3e} exceeds 1e-8")
    return W.real


def wigner_points(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner function of rho at paired points (x_k, p_k); x and p broadcast.

    Evaluated through the separable expansion of the module docstring: the
    coefficient matrix C of rho meets one Hermite-function table in sqrt(2) x
    and one in sqrt(2) p, W_k = sum_ab C[a, b] psi_a(sqrt(2) x_k) psi_b(sqrt(2) p_k).
    The sum is accumulated as a complex number; a Hermitian rho must leave only
    a rounding-level imaginary part, which is checked and then discarded.
    """
    C = _wigner_coefficients(rho)
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    Hx = hermite_functions(np.sqrt(2.0) * x, C.shape[0] - 1)
    Hp = hermite_functions(np.sqrt(2.0) * p, C.shape[0] - 1)
    return _real_part((Hx * np.tensordot(C, Hp, axes=1)).sum(0))


def wigner(rho: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Wigner function on a grid, W[i, j] = W(xs[i], ps[j]).

    The separable expansion makes the grid one matrix product,
    W = Hx^T C Hp, with the Hermite-function tables Hx[a, i] = psi_a(sqrt(2) xs[i])
    and Hp[b, j] = psi_b(sqrt(2) ps[j]). Normalization: the grid integral of W
    approaches 1 for a unit-trace rho once the grid covers the state's support.

    rho may be one d x d state or a stack (..., d, d) of them; a stack gives
    the grids (..., x_points, p_points), each bit for bit the grid of its
    state alone. The two Hermite tables are built once per call, and the
    product Hx^T C Hp is taken one state at a time, which keeps the
    temporaries at one grid's size. Every state must pass the unit-trace and
    Hermitian checks.
    """
    rho = np.asarray(rho, dtype=complex)
    if np.any(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) > 1e-8):
        raise InvalidInputError("density operator must have unit trace")
    C = _wigner_coefficients(rho)
    Hx = hermite_functions(np.sqrt(2.0) * grid.xs, C.shape[-1] - 1)
    Hp = hermite_functions(np.sqrt(2.0) * grid.ps, C.shape[-1] - 1)
    W = np.empty(C.shape[:-2] + (grid.x_points, grid.p_points))
    for index in np.ndindex(C.shape[:-2]):
        W[index] = _real_part(Hx.T @ C[index] @ Hp)
    return W
