"""GHZ-diagonal states, the extended depolarisation twirl, and error rates.

The central analytic object is a probability vector over the entangled
basis of N qubits: one coefficient ``lambda_j^sigma`` per basis state
``|j, sigma>`` (see :mod:`nqkd.dense` for the basis convention).  The
twirl -- applying each operator of the depolarisation set with
probability 1/2 -- projects any N-qubit state onto this diagonal family
and additionally equalises ``lambda_j^+ = lambda_j^-`` for every j > 0.

A state that is also invariant under permutations of the Bobs has
coefficients that depend on j only through its Bob weight |j|;
``WeightClassState`` stores it as one total per weight class, which is
O(N) floats at any N, and ``expand`` turns it into the per-branch form.

All protocol-relevant error rates are linear functionals of the
coefficients, with closed forms for either representation:

* ``qber_z``        -- probability that some Bob's Z outcome differs
                       from Alice's,
* ``qber_x``        -- probability of the unexpected all-X parity,
* ``qber_pairwise`` -- probability that one given Bob differs from Alice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .dense import DenseState, STATE_ATOL, check_cap, qubit_bits

COEFF_ATOL = 1e-12

# Largest allocation one object may ask for: the coefficient arrays of an
# expanded state or the peak of a protocol run (``ProtocolConfig.peak_bytes``).
# A larger request raises ValueError before anything is allocated.  4 GiB is
# half of an 8 GB machine.
ARRAY_BYTE_BUDGET = 1 << 32

# uniform_split: a weight class whose share is below NEGLIGIBLE_SHARE (it may be
# subnormal, where P_w / s_w keeps no precision) is left out of the minimum, and
# a residual of either state type at most RESIDUAL_RTOL of its class mass, or
# below NEGLIGIBLE_SHARE, is rounding of zero.
NEGLIGIBLE_SHARE = 1e-290
RESIDUAL_RTOL = 1e-12


@lru_cache(maxsize=16)
def binomial_shares(n_parties: int) -> np.ndarray:
    """s_w = C(N-1, w) 2^-(N-1) for w = 0..N-1, each correctly rounded (read-only).

    The share of the 2^(N-1) branches j with Bob weight w.  Exact integer
    ratios do not overflow at large N; the shares far from w = (N-1)/2
    underflow to subnormals or zero there.
    """
    bobs = n_parties - 1
    shares, count, scale = [], 1, 2**bobs
    for w in range(n_parties):
        shares.append(count / scale)
        count = count * (bobs - w) // (w + 1)
    shares = np.array(shares)
    shares.flags.writeable = False
    return shares


def _frozen_coefficients(plus, minus, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float copies of two coefficient arrays that together form a probability vector."""
    lp = np.asarray(plus, dtype=float).copy()
    lm = np.asarray(minus, dtype=float).copy()
    if lp.shape != (length,) or lm.shape != (length,):
        raise ValueError(f"coefficient arrays must have length {length}")
    if lp.min(initial=0.0) < -COEFF_ATOL or lm.min(initial=0.0) < -COEFF_ATOL:
        raise ValueError("negative coefficient")
    total = lp.sum() + lm.sum()
    if not abs(total - 1.0) <= 1e-9:  # written so that NaN fails it
        raise ValueError(f"coefficients sum to {total}, not 1")
    lp.flags.writeable = False
    lm.flags.writeable = False
    return lp, lm


@dataclass(frozen=True)
class GhzDiagonalState:
    """Coefficients of a state that is diagonal in the entangled basis.

    ``lam_plus[j]`` and ``lam_minus[j]`` hold the weights of ``|j, +>``
    and ``|j, ->`` for j in [0, 2^(N-1)).  Coefficients must be
    non-negative and sum to one (within ``COEFF_ATOL``).
    """

    n_parties: int
    lam_plus: np.ndarray
    lam_minus: np.ndarray

    def __post_init__(self):
        if self.n_parties < 2:
            raise ValueError("need at least 2 parties")
        lp, lm = _frozen_coefficients(self.lam_plus, self.lam_minus, 1 << (self.n_parties - 1))
        object.__setattr__(self, "lam_plus", lp)
        object.__setattr__(self, "lam_minus", lm)


@dataclass(frozen=True)
class WeightClassState:
    """A GHZ-diagonal state that is invariant under permutations of the Bobs.

    Its coefficient of ``|j, sigma>`` depends on j only through the Bob
    weight w = |j|, so the state is stored per weight class:
    ``plus_by_weight[w]`` and ``minus_by_weight[w]`` hold the total
    weight P_w^+- of the C(N-1, w) basis states ``|j, +->`` with |j| = w,
    for w = 0..N-1.  These are 2N numbers in [0, 1] at any N; they must
    be non-negative and sum to one (within ``COEFF_ATOL``).
    """

    n_parties: int
    plus_by_weight: np.ndarray
    minus_by_weight: np.ndarray

    def __post_init__(self):
        if self.n_parties < 2:
            raise ValueError("need at least 2 parties")
        plus, minus = _frozen_coefficients(self.plus_by_weight, self.minus_by_weight, self.n_parties)
        object.__setattr__(self, "plus_by_weight", plus)
        object.__setattr__(self, "minus_by_weight", minus)

    def expand(self) -> GhzDiagonalState:
        """The same state with one coefficient per branch j, lambda_j^+- = P_w^+- / C(N-1, w).

        Raises ``ValueError`` before allocating when the two coefficient
        arrays would exceed ``ARRAY_BYTE_BUDGET``.
        """
        n = self.n_parties
        needed = 2 * 8 << (n - 1)
        if needed > ARRAY_BYTE_BUDGET:
            raise ValueError(f"expanding an N={n} state takes {needed} bytes, over the "
                             f"{ARRAY_BYTE_BUDGET}-byte budget")
        weight = np.bitwise_count(np.arange(1 << (n - 1)))
        branches = np.array([comb(n - 1, w) for w in range(n)], dtype=float)
        return GhzDiagonalState(n, (self.plus_by_weight / branches)[weight],
                                (self.minus_by_weight / branches)[weight])


def _twirl_kept_entries(rho: np.ndarray) -> tuple[np.ndarray, complex]:
    """The entries of the twirl of ``rho`` that can be nonzero: the diagonal
    averaged with its reverse, and c = 0.5 (rho[0, ~0] + rho[~0, 0]) at the
    corners (0, ~0) and (~0, 0).

    The flip of every qubit averages entry (x, y) with (~x, ~y).  A diagonal
    operator diag(d) multiplies it by (1 + d[x] conj(d[y]))/2: 1 where
    d[x] = d[y], else 0.  All 2(N-1) agree only at y = x and at the corners.
    """
    diagonal = np.diagonal(rho)
    return 0.5 * (diagonal + diagonal[::-1]), 0.5 * (rho[0, -1] + rho[-1, 0])


def twirl_dense(state: DenseState) -> DenseState:
    """Exact 50/50 mixture over all subset products of the twirl set.

    Applying each operator independently with probability 1/2 equals the
    sequential averaging rho -> (rho + U rho U^dag)/2 over the 2N-1
    operators (deterministically, no sampling).  Only the 2^N + 2 entries
    of ``_twirl_kept_entries`` survive it: O(2^N) work beyond the output's
    allocation.
    """
    rho = state.density()
    diagonal, corner = _twirl_kept_entries(rho)
    twirled = np.zeros(rho.shape, dtype=complex)
    np.fill_diagonal(twirled, diagonal)
    twirled[0, -1] = twirled[-1, 0] = corner
    return DenseState.from_matrix(twirled)


def twirled_coefficients(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda^+, lambda^-) of the twirl of the 2^N x 2^N matrix ``rho``, in
    O(2^N) time and memory: lambda_0^+- = d_0 +- Re c and lambda_j^+- = d_j
    for j > 0, with d and c the averaged diagonal and the corner of
    ``_twirl_kept_entries``.  The bits of ``coefficients_from_dense(twirl_dense(.))``.
    """
    diagonal, corner = _twirl_kept_entries(rho)
    plus = diagonal[: diagonal.size // 2].real.copy()
    minus = plus.copy()
    plus[0] += corner.real
    minus[0] -= corner.real
    return plus, minus


def coefficients_from_dense(state: DenseState) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal coefficients <j, sigma| rho |j, sigma> of any state."""
    n = state.n_qubits
    half = 1 << (n - 1)
    rho = state.density()
    j = np.arange(half)
    u = j
    v = half + ((~j) & (half - 1))
    diag = 0.5 * (np.real(rho[u, u]) + np.real(rho[v, v]))
    cross = np.real(rho[u, v])
    return diag + cross, diag - cross


def ghz_diagonal_from_dense(state: DenseState) -> GhzDiagonalState:
    """Twirl a dense state and return its diagonal coefficients."""
    if state.n_qubits < 2:
        raise ValueError("need at least 2 parties")
    state.validate(check_psd=state.n_qubits <= 8 and not state.pure)
    lam_plus, lam_minus = twirled_coefficients(state.density())
    return GhzDiagonalState(state.n_qubits, np.maximum(lam_plus, 0.0), np.maximum(lam_minus, 0.0))


def dense_from_ghz_diagonal(state: GhzDiagonalState) -> DenseState:
    """Embed the coefficient vector back into an explicit density matrix."""
    n = state.n_parties
    check_cap(n)
    half = 1 << (n - 1)
    rho = np.zeros((2 * half, 2 * half), dtype=complex)
    j = np.arange(half)
    u = j
    v = half + ((~j) & (half - 1))
    avg = 0.5 * (state.lam_plus + state.lam_minus)
    diff = 0.5 * (state.lam_plus - state.lam_minus)
    rho[u, u] = avg
    rho[v, v] = avg
    rho[u, v] = diff
    rho[v, u] = diff
    return DenseState.from_matrix(rho)


# ---------------------------------------------------------------------------
# Error rates
# ---------------------------------------------------------------------------

def diagonal_coefficients(state: GhzDiagonalState | WeightClassState) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) per branch j, or per Bob weight w of a weight-class state; entry 0 is j = 0 in both."""
    if isinstance(state, WeightClassState):
        return state.plus_by_weight, state.minus_by_weight
    return state.lam_plus, state.lam_minus


def uniform_split(state: GhzDiagonalState | WeightClassState) -> tuple[float, np.ndarray]:
    """(U, R): the class masses P_c = P_c^+ + P_c^- split as U s_c + R_c.

    A class c is one branch j of a ``GhzDiagonalState``, of share
    s = 2^-(N-1), or one Bob weight w of a ``WeightClassState``, of share
    s_w (``binomial_shares``).  U is the largest share of the state that
    is uniform over all 2^(N-1) branches: U = min_c P_c / s_c, which leaves
    every residual R_c non-negative.  Weight classes of negligible share
    stay out of the minimum and keep their residual, clipped at zero, and a
    residual within rounding of zero is zero, so a depolarized state's
    residual is its j = 0 class alone, in either form and at any N.  A pure
    state, or one with an empty class, has U = 0.
    """
    plus, minus = diagonal_coefficients(state)
    masses = plus + minus
    np.maximum(masses, 0.0, out=masses)
    if isinstance(state, WeightClassState):
        shares = binomial_shares(state.n_parties)
        counted = shares >= NEGLIGIBLE_SHARE
        uniform = float((masses[counted] / shares[counted]).min())
    else:
        shares = 0.5 ** (state.n_parties - 1)  # a scalar: an array of shares would be one more copy of the state
        uniform = float(masses.min()) / shares
    residual = masses - uniform * shares
    np.maximum(residual, 0.0, out=residual)
    masses *= RESIDUAL_RTOL
    residual[(residual <= masses) | (residual < NEGLIGIBLE_SHARE)] = 0.0
    return uniform, residual


def qber_z(state: GhzDiagonalState | WeightClassState) -> float:
    """Probability that at least one Bob's Z outcome differs from Alice's."""
    plus, minus = diagonal_coefficients(state)
    return float(1.0 - plus[0] - minus[0])


def qber_x(state: GhzDiagonalState | WeightClassState) -> float:
    """Probability of the unexpected outcome of the all-parties X parity.

    The parity expectation of a diagonal state is
    sum_j (lambda_j^+ - lambda_j^-), which reduces to
    lambda_0^+ - lambda_0^- once the twirl has symmetrised j > 0; for a
    weight-class state it is sum_w (P_w^+ - P_w^-).
    """
    plus, minus = diagonal_coefficients(state)
    expectation = float((plus - minus).sum())
    return 0.5 * (1.0 - expectation)


def qber_pairwise(state: GhzDiagonalState | WeightClassState, bob: int) -> float:
    """Probability that Bob ``bob`` (1..N-1) disagrees with Alice in Z.

    Sums lambda_j^+ + lambda_j^- over all j whose Bob-``bob`` bit is set;
    for symmetrised states this equals twice the sum of lambda_j.  A
    weight-class state flips a given Bob in a fraction w/(N-1) of class
    w, the same for every Bob.
    """
    n = state.n_parties
    if not 1 <= bob <= n - 1:
        raise ValueError(f"bob index {bob} outside 1..{n - 1}")
    if isinstance(state, WeightClassState):
        return float(np.arange(n) / (n - 1) @ (state.plus_by_weight + state.minus_by_weight))
    j = np.arange(1 << (n - 1))
    mask = ((j >> (n - 1 - bob)) & 1) == 1
    return float(state.lam_plus[mask].sum() + state.lam_minus[mask].sum())


def qber_pairwise_all(state: GhzDiagonalState | WeightClassState) -> np.ndarray:
    """qber_pairwise for every Bob, as an array of length N-1."""
    if isinstance(state, WeightClassState):
        return np.full(state.n_parties - 1, qber_pairwise(state, 1))
    return np.array([qber_pairwise(state, i) for i in range(1, state.n_parties)])


# ---------------------------------------------------------------------------
# Correlations of the generic perfectly-Z-correlated resource
# ---------------------------------------------------------------------------

def correlated_resource(n_parties: int, a: complex, b: complex) -> DenseState:
    """The state a|0...0> + b|1...1> (normalised)."""
    check_cap(n_parties)
    vec = np.zeros(1 << n_parties, dtype=complex)
    vec[0] = a
    vec[-1] = b
    norm = np.linalg.norm(vec)
    if norm < STATE_ATOL:
        raise ValueError("state has zero norm")
    return DenseState.from_vector(vec / norm)


def pairwise_correlator(psi: DenseState, alpha: str, beta: str, i: int, j: int) -> float:
    """Two-party Pauli correlator <sigma_i^alpha sigma_j^beta> on a pure state.

    For any state of the form a|0...0> + b|1...1> with N >= 3 parties the
    correlator vanishes unless alpha == beta == 'z'.
    """
    if not psi.pure:
        raise ValueError("pairwise_correlator expects a pure state")
    if i == j:
        raise ValueError("parties must differ")
    n = psi.n_qubits
    idx = np.arange(1 << n)
    phi = psi.data
    for qubit, axis in ((i, alpha), (j, beta)):
        bit = qubit_bits(idx, qubit, n)
        flip = idx ^ (1 << (n - 1 - qubit))
        if axis == "x":
            phi = phi[flip]
        elif axis == "y":
            phi = phi[flip] * np.where(bit == 1, 1j, -1j)
        elif axis == "z":
            phi = phi * np.where(bit == 1, -1.0, 1.0)
        else:
            raise ValueError(f"unknown Pauli axis {axis!r}")
    return float(np.real(np.vdot(psi.data, phi)))


__all__ = [
    "ARRAY_BYTE_BUDGET",
    "GhzDiagonalState",
    "WeightClassState",
    "binomial_shares",
    "twirl_dense",
    "twirled_coefficients",
    "coefficients_from_dense",
    "ghz_diagonal_from_dense",
    "dense_from_ghz_diagonal",
    "diagonal_coefficients",
    "uniform_split",
    "qber_z",
    "qber_x",
    "qber_pairwise",
    "qber_pairwise_all",
    "correlated_resource",
    "pairwise_correlator",
]
