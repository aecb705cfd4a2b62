"""GHZ-diagonal states, the extended depolarisation twirl, and error rates.

The central analytic object is a probability vector over the entangled
basis of N qubits: one coefficient ``lambda_j^sigma`` per basis state
``|j, sigma>`` (see :mod:`nqkd.dense` for the basis convention).  The
twirl -- applying each operator of the depolarisation set with
probability 1/2 -- projects any N-qubit state onto this diagonal family
and additionally equalises ``lambda_j^+ = lambda_j^-`` for every j > 0.

All protocol-relevant error rates are linear functionals of the
coefficients:

* ``qber_z``        -- probability that some Bob's Z outcome differs
                       from Alice's,
* ``qber_x``        -- probability of the unexpected all-X parity,
* ``qber_pairwise`` -- probability that one given Bob differs from Alice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dense import (
    DenseState,
    GhzBasisIndex,
    STATE_ATOL,
    _phase_pair_diagonal,
    _quarter_phase_diagonal,
    check_cap,
    qubit_bits,
)

COEFF_ATOL = 1e-12


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
        half = 1 << (self.n_parties - 1)
        lp = np.asarray(self.lam_plus, dtype=float).copy()
        lm = np.asarray(self.lam_minus, dtype=float).copy()
        if lp.shape != (half,) or lm.shape != (half,):
            raise ValueError(f"coefficient arrays must have length {half}")
        if lp.min(initial=0.0) < -COEFF_ATOL or lm.min(initial=0.0) < -COEFF_ATOL:
            raise ValueError("negative coefficient")
        total = lp.sum() + lm.sum()
        if not abs(total - 1.0) <= 1e-9:  # written so that NaN fails it
            raise ValueError(f"coefficients sum to {total}, not 1")
        lp.flags.writeable = False
        lm.flags.writeable = False
        object.__setattr__(self, "lam_plus", lp)
        object.__setattr__(self, "lam_minus", lm)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n_parties,
                "lambda_plus": self.lam_plus.tolist(),
                "lambda_minus": self.lam_minus.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GhzDiagonalState":
        obj = json.loads(text)
        return cls(int(obj["n"]), np.asarray(obj["lambda_plus"]), np.asarray(obj["lambda_minus"]))


def twirl_dense(state: DenseState) -> DenseState:
    """Exact 50/50 mixture over all subset products of the twirl set.

    Applying each operator independently with probability 1/2 equals the
    sequential averaging rho -> (rho + U rho U^dag)/2 over the 2N-1
    operators, which is what is computed here (deterministically, no
    sampling).
    """
    n = state.n_qubits
    dim = 1 << n
    rho = state.density().astype(complex)
    rho = 0.5 * (rho + rho[::-1, ::-1])
    for k in range(1, n):
        d = _phase_pair_diagonal(n, k)
        rho = 0.5 * (rho + np.outer(d, d.conj()) * rho)
        d = _quarter_phase_diagonal(n, k)
        rho = 0.5 * (rho + np.outer(d, d.conj()) * rho)
    return DenseState.from_matrix(rho)


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
    state.validate(check_psd=state.n_qubits <= 8 and not state.pure)
    twirled = twirl_dense(state)
    lam_plus, lam_minus = coefficients_from_dense(twirled)
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

def qber_z(state: GhzDiagonalState) -> float:
    """Probability that at least one Bob's Z outcome differs from Alice's."""
    return float(1.0 - state.lam_plus[0] - state.lam_minus[0])


def qber_x(state: GhzDiagonalState) -> float:
    """Probability of the unexpected outcome of the all-parties X parity.

    The parity expectation of a diagonal state is
    sum_j (lambda_j^+ - lambda_j^-), which reduces to
    lambda_0^+ - lambda_0^- once the twirl has symmetrised j > 0.
    """
    expectation = float((state.lam_plus - state.lam_minus).sum())
    return 0.5 * (1.0 - expectation)


def qber_pairwise(state: GhzDiagonalState, bob: int) -> float:
    """Probability that Bob ``bob`` (1..N-1) disagrees with Alice in Z.

    Sums lambda_j^+ + lambda_j^- over all j whose Bob-``bob`` bit is set;
    for symmetrised states this equals twice the sum of lambda_j.
    """
    n = state.n_parties
    if not 1 <= bob <= n - 1:
        raise ValueError(f"bob index {bob} outside 1..{n - 1}")
    j = np.arange(1 << (n - 1))
    mask = ((j >> (n - 1 - bob)) & 1) == 1
    return float(state.lam_plus[mask].sum() + state.lam_minus[mask].sum())


def qber_pairwise_all(state: GhzDiagonalState) -> np.ndarray:
    """qber_pairwise for every Bob, as an array of length N-1."""
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
    "GhzDiagonalState",
    "GhzBasisIndex",
    "twirl_dense",
    "coefficients_from_dense",
    "ghz_diagonal_from_dense",
    "dense_from_ghz_diagonal",
    "qber_z",
    "qber_x",
    "qber_pairwise",
    "qber_pairwise_all",
    "correlated_resource",
    "pairwise_correlator",
]
