"""Dense state-vector / density-matrix backend.

This is the brute-force oracle substrate: every analytic quantity in the
package (twirl coefficients, error rates, circuit noise models) can be
recomputed here from first principles on explicit 2^N-dimensional arrays
and compared against the closed forms.

Conventions, fixed once for the whole package:

* Qubit 0 is Alice and corresponds to the most significant bit of a
  computational-basis index.  Qubits 1..N-1 are Bobs 1..N-1 in order.
* The joint basis of N qubits is written ``|a_0 a_1 ... a_{N-1}>`` with
  index ``sum_q a_q * 2^(N-1-q)``.
* The entangled basis is indexed by an (N-1)-bit string ``j`` (bit k,
  counted from 1, belongs to Bob k; Bob 1 owns the most significant bit
  of ``j``) and a sign ``sigma``:

      |j, sigma> = (|0>|j> + sigma |1>|~j>) / sqrt(2),

  where ``~j`` is the bitwise negation of ``j`` over N-1 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

# Qubit cap of every dense array: one 13-qubit density matrix takes 1 GiB.
DENSE_CAP = 12

STATE_ATOL = 1e-12
PSD_ATOL = 1e-10


def check_cap(n_qubits: int) -> None:
    if n_qubits > DENSE_CAP:
        raise ValueError(f"dense simulation of {n_qubits} qubits exceeds the cap of {DENSE_CAP}")


def qubit_bits(indices: np.ndarray | int, qubit: int, n_qubits: int):
    """Bit value of ``qubit`` inside computational index/indices."""
    return (indices >> (n_qubits - 1 - qubit)) & 1


@dataclass(frozen=True)
class DenseState:
    """An explicit N-qubit state, either a pure vector or a mixed matrix."""

    n_qubits: int
    data: np.ndarray
    pure: bool

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "DenseState":
        vector = np.asarray(vector, dtype=complex)
        n = _log2_dim(vector.shape[0])
        if vector.ndim != 1:
            raise ValueError("pure state must be a 1-d amplitude vector")
        return cls(n, vector, True)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DenseState":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("mixed state must be a square matrix")
        n = _log2_dim(matrix.shape[0])
        return cls(n, matrix, False)

    def density(self) -> np.ndarray:
        """Density matrix (outer product for pure states)."""
        if self.pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def z_probabilities(self) -> np.ndarray:
        """Probabilities of the 2^N computational (all-Z) outcomes."""
        if self.pure:
            return np.abs(self.data) ** 2
        return np.real(np.diagonal(self.data)).copy()

    def validate(self, check_psd: bool = False) -> None:
        """Raise ValueError if the state is not physical.

        Positivity (eigenvalue) checking is opt-in since it is cubic in
        the dimension.
        """
        if self.pure:
            norm = np.linalg.norm(self.data)
            if abs(norm - 1.0) > STATE_ATOL:
                raise ValueError(f"pure state norm {norm} is not 1")
            return
        rho = self.data
        if not np.allclose(rho, rho.conj().T, atol=STATE_ATOL):
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > STATE_ATOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if check_psd:
            evals = np.linalg.eigvalsh(rho)
            if evals.min() < -PSD_ATOL:
                raise ValueError(f"density matrix has eigenvalue {evals.min()}")


def _log2_dim(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class GhzBasisIndex:
    """Index (j, sigma) of an entangled-basis state; sigma is +1 or -1."""

    j: int
    sigma: int

    def __post_init__(self):
        if self.sigma not in (+1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.j < 0:
            raise ValueError("j must be non-negative")

    def negated_j(self, n_parties: int) -> int:
        """Bitwise negation of j over N-1 bits."""
        return (~self.j) & ((1 << (n_parties - 1)) - 1)


def ghz_basis_vector(n_parties: int, idx: GhzBasisIndex) -> DenseState:
    """Entangled basis vector (|0>|j> + sigma |1>|~j>)/sqrt(2)."""
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    check_cap(n_parties)
    half = 1 << (n_parties - 1)
    if not 0 <= idx.j < half:
        raise ValueError(f"j={idx.j} outside [0, {half})")
    vec = np.zeros(2 * half, dtype=complex)
    vec[idx.j] = 1.0 / np.sqrt(2.0)
    vec[half + idx.negated_j(n_parties)] += idx.sigma / np.sqrt(2.0)
    return DenseState.from_vector(vec)


def ghz_state(n_parties: int) -> DenseState:
    """The noiseless resource state |j=0, +>."""
    return ghz_basis_vector(n_parties, GhzBasisIndex(0, +1))


# ---------------------------------------------------------------------------
# Depolarisation operators
# ---------------------------------------------------------------------------

TWIRL_FLIP_ALL = "x_all"   # X on every qubit
TWIRL_PHASE_PAIR = "zz"    # Z on Alice and Z on Bob k
TWIRL_QUARTER = "r"        # diag(1, i) on Alice and diag(1, -i) on Bob k


def _quarter_phase_diagonal(n_qubits: int, k: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    a = qubit_bits(idx, 0, n_qubits)
    b = qubit_bits(idx, k, n_qubits)
    return (1j) ** a * (-1j) ** b


def _phase_pair_diagonal(n_qubits: int, k: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    a = qubit_bits(idx, 0, n_qubits)
    b = qubit_bits(idx, k, n_qubits)
    return np.where((a + b) % 2 == 1, -1.0, 1.0).astype(complex)


def apply_twirl_operator(state: DenseState, op: str, k: int | None = None) -> DenseState:
    """Apply one depolarisation operator (unitary conjugation).

    ``op`` is one of ``"x_all"`` (flip every qubit), ``"zz"`` (Z on Alice
    and Bob k) or ``"r"`` (diag(1,i) on Alice, diag(1,-i) on Bob k); the
    latter two require ``k`` in 1..N-1.
    """
    n = state.n_qubits
    if op == TWIRL_FLIP_ALL:
        if state.pure:
            return DenseState.from_vector(state.data[::-1])
        return DenseState.from_matrix(state.data[::-1, ::-1])
    if op not in (TWIRL_PHASE_PAIR, TWIRL_QUARTER):
        raise ValueError(f"unknown twirl operator {op!r}")
    if k is None or not 1 <= k <= n - 1:
        raise ValueError(f"operator {op!r} needs a Bob index k in 1..{n - 1}")
    diag = _phase_pair_diagonal(n, k) if op == TWIRL_PHASE_PAIR else _quarter_phase_diagonal(n, k)
    if state.pure:
        return DenseState.from_vector(diag * state.data)
    return DenseState.from_matrix(np.outer(diag, diag.conj()) * state.data)


# ---------------------------------------------------------------------------
# Gates and channels for the circuit oracles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cnot_permutation(n_qubits: int, control: int, target: int) -> np.ndarray:
    """Index permutation implemented by a controlled-NOT (cached, read-only)."""
    if control == target:
        raise ValueError("control and target must differ")
    idx = np.arange(1 << n_qubits)
    flip = qubit_bits(idx, control, n_qubits) == 1
    out = idx.copy()
    out[flip] = idx[flip] ^ (1 << (n_qubits - 1 - target))
    out.flags.writeable = False
    return out


def apply_cnot(rho: np.ndarray, n_qubits: int, control: int, target: int) -> np.ndarray:
    """rho[p][:, p] for the CNOT's permutation p, taken one axis at a time."""
    p = cnot_permutation(n_qubits, control, target)
    return rho.take(p, axis=0).take(p, axis=1)


def apply_cz(psi: np.ndarray, n_qubits: int, a: int, b: int) -> np.ndarray:
    """Controlled-phase on a state vector."""
    idx = np.arange(1 << n_qubits)
    sign = np.where((qubit_bits(idx, a, n_qubits) & qubit_bits(idx, b, n_qubits)) == 1, -1.0, 1.0)
    return psi * sign


def apply_single_qubit(psi: np.ndarray, gate: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Apply a 2x2 gate to one qubit of a state vector."""
    t = psi.reshape((2,) * n_qubits)
    t = np.tensordot(gate, t, axes=([1], [qubit]))
    t = np.moveaxis(t, 0, qubit)
    return t.reshape(-1)


@lru_cache(maxsize=None)
def _mixed_plan(n_qubits: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """Axes that put ``qubits`` after the kept ones, on both sides of a 2N-axis
    density tensor, and the index of each of the 2^r diagonal blocks of the
    traced-out qubits in that order."""
    keep = [q for q in range(n_qubits) if q not in qubits]
    order = keep + list(qubits)
    axes = tuple(order + [n_qubits + q for q in order])
    kept = (slice(None),) * len(keep)
    return axes, tuple(kept + bits + kept + bits for bits in product((0, 1), repeat=len(qubits)))


def replace_with_mixed(rho: np.ndarray, n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Trace out ``qubits`` and put back the maximally mixed state there.

    This is the failure branch of the noisy two-qubit gate model; the
    result keeps ``rho``'s dtype, so a real matrix stays real.  The reduced
    matrix over 2^r is written onto each diagonal block of the traced-out
    qubits, through a view of the output with their axes last.
    """
    axes, blocks = _mixed_plan(n_qubits, tuple(qubits))
    r = len(qubits)
    m = n_qubits - r
    t = rho.reshape((2,) * (2 * n_qubits)).transpose(axes)
    t = t.reshape(1 << m, 1 << r, 1 << m, 1 << r)
    sub = np.einsum("aibi->ab", t) / (1 << r)
    sub = sub.reshape((2,) * (2 * m))
    out = np.zeros((2,) * (2 * n_qubits), dtype=rho.dtype)
    view = out.transpose(axes)
    for block in blocks:
        view[block] = sub
    return out.reshape(1 << n_qubits, 1 << n_qubits)


# X-basis and Y-basis eigenvector columns (+1 eigenvector first).
_BASIS_COLUMNS = {
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0),
    "z": np.eye(2, dtype=complex),
}


def product_basis_probabilities(state: DenseState, bases: str) -> np.ndarray:
    """Outcome distribution of a product measurement.

    ``bases`` is a string over ``x``/``y``/``z``, one letter per qubit.
    The returned array has one entry per outcome index; bit q of the
    index is 0 for the +1 eigenvalue of qubit q's observable.
    """
    n = state.n_qubits
    if len(bases) != n:
        raise ValueError("need one basis letter per qubit")
    if state.pure:
        t = state.data.reshape((2,) * n)
        for q, b in enumerate(bases):
            u = _BASIS_COLUMNS[b]
            t = np.tensordot(u.conj().T, t, axes=([1], [q]))
            t = np.moveaxis(t, 0, q)
        return np.abs(t.reshape(-1)) ** 2
    t = state.data.reshape((2,) * (2 * n))
    for q, b in enumerate(bases):
        u = _BASIS_COLUMNS[b]
        t = np.tensordot(u.conj().T, t, axes=([1], [q]))
        t = np.moveaxis(t, 0, q)
        t = np.tensordot(t, u, axes=([n + q], [0]))
        t = np.moveaxis(t, -1, n + q)
    probs = np.einsum(t.reshape(1 << n, 1 << n), [0, 0], [0])
    return np.real(probs)
