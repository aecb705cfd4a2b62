"""Dense backend: basis vectors, twirl operators, traces and measurements."""

import itertools
import tracemalloc

import numpy as np
import pytest

from nqkd.dense import (
    DENSE_CAP,
    DenseState,
    GhzBasisIndex,
    apply_cnot,
    apply_twirl_operator,
    cnot_permutation,
    ghz_basis_vector,
    ghz_state,
    product_basis_probabilities,
    qubit_bits,
    replace_with_mixed,
)

RT2 = 1 / np.sqrt(2.0)


def partial_trace(rho: np.ndarray, n_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix on ``keep`` (in the listed order); the tests' reference, which the
    package itself never forms."""
    traced = [q for q in range(n_qubits) if q not in keep]
    order = list(keep) + traced
    t = rho.reshape((2,) * (2 * n_qubits))
    t = t.transpose(order + [n_qubits + q for q in order])
    m, r = len(keep), len(traced)
    t = t.reshape(1 << m, 1 << r, 1 << m, 1 << r)
    return np.einsum("aibi->ab", t)


def cnot_reference(rho: np.ndarray, n_qubits: int, control: int, target: int) -> np.ndarray:
    """CNOT by a permutation built for this call and indexed on both axes at once."""
    idx = np.arange(1 << n_qubits)
    p = np.where(qubit_bits(idx, control, n_qubits) == 1, idx ^ (1 << (n_qubits - 1 - target)), idx)
    return rho[np.ix_(p, p)]


def mixed_reference(rho: np.ndarray, n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Trace out ``qubits`` and tensor the maximally mixed state back in, as the broadcast
    product of the reduced matrix with I/2^r, transposed back to the original qubit order."""
    keep = [q for q in range(n_qubits) if q not in qubits]
    order = keep + list(qubits)
    m, r = len(keep), len(qubits)
    t = rho.reshape((2,) * (2 * n_qubits)).transpose(order + [n_qubits + q for q in order])
    sub = np.einsum("aibi->ab", t.reshape(1 << m, 1 << r, 1 << m, 1 << r))
    mixed = np.eye(1 << r, dtype=rho.dtype) / (1 << r)
    full = (sub[:, None, :, None] * mixed[None, :, None, :]).reshape((2,) * (2 * n_qubits))
    inverse = list(np.argsort(order))
    full = full.transpose(inverse + [n_qubits + q for q in inverse])
    return full.reshape(1 << n_qubits, 1 << n_qubits)


def test_bell_state_is_j0_plus():
    vec = ghz_basis_vector(2, GhzBasisIndex(0, +1)).data
    assert np.allclose(vec, [RT2, 0, 0, RT2])


def test_three_party_resource_state():
    vec = ghz_state(3).data
    expected = np.zeros(8)
    expected[0] = expected[7] = RT2
    assert np.allclose(vec, expected)


def test_basis_vector_places_negated_branch():
    # j = 01 for N=3: |0,01> + |1,10>
    vec = ghz_basis_vector(3, GhzBasisIndex(1, +1)).data
    assert vec[0b001] == pytest.approx(RT2)
    assert vec[0b110] == pytest.approx(RT2)
    minus = ghz_basis_vector(3, GhzBasisIndex(1, -1)).data
    assert minus[0b110] == pytest.approx(-RT2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_is_orthonormal(n):
    vectors = [
        ghz_basis_vector(n, GhzBasisIndex(j, s)).data
        for j in range(1 << (n - 1))
        for s in (+1, -1)
    ]
    gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    assert np.allclose(gram, np.eye(1 << n), atol=1e-12)


def test_basis_vector_errors():
    with pytest.raises(ValueError):
        ghz_basis_vector(3, GhzBasisIndex(4, +1))
    with pytest.raises(ValueError):
        ghz_basis_vector(1, GhzBasisIndex(0, +1))
    with pytest.raises(ValueError):
        GhzBasisIndex(0, 2)


def test_dense_cap_raises_before_allocating():
    assert DENSE_CAP == 12
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap of 12"):
            ghz_basis_vector(13, GhzBasisIndex(0, +1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the 2^13-entry complex vector alone takes 128 KiB


def test_quarter_twirl_fixes_j0():
    for n in (2, 3, 4):
        psi = ghz_basis_vector(n, GhzBasisIndex(0, +1))
        out = apply_twirl_operator(psi, "r", 1)
        assert np.allclose(out.data, psi.data, atol=1e-12)


def test_quarter_twirl_maps_j1_to_minus_i_sign_flip():
    psi = ghz_basis_vector(2, GhzBasisIndex(1, +1))
    target = ghz_basis_vector(2, GhzBasisIndex(1, -1))
    out = apply_twirl_operator(psi, "r", 1)
    assert np.allclose(out.data, -1j * target.data, atol=1e-12)


def test_flip_all_eigenvectors():
    for n in (2, 3):
        for sigma in (+1, -1):
            psi = ghz_basis_vector(n, GhzBasisIndex(1 % (1 << (n - 1)), sigma))
            out = apply_twirl_operator(psi, "x_all")
            assert np.allclose(out.data, sigma * psi.data, atol=1e-12)
            # the density matrix is untouched either way
            assert np.allclose(out.density(), psi.density(), atol=1e-12)


def test_twirl_operators_preserve_trace_and_positivity():
    rng = np.random.default_rng(5)
    n = 3
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    state = DenseState.from_matrix(rho)
    for op, k in [("x_all", None), ("zz", 1), ("zz", 2), ("r", 1), ("r", 2)]:
        out = apply_twirl_operator(state, op, k)
        assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out.data).min() > -1e-10


def test_twirl_operator_validation():
    psi = ghz_state(3)
    with pytest.raises(ValueError):
        apply_twirl_operator(psi, "zz")
    with pytest.raises(ValueError):
        apply_twirl_operator(psi, "r", 3)
    with pytest.raises(ValueError):
        apply_twirl_operator(psi, "bogus")


def test_state_validation():
    good = ghz_state(2)
    good.validate()
    with pytest.raises(ValueError):
        DenseState.from_vector(np.array([1.0, 1.0])).validate()
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        DenseState.from_matrix(bad).validate()
    notrace = np.eye(4)
    with pytest.raises(ValueError):
        DenseState.from_matrix(notrace).validate()


def test_partial_trace_and_entropy_of_bell_pair():
    bell = ghz_state(2)
    reduced = partial_trace(bell.density(), 2, (0,))
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_product_basis_probabilities_ghz_parity():
    # all-X measurement of the resource state yields even parity only
    probs = product_basis_probabilities(ghz_state(3), "xxx")
    idx = np.arange(8)
    parity = (idx ^ (idx >> 1) ^ (idx >> 2)) & 1
    assert probs[parity == 1].max() < 1e-12
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # single-Y bases have no parity information: uniform over outcomes
    probs_y = product_basis_probabilities(ghz_state(3), "yxx")
    assert np.allclose(probs_y, 1 / 8, atol=1e-12)


def test_product_basis_probabilities_mixed_matches_pure():
    psi = ghz_state(3)
    mixed = DenseState.from_matrix(psi.density())
    for bases in ("xxx", "xyy", "zzz", "yyx"):
        assert np.allclose(
            product_basis_probabilities(psi, bases),
            product_basis_probabilities(mixed, bases),
            atol=1e-12,
        )


@pytest.mark.parametrize("n", range(2, 8))
def test_cached_gate_maps_equal_the_uncached_formulas_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    dim = 1 << n
    real = rng.normal(size=(dim, dim))
    complex_ = real + 1j * rng.normal(size=(dim, dim))
    for a, b in itertools.permutations(range(n), 2):
        for rho in (real, complex_):
            out = apply_cnot(rho, n, a, b)
            assert out.dtype == rho.dtype and np.array_equal(out, cnot_reference(rho, n, a, b))
            out = replace_with_mixed(rho, n, (a, b))
            assert out.dtype == rho.dtype and np.array_equal(out, mixed_reference(rho, n, (a, b)))


def test_cnot_permutation_is_cached_read_only():
    p = cnot_permutation(4, 0, 2)
    assert cnot_permutation(4, 0, 2) is p
    with pytest.raises(ValueError):
        p[0] = 1
    with pytest.raises(ValueError):
        cnot_permutation(4, 1, 1)
