"""Diagonal-family algebra: twirl projection, error rates, correlators."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from nqkd.dense import (
    TWIRL_FLIP_ALL,
    TWIRL_PHASE_PAIR,
    TWIRL_QUARTER,
    DenseState,
    GhzBasisIndex,
    apply_twirl_operator,
    ghz_state,
    qubit_bits,
)
from nqkd.ghz import (
    ARRAY_BYTE_BUDGET,
    GhzDiagonalState,
    WeightClassState,
    binomial_shares,
    coefficients_from_dense,
    correlated_resource,
    dense_from_ghz_diagonal,
    ghz_diagonal_from_dense,
    pairwise_correlator,
    qber_pairwise,
    qber_pairwise_all,
    qber_x,
    qber_z,
    twirl_dense,
    twirled_coefficients,
    uniform_split,
)
from nqkd.noise import depolarized_state


def random_density(n, rng):
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DenseState.from_matrix(rho / np.trace(rho).real)


def random_diagonal(n, rng, symmetric=False):
    half = 1 << (n - 1)
    lam_plus = rng.random(half)
    lam_minus = rng.random(half)
    if symmetric:
        lam_minus[1:] = lam_plus[1:]
    total = lam_plus.sum() + lam_minus.sum()
    return GhzDiagonalState(n, lam_plus / total, lam_minus / total)


def test_twirl_fixes_resource_state():
    out = ghz_diagonal_from_dense(ghz_state(3))
    assert out.lam_plus[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(out.lam_minus).max() < 1e-12
    assert abs(out.lam_plus[1:]).max() < 1e-12


def test_twirl_fixes_maximally_mixed():
    for n in (2, 4):
        dim = 1 << n
        mixed = DenseState.from_matrix(np.eye(dim) / dim)
        out = ghz_diagonal_from_dense(mixed)
        assert np.allclose(out.lam_plus, 1 / dim, atol=1e-12)
        assert np.allclose(out.lam_minus, 1 / dim, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_twirl_symmetrises_and_is_idempotent(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        state = random_density(n, rng)
        diag = ghz_diagonal_from_dense(state)
        assert np.abs(diag.lam_plus[1:] - diag.lam_minus[1:]).max() <= 1e-12  # lambda_j^+ == lambda_j^- for j > 0
        again = ghz_diagonal_from_dense(dense_from_ghz_diagonal(diag))
        assert np.abs(again.lam_plus - diag.lam_plus).max() < 1e-12
        assert np.abs(again.lam_minus - diag.lam_minus).max() < 1e-12


def test_twirl_leaves_j0_coefficients_untouched():
    rng = np.random.default_rng(11)
    state = random_density(3, rng)
    before_plus, before_minus = coefficients_from_dense(state)
    after = ghz_diagonal_from_dense(state)
    assert after.lam_plus[0] == pytest.approx(before_plus[0], abs=1e-12)
    assert after.lam_minus[0] == pytest.approx(before_minus[0], abs=1e-12)


def sequential_twirl(state: DenseState) -> np.ndarray:
    """The twirl as its definition composes it: the flip average, then each diagonal
    operator's average (rho + U rho U^dag)/2 in turn, on full matrices."""
    rho = state.density().astype(complex)
    rho = 0.5 * (rho + apply_twirl_operator(DenseState.from_matrix(rho), TWIRL_FLIP_ALL).data)
    for k in range(1, state.n_qubits):
        for op in (TWIRL_PHASE_PAIR, TWIRL_QUARTER):
            rho = 0.5 * (rho + apply_twirl_operator(DenseState.from_matrix(rho), op, k).data)
    return rho


@pytest.mark.parametrize("n", range(2, 9))
def test_twirl_equals_the_sequential_averages_bit_for_bit(n):
    rng = np.random.default_rng(700 + n)
    dim = 1 << n
    real = rng.normal(size=(dim, dim))
    states = [DenseState(n, real, False), DenseState.from_matrix(real + 1j * rng.normal(size=(dim, dim))),
              DenseState.from_vector(rng.normal(size=dim) + 1j * rng.normal(size=dim)), random_density(n, rng)]
    for state in states:
        out = twirl_dense(state).data
        assert out.dtype == complex and np.array_equal(out, sequential_twirl(state))


@pytest.mark.parametrize("n", range(2, 9))
def test_twirled_coefficients_equal_the_read_of_the_sequential_twirl_bit_for_bit(n):
    # the states of the test above: real non-Hermitian, complex non-Hermitian, unnormalised pure, physical
    rng = np.random.default_rng(700 + n)
    dim = 1 << n
    real = rng.normal(size=(dim, dim))
    states = [DenseState(n, real, False), DenseState.from_matrix(real + 1j * rng.normal(size=(dim, dim))),
              DenseState.from_vector(rng.normal(size=dim) + 1j * rng.normal(size=dim)), random_density(n, rng)]
    for state in states:
        plus, minus = twirled_coefficients(state.density())
        ref_plus, ref_minus = coefficients_from_dense(DenseState.from_matrix(sequential_twirl(state)))
        assert np.array_equal(plus, ref_plus) and np.array_equal(minus, ref_minus)


def test_cold_twirl_at_ten_holds_the_output_and_little_more():
    n = 10
    state = random_density(n, np.random.default_rng(10))
    tracemalloc.start()
    try:
        twirl_dense(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 16 MiB output and O(2^N) more; the averages on full matrices peaked at 32.3 MiB
    assert peak < 17 << 20


def test_twirled_coefficients_at_ten_hold_no_matrix():
    rho = random_density(10, np.random.default_rng(10)).data
    tracemalloc.start()
    try:
        twirled_coefficients(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 0.03 MiB; reading the coefficients off twirl_dense's output traced 16.1 MiB
    assert peak < 1 << 20


@pytest.mark.parametrize("n", range(2, 9))
def test_pure_state_twirl_read_off_its_vector_equals_the_density_path(n):
    rng = np.random.default_rng(900 + n)
    for _ in range(3):
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = DenseState.from_vector(psi / np.linalg.norm(psi))
        out = ghz_diagonal_from_dense(state)
        plus, minus = twirled_coefficients(state.density())
        np.testing.assert_array_equal(out.lam_plus, np.maximum(plus, 0.0))
        np.testing.assert_array_equal(out.lam_minus, np.maximum(minus, 0.0))


def test_pure_state_twirl_at_eleven_holds_no_matrix():
    state = ghz_state(11)
    tracemalloc.start()
    try:
        ghz_diagonal_from_dense(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # reading the coefficients off the outer product traced 64.3 MiB
    assert peak < 1 << 20


def test_twirl_preserves_trace_and_positivity():
    rng = np.random.default_rng(3)
    state = random_density(4, rng)
    out = twirl_dense(state)
    assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.data).min() > -1e-10


@pytest.mark.parametrize("n", [0, 1])
def test_ghz_diagonal_from_dense_rejects_too_few_parties(n):
    for state in (DenseState.from_matrix(np.eye(1 << n) / (1 << n)), DenseState.from_vector(np.eye(1 << n)[0])):
        with pytest.raises(ValueError, match="need at least 2 parties"):
            ghz_diagonal_from_dense(state)


def test_twirl_rejects_unphysical_input():
    bad = np.eye(8) / 8.0
    bad[0, 3] = 0.7
    with pytest.raises(ValueError):
        ghz_diagonal_from_dense(DenseState.from_matrix(bad))


def test_qber_z_examples():
    pure = ghz_diagonal_from_dense(ghz_state(3))
    assert qber_z(pure) == pytest.approx(0.0, abs=1e-12)
    mixed = ghz_diagonal_from_dense(DenseState.from_matrix(np.eye(8) / 8))
    assert qber_z(mixed) == pytest.approx(0.75, abs=1e-12)


def test_qber_x_examples():
    pure = ghz_diagonal_from_dense(ghz_state(3))
    assert qber_x(pure) == pytest.approx(0.0, abs=1e-12)
    mixed = ghz_diagonal_from_dense(DenseState.from_matrix(np.eye(8) / 8))
    assert qber_x(mixed) == pytest.approx(0.5, abs=1e-12)


def test_qber_pairwise_pure_and_bounds():
    pure = ghz_diagonal_from_dense(ghz_state(4))
    for bob in (1, 2, 3):
        assert qber_pairwise(pure, bob) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        qber_pairwise(pure, 0)
    with pytest.raises(ValueError):
        qber_pairwise(pure, 4)


def dense_measurement_rates(state: GhzDiagonalState):
    """Independent oracle: read the three error rates off the embedding.

    qber_z and qber_pairwise come from the Z-outcome distribution (the
    diagonal); the parity error comes from the all-X expectation, i.e.
    the anti-diagonal.
    """
    n = state.n_parties
    rho = dense_from_ghz_diagonal(state).data
    dim = 1 << n
    z_probs = np.real(np.diagonal(rho))
    q_z = 1.0 - z_probs[0] - z_probs[-1]
    idx = np.arange(dim)
    alice = qubit_bits(idx, 0, n)
    q_ab = []
    for bob in range(1, n):
        differ = qubit_bits(idx, bob, n) != alice
        q_ab.append(z_probs[differ].sum())
    x_expect = np.real(rho[idx, dim - 1 - idx].sum())
    return q_z, 0.5 * (1.0 - x_expect), np.array(q_ab)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rates_match_dense_measurement_statistics(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(4):
        state = random_diagonal(n, rng)
        q_z, q_x, q_ab = dense_measurement_rates(state)
        assert qber_z(state) == pytest.approx(q_z, abs=1e-10)
        assert qber_x(state) == pytest.approx(q_x, abs=1e-10)
        assert np.abs(qber_pairwise_all(state) - q_ab).max() < 1e-10


def test_all_correlators_vanish_except_zz():
    rng = np.random.default_rng(7)
    for n in (3, 4, 5, 6):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        psi = correlated_resource(n, a, b)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for alpha in "xyz":
                    for beta in "xyz":
                        value = pairwise_correlator(psi, alpha, beta, i, j)
                        if alpha == beta == "z":
                            continue
                        assert abs(value) < 1e-12, (n, alpha, beta, i, j)


def test_zz_correlator_is_one_on_resource_state():
    for n in (3, 4):
        psi = ghz_state(n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert pairwise_correlator(psi, "z", "z", i, j) == pytest.approx(1.0, abs=1e-12)


def test_no_other_basis_gives_perfect_pairwise_correlations():
    # random product bases: the minimum pairwise correlator stays well
    # below 1 unless the basis is Z for both parties
    rng = np.random.default_rng(99)
    psi = ghz_state(4)
    idx = np.arange(16)

    def rotated_correlator(theta_i, phi_i, theta_j, phi_j, i, j):
        # measurement direction (theta, phi) on the Bloch sphere
        total = 0.0
        for axis_i, weight_i in (
            ("x", np.sin(theta_i) * np.cos(phi_i)),
            ("y", np.sin(theta_i) * np.sin(phi_i)),
            ("z", np.cos(theta_i)),
        ):
            for axis_j, weight_j in (
                ("x", np.sin(theta_j) * np.cos(phi_j)),
                ("y", np.sin(theta_j) * np.sin(phi_j)),
                ("z", np.cos(theta_j)),
            ):
                total += weight_i * weight_j * pairwise_correlator(psi, axis_i, axis_j, i, j)
        return total

    for _ in range(50):
        theta = rng.uniform(0.1, np.pi - 0.1, size=2)  # bounded away from Z
        phi = rng.uniform(0, 2 * np.pi, size=2)
        value = rotated_correlator(theta[0], phi[0], theta[1], phi[1], 0, 1)
        assert value < 0.999


def test_correlator_input_validation():
    psi = ghz_state(3)
    with pytest.raises(ValueError):
        pairwise_correlator(psi, "x", "x", 1, 1)
    with pytest.raises(ValueError):
        pairwise_correlator(psi, "w", "x", 0, 1)
    with pytest.raises(ValueError):
        pairwise_correlator(DenseState.from_matrix(psi.density()), "x", "x", 0, 1)


def test_diagonal_state_validation():
    with pytest.raises(ValueError):
        GhzDiagonalState(3, np.full(4, 0.25), np.full(4, 0.25))  # sums to 2
    with pytest.raises(ValueError):
        GhzDiagonalState(3, np.array([1.5, -0.5, 0, 0]), np.zeros(4))
    with pytest.raises(ValueError):
        GhzDiagonalState(3, np.full(3, 1 / 6), np.full(3, 1 / 6))  # wrong length
    with pytest.raises(ValueError, match="nan"):
        GhzDiagonalState(3, np.array([np.nan, 0, 0, 0]), np.zeros(4))


def random_weight_class(n, rng):
    plus, minus = rng.random(n), rng.random(n)
    total = plus.sum() + minus.sum()
    return WeightClassState(n, plus / total, minus / total)


def test_weight_class_closed_forms_match_expanded_state():
    rng = np.random.default_rng(31)
    for n in range(2, 13):
        for _ in range(3):
            state = random_weight_class(n, rng)
            full = state.expand()
            assert abs(qber_z(state) - qber_z(full)) < 1e-12
            assert abs(qber_x(state) - qber_x(full)) < 1e-12
            assert np.abs(qber_pairwise_all(state) - qber_pairwise_all(full)).max() < 1e-12
            assert abs(qber_pairwise(state, n - 1) - qber_pairwise(full, n - 1)) < 1e-12
            # class w spreads its weight evenly over its C(N-1, w) branches
            weight = np.bitwise_count(np.arange(1 << (n - 1)))
            for w in range(n):
                branches = full.lam_plus[weight == w]
                assert branches.size == comb(n - 1, w)
                assert np.abs(branches - state.plus_by_weight[w] / comb(n - 1, w)).max() < 1e-15
                assert abs(full.lam_minus[weight == w].sum() - state.minus_by_weight[w]) < 1e-12


def test_weight_class_state_validation():
    state = WeightClassState(3, [0.5, 0.2, 0.1], [0.1, 0.0, 0.1])
    assert not state.plus_by_weight.flags.writeable
    with pytest.raises(ValueError, match="length 3"):
        WeightClassState(3, np.full(4, 0.125), np.full(4, 0.125))
    with pytest.raises(ValueError, match="negative"):
        WeightClassState(3, [1.5, -0.5, 0.0], np.zeros(3))
    with pytest.raises(ValueError, match="sum to 2"):
        WeightClassState(3, np.full(3, 1 / 3), np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="nan"):
        WeightClassState(3, [np.nan, 0.0, 0.0], np.zeros(3))
    with pytest.raises(ValueError, match="2 parties"):
        WeightClassState(1, [1.0], [0.0])
    with pytest.raises(ValueError, match="bob index"):
        qber_pairwise(state, 3)


def test_weight_class_expand_raises_before_allocating():
    n = 30  # two 2^29-entry float arrays take 8 GiB
    assert 16 << (n - 1) > ARRAY_BYTE_BUDGET >= 16 << (n - 2)
    state = WeightClassState(n, np.eye(1, n)[0], np.zeros(n))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            state.expand()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert qber_z(state) == 0.0 and qber_x(state) == 0.0 and qber_pairwise(state, 29) == 0.0


@pytest.mark.parametrize("n", [2, 3, 20, 200, 2000, 20000])
def test_depolarized_state_splits_into_a_uniform_part_and_a_w0_residual(n):
    # white noise is uniform over every branch, so the residual is the w = 0 class alone,
    # also where rounding would leave 1e-17 on many classes and where shares are subnormal
    shares = binomial_shares(n)
    assert shares[0] == 2.0 ** (1 - n) and abs(shares.sum() - 1.0) < 1e-12
    # up to I/2^N, at q = 1 - 2^(1-N) (U = 1); past it lambda_0^+ falls below the
    # other coefficients and the residual moves to w >= 1
    mixed = 1.0 - 2.0 ** (1 - n)
    for q in [q for q in (0.0, 0.01, 0.1, 0.3, 0.5, 0.9) if q <= mixed] + [mixed] * (n <= 20):
        uniform, residual = uniform_split(depolarized_state(n, q))
        expected = q / (1.0 - 2.0 ** (1 - n))  # q 2^(N-1)/(2^(N-1) - 1)
        assert abs(uniform - expected) <= 1e-12 * expected, q
        assert np.count_nonzero(residual[1:]) == 0, q
        assert residual[0] >= 0.0


def test_weight_class_split_reconstructs_the_class_masses():
    rng = np.random.default_rng(32)
    for n in range(2, 40):
        state = random_weight_class(n, rng)
        masses = state.plus_by_weight + state.minus_by_weight
        uniform, residual = uniform_split(state)
        shares = binomial_shares(n)
        assert uniform == pytest.approx((masses / shares).min(), rel=1e-15) and 0.0 < uniform < 1.0
        assert residual.min() >= 0.0 and np.count_nonzero(residual == 0.0) >= 1
        assert np.allclose(uniform * shares + residual, masses, rtol=1e-12, atol=1e-16)
    # an empty class leaves no uniform part, and a pure state is all residual
    uniform, residual = uniform_split(WeightClassState(3, [0.5, 0.2, 0.0], [0.1, 0.2, 0.0]))
    assert uniform == 0.0 and np.allclose(residual, [0.6, 0.4, 0.0])
    assert uniform_split(depolarized_state(5, 0.0))[0] == 0.0
    # a class whose share underflows stays out of the minimum and keeps its mass
    n = 2000
    masses = 0.5 * binomial_shares(n)
    masses[-1] += 0.5
    uniform, residual = uniform_split(WeightClassState(n, masses, np.zeros(n)))
    assert binomial_shares(n)[-1] == 0.0
    assert uniform == pytest.approx(0.5, rel=1e-12) and residual[-1] == 0.5
    assert np.count_nonzero(residual[:-1]) == 0


def test_ghz_diagonal_split_matches_the_weight_class_split():
    # a branch's share is 2^-(N-1): an expanded depolarized state has the weight-class U
    # and a residual on j = 0 alone, though its per-branch masses carry rounding
    for n in range(2, 13):
        for q in (0.0, 0.05, 0.3, 0.9 * (1.0 - 2.0 ** (1 - n))):
            state = depolarized_state(n, q)
            uniform, residual = uniform_split(state.expand())
            expected, weight_residual = uniform_split(state)
            assert abs(uniform - expected) <= 1e-12 * expected, (n, q)
            assert residual.shape == (1 << (n - 1),) and np.count_nonzero(residual[1:]) == 0, (n, q)
            assert residual[0] == pytest.approx(weight_residual[0], rel=1e-12), (n, q)
    # any state: U is the smallest branch mass times 2^(N-1), and U s + R gives the masses back
    rng = np.random.default_rng(33)
    for n in range(2, 10):
        state = random_diagonal(n, rng)
        masses = state.lam_plus + state.lam_minus
        uniform, residual = uniform_split(state)
        assert uniform == masses.min() * 2 ** (n - 1) and 0.0 < uniform < 1.0
        assert residual.min() == 0.0 and np.allclose(uniform * 2.0 ** (1 - n) + residual, masses, rtol=1e-12)


def test_embedding_is_valid_density_matrix():
    rng = np.random.default_rng(8)
    state = random_diagonal(5, rng)
    dense = dense_from_ghz_diagonal(state)
    dense.validate(check_psd=True)
    lam_plus, lam_minus = coefficients_from_dense(dense)
    assert np.abs(lam_plus - state.lam_plus).max() < 1e-12
    assert np.abs(lam_minus - state.lam_minus).max() < 1e-12


def test_basis_index_bit_convention():
    # ~j negates j over the N-1 Bob bits
    idx = GhzBasisIndex(0b10, +1)
    assert idx.negated_j(3) == 0b01
