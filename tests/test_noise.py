"""Gate and channel noise: combinatorics, closed forms, dense oracles."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from nqkd import noise
from nqkd.dense import DenseState, ghz_state
from nqkd.ghz import coefficients_from_dense, ghz_diagonal_from_dense, qber_pairwise_all, qber_x, qber_z, twirl_dense
from nqkd.noise import (
    ChannelNoise,
    GateNoise,
    GatePattern,
    apply_channel_noise,
    channel_qber,
    depolarized_state,
    lambda0_router,
    lambda0_star,
    qab_average,
    simulate_prep_circuit,
)

# ---------------------------------------------------------------------------
# References for the compact gate-failure coefficients of lambda0_star
# ---------------------------------------------------------------------------


def block_count(pattern: str) -> int:
    """Block count b of a success/failure pattern.

    ``pattern`` holds one character per gate ('1' success, '0' failure);
    a trailing '1' is appended and the result is the number of maximal
    runs of ones plus the number of zeros in that extended string.
    """
    if pattern == "":
        raise ValueError("empty pattern")
    if set(pattern) - {"0", "1"}:
        raise ValueError(f"pattern {pattern!r} is not binary")
    s = pattern + "1"
    runs = sum(1 for i, c in enumerate(s) if c == "1" and (i == 0 or s[i - 1] == "0"))
    return runs + s.count("0")


def pattern_prefactor(pattern: str) -> float:
    """Weight of a failure pattern's contribution to lambda_0^{+/-}."""
    if "0" not in pattern:
        return 1.0
    return 2.0 ** (-block_count(pattern))


def enumerated_prefactor_sums(n_parties: int) -> np.ndarray:
    """Summed prefactors per success count 0..N-2, from all 2^(N-1) patterns.

    x holds one bit per gate, the first gate in the highest bit, and the
    appended success becomes the lowest bit of y; the all-success
    pattern is excluded.
    """
    n_gates = n_parties - 1
    x = np.arange(1 << n_gates, dtype=np.uint64)
    y = (x << np.uint64(1)) | np.uint64(1)  # append the extra success
    ones = np.bitwise_count(y)
    runs = np.bitwise_count(y & ~(y << np.uint64(1)))
    blocks = runs + (np.uint64(n_gates + 1) - ones)
    pref = 2.0 ** (-blocks.astype(float))
    weights = np.bitwise_count(x).astype(int)
    keep = x != (1 << n_gates) - 1
    return np.bincount(weights[keep], weights=pref[keep], minlength=n_gates)[:n_gates]


def enumerated_pattern_tables(n_parties: int, alice: str) -> tuple[np.ndarray, np.ndarray]:
    """``noise._pattern_tables`` by enumeration: every pattern in every order.

    Each of the 2^(N-1) (N-1)! circuits runs through ``prep_circuit_output``
    and is twirled on its own; entry [w, j] sums the twirled lambda_j^{+/-}
    of the patterns with w successes, averaged over the orders.
    """
    n_gates = n_parties - 1
    plus = np.zeros((n_gates + 1, 1 << n_gates))
    minus = np.zeros((n_gates + 1, 1 << n_gates))
    orders = list(itertools.permutations(range(1, n_parties)))
    for bits in itertools.product((0, 1), repeat=n_gates):
        pattern = GatePattern(bits)
        for order in orders:
            out = twirl_dense(noise.prep_circuit_output(n_parties, pattern, order, alice))
            lam_plus, lam_minus = coefficients_from_dense(out)
            plus[pattern.weight] += lam_plus / len(orders)
            minus[pattern.weight] += lam_minus / len(orders)
    return plus, minus


def test_block_count_examples():
    assert block_count("11") == 1  # extended string 111
    assert block_count("00") == 3  # 001: one run of ones, two zeros
    assert block_count("01") == 2  # 011: one run, one zero
    assert block_count("10") == 3  # 101: two runs, one zero
    with pytest.raises(ValueError):
        block_count("")
    with pytest.raises(ValueError):
        block_count("102")


def test_pattern_prefactor():
    assert pattern_prefactor("11") == 1.0
    assert pattern_prefactor("00") == pytest.approx(1 / 8)
    assert pattern_prefactor("01") == pytest.approx(1 / 4)
    p = GatePattern((0, 1))
    assert p.weight == 1
    as_string = "".join(map(str, p.bits))
    assert block_count(as_string) == 2
    assert pattern_prefactor(as_string) == pytest.approx(1 / 4)
    assert p.probability(0.1) == pytest.approx(0.1 * 0.9)


def test_enumerated_prefactor_sums_match_scalar_patterns():
    # the vectorised enumeration reads bit strings the same way as the
    # scalar block count: one character per gate, summed per success count
    for n in range(2, 9):
        expected = np.zeros(n - 1)
        for bits in itertools.product("01", repeat=n - 1):
            pattern = "".join(bits)
            if "0" in pattern:
                expected[pattern.count("1")] += pattern_prefactor(pattern)
        assert np.abs(enumerated_prefactor_sums(n) - expected).max() < 1e-15


def test_depolarized_state_examples():
    pure = depolarized_state(5, 0.0).expand()
    assert pure.lam_plus[0] == pytest.approx(1.0)
    assert abs(pure.lam_minus).max() == 0.0

    state = depolarized_state(3, 0.2).expand()
    assert state.lam_plus[0] == pytest.approx(1 - 0.2 * 7 / 6, abs=1e-15)
    assert np.allclose(state.lam_plus[1:], 0.2 / 6)
    assert np.allclose(state.lam_minus, 0.2 / 6)
    assert qber_z(state) == pytest.approx(0.2, abs=1e-15)

    assert qber_x(depolarized_state(4, 0.1)) == pytest.approx(0.4 / 7, abs=1e-15)

    with pytest.raises(ValueError):
        depolarized_state(3, 0.9)
    with pytest.raises(ValueError):
        depolarized_state(3, -0.1)


@pytest.mark.parametrize("n", [2, 3, 7, 60, 1100, 2000])
def test_depolarized_state_closed_forms_at_any_n(n):
    # Q_X = q 2^(N-2)/(2^(N-1)-1) and Q_AB = q 2^(N-1)/(2^N-2) are both q/2/(1-2^(1-N))
    q = 0.3
    state = depolarized_state(n, q)
    assert state.plus_by_weight.shape == (n,)
    assert qber_z(state) == pytest.approx(q, abs=1e-15)
    assert qber_x(state) == pytest.approx(0.5 * q / (1 - 2.0 ** (1 - n)), rel=1e-12)
    assert np.abs(qber_pairwise_all(state) - 0.5 * q / (1 - 2.0 ** (1 - n))).max() < 1e-12


def test_lambda0_star_limits():
    for n in (2, 3, 5, 9):
        assert lambda0_star(n, 0.0) == (1.0, 0.0)
        lam_plus, lam_minus = lambda0_star(n, 1.0)
        # every gate fails: only the all-zero pattern survives, weight 2^-N
        assert lam_plus == pytest.approx(2.0 ** (-n), abs=1e-15)
        assert lam_minus == pytest.approx(2.0 ** (-n), abs=1e-15)


def test_lambda0_forms_agree_on_grid():
    # lambda0_star evaluates only the compact per-weight form; the sum
    # over every enumerated failure pattern must give the same value
    # over the gate-table range N=2..18
    for n in range(2, 19):
        enumerated = enumerated_prefactor_sums(n)
        w = np.arange(n - 1)
        for f in np.linspace(0.0, 1.0, 101):
            lam_plus, lam_minus = lambda0_star(n, float(f))
            reference = float(enumerated @ (f ** (n - 1 - w) * (1 - f) ** w))
            assert abs(lam_minus - reference) < 1e-12
            assert lam_plus == pytest.approx(lam_minus + (1 - f) ** (n - 1), abs=1e-12)
            assert 0.0 <= lam_minus <= lam_plus <= 1.0 + 1e-12


def test_router_equals_star_qber_and_scaled_coherence():
    for n in (2, 3, 5, 8):
        for f in (0.0, 0.05, 0.3, 0.9):
            sp, sm = lambda0_star(n, f)
            rp, rm = lambda0_router(n, f)
            assert rp + rm == pytest.approx(sp + sm, abs=1e-12)  # same qber_z
            assert rp - rm == pytest.approx((1 - f) * (sp - sm), abs=1e-12)
    assert lambda0_router(4, 0.0) == (1.0, 0.0)


def test_qab_average_closed_form():
    assert qab_average(5, 0.0) == 0.0
    for f in (0.01, 0.3, 1.0):
        assert qab_average(2, f) == pytest.approx(f / 2, abs=1e-12)
    # direct mean over per-position error rates
    assert qab_average(4, 0.1) == pytest.approx(
        np.mean([(1 - 0.9**k) / 2 for k in (1, 2, 3)]), abs=1e-12
    )


def test_channel_qber_examples():
    assert channel_qber(4, 0.0) == 0.0
    for n in (2, 3, 6):
        assert channel_qber(n, 1.0) == pytest.approx((2.0**n - 2) / 2.0**n, abs=1e-15)
    assert channel_qber(3, 0.05) == pytest.approx(6 / 8 * (1 - 0.95**3), abs=1e-15)


def test_channel_qber_monotone():
    grid = np.linspace(0, 1, 21)
    for n in (2, 3, 5, 8):
        values = [channel_qber(n, f) for f in grid]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    for f in (0.1, 0.4, 0.9):
        values = [channel_qber(n, f) for n in range(2, 12)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_apply_channel_noise_limits_and_formula():
    psi = ghz_state(4)
    assert np.allclose(apply_channel_noise(psi, 0.0).data, psi.density(), atol=1e-15)
    full = apply_channel_noise(psi, 1.0)
    assert np.allclose(full.data, np.eye(16) / 16, atol=1e-15)
    for n in (2, 3, 5):
        for f in (0.05, 0.35):
            diag = ghz_diagonal_from_dense(apply_channel_noise(ghz_state(n), f))
            assert qber_z(diag) == pytest.approx(channel_qber(n, f), abs=1e-10)


def test_prep_circuit_noiseless_is_resource_state():
    out = simulate_prep_circuit(4, 0.0)
    assert out.lam_plus[0] == pytest.approx(1.0, abs=1e-12)
    assert out.lam_minus[0] == pytest.approx(0.0, abs=1e-12)


def test_prep_circuit_matches_lambda_forms():
    for f in (0.2, 0.45):
        out = simulate_prep_circuit(3, f)
        lam_plus, lam_minus = lambda0_star(3, f)
        assert out.lam_plus[0] == pytest.approx(lam_plus, abs=1e-12)
        assert out.lam_minus[0] == pytest.approx(lam_minus, abs=1e-12)


def test_prep_circuit_order_average_equalises_bobs():
    out = simulate_prep_circuit(4, 0.1)
    qabs = qber_pairwise_all(out)
    assert np.abs(qabs - qabs[0]).max() < 1e-12
    assert qabs[0] == pytest.approx(qab_average(4, 0.1), abs=1e-12)


def test_prep_circuit_router_variant():
    for f in (0.1, 0.3):
        out = simulate_prep_circuit(3, f, topology="router")
        lam_plus, lam_minus = lambda0_router(3, f)
        assert out.lam_plus[0] == pytest.approx(lam_plus, abs=1e-12)
        assert out.lam_minus[0] == pytest.approx(lam_minus, abs=1e-12)


def test_prep_circuit_caps_dense_oracle_at_seven(monkeypatch):
    def build_tables(*args):
        raise AssertionError("the N=8 oracle started building its tables")

    monkeypatch.setattr(noise, "_pattern_tables", build_tables)
    for topology in ("star", "router"):
        with pytest.raises(ValueError, match="N=7"):
            simulate_prep_circuit(8, 0.1, topology=topology)


@pytest.mark.parametrize("n", [1, 0, -1])
def test_prep_circuit_rejects_too_few_parties_before_building(n):
    noise._pattern_tables.cache_clear()
    for topology in ("star", "router"):
        with pytest.raises(ValueError, match="need at least 2 parties"):
            simulate_prep_circuit(n, 0.1, topology=topology)
    assert noise._pattern_tables.cache_info().currsize == 0


def test_prep_circuit_rejects_unknown_topology_before_building():
    noise._pattern_tables.cache_clear()
    with pytest.raises(ValueError, match="unknown topology 'ring'"):
        simulate_prep_circuit(5, 0.1, topology="ring")
    assert noise._pattern_tables.cache_info().currsize == 0


def test_pattern_tables_equal_the_enumeration_of_every_pattern_and_order():
    # the recursion over gated sets sums the same circuits as the enumeration;
    # both divide by the (N-1)! orders and file each circuit by its successes
    for n in range(2, 6):
        for alice in ("plus", "mixed"):
            plus, minus = noise._pattern_tables(n, alice)
            ref_plus, ref_minus = enumerated_pattern_tables(n, alice)
            assert np.abs(plus - ref_plus).max() < 1e-14
            assert np.abs(minus - ref_minus).max() < 1e-14


def test_prep_circuit_matches_closed_forms_at_seven():
    # a return to enumerating every pattern and order (292 s at N=7) fails here
    noise._pattern_tables.cache_clear()
    start = time.perf_counter()
    simulate_prep_circuit(7, 0.0, topology="router")  # builds both tables
    assert time.perf_counter() - start < 10.0
    for f in (0.0, 0.05, 0.1, 0.2):
        star = simulate_prep_circuit(7, f, topology="star")
        router = simulate_prep_circuit(7, f, topology="router")
        for out, (lam_plus, lam_minus) in ((star, lambda0_star(7, f)), (router, lambda0_router(7, f))):
            assert abs(out.lam_plus[0] - lam_plus) < 1e-12
            assert abs(out.lam_minus[0] - lam_minus) < 1e-12
            assert np.abs(qber_pairwise_all(out) - qab_average(7, f)).max() < 1e-12


def test_pattern_tables_at_seven_hold_real_matrices():
    noise._pattern_tables.cache_clear()
    tracemalloc.start()
    try:
        noise._pattern_tables(7, "plus")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        noise._pattern_tables.cache_clear()
    assert peak < 24 << 20  # real sums take 19.8 MiB, complex ones twice that


def test_prep_circuit_fixed_pattern_output():
    # both gates fail for N=3: the state is maximally mixed
    out = noise.prep_circuit_output(3, GatePattern((0, 0)))
    assert isinstance(out, DenseState)
    assert np.allclose(out.data, np.eye(8) / 8, atol=1e-12)
    # all succeed: the exact resource state
    out = noise.prep_circuit_output(3, GatePattern((1, 1)))
    assert np.allclose(out.data, ghz_state(3).density(), atol=1e-12)


def test_prep_circuit_fixed_order_bob_error_rates():
    # fixed order: the Bob gated later carries more error
    from nqkd.ghz import GhzDiagonalState

    f = 0.3
    lam = {}
    for order in itertools.permutations((1, 2)):
        plus = np.zeros(4)
        minus = np.zeros(4)
        for bits in itertools.product((0, 1), repeat=2):
            pattern = GatePattern(bits)
            out = noise.prep_circuit_output(3, pattern, order)
            diag = ghz_diagonal_from_dense(out)
            weight = pattern.probability(f)
            plus += weight * diag.lam_plus
            minus += weight * diag.lam_minus
        lam[order] = qber_pairwise_all(GhzDiagonalState(3, plus, minus))
    first, second = lam[(1, 2)], lam[(2, 1)]
    # a later gate failure re-randomises Alice's qubit, so the Bob gated
    # first is the dirtiest: position k has error (1 - (1-f)^(N-k))/2
    assert first[0] == pytest.approx((1 - 0.7**2) / 2, abs=1e-12)
    assert first[1] == pytest.approx((1 - 0.7) / 2, abs=1e-12)
    assert second[0] == pytest.approx((1 - 0.7) / 2, abs=1e-12)
    assert second[1] == pytest.approx((1 - 0.7**2) / 2, abs=1e-12)
    # and the average over both orders is the closed-form mean
    assert np.mean([first, second]) == pytest.approx(qab_average(3, 0.3), abs=1e-12)


def test_gate_qber_curves_monotone_and_ordered():
    # error rate grows with the failure probability and, at fixed
    # failure probability, with the number of parties
    grid = np.linspace(0.0, 1.0, 41)

    def q_of(n, f):
        lam_plus, lam_minus = lambda0_star(n, f)
        return 1.0 - lam_plus - lam_minus

    for n in range(2, 9):
        values = [q_of(n, float(f)) for f in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    for f in (0.05, 0.2, 0.5):
        values = [q_of(n, f) for n in range(2, 9)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_noise_config_json():
    with pytest.raises(ValueError):
        GateNoise(1.5)
    with pytest.raises(ValueError):
        ChannelNoise(-0.1)
