"""Round sampling, estimators, post-processing and full protocol runs."""

import hashlib
import json
import time
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from nqkd import protocol
from nqkd.cli import main
from nqkd.dense import ghz_state, product_basis_probabilities
from nqkd.ghz import GhzDiagonalState, WeightClassState, qber_pairwise_all, qber_x, qber_z, uniform_split
from nqkd.keyrate import rate_depolarized, threshold_qber
from nqkd.noise import depolarized_state
from nqkd.protocol import (
    ProtocolConfig,
    ProtocolRun,
    RoundRecord,
    f_sign,
    preshared_key_accounting,
    protocol_config_from_json,
    run_protocol,
    sample_xy_bits,
    sample_z_bits,
    toeplitz_hash,
    write_transcript,
)


def band(p, n, sigmas):
    """Half-width of a ``sigmas``-sigma band on a frequency of probability ``p`` over ``n`` trials."""
    return sigmas * np.sqrt(max(p * (1 - p), 1e-12) / n)


def three_sigma(p, n):
    return band(p, n, 3.0)


def family_sigmas(bands, alpha=0.01):
    """Band width in sigmas for ``bands`` checks whose family-wise false-alarm rate is at most ``alpha`` (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - alpha / (2 * bands))


def draw_z_bits(state, count, rng):
    """``sample_z_bits`` with Alice's packed bits drawn from ``rng`` first, as a run draws them."""
    return sample_z_bits(state, count, rng, protocol._packed_bits(rng, count))


def estimate_qx(bases, bits):
    """(Q_X, n_plus, n_minus, kept rounds) from parity rounds' bases (0 = X, 1 = Y) and outcome bits.

    Both arrays have shape (rounds, N).  Alice's flip for Y counts that are
    not multiples of four enters as the sign f(kappa); rounds with odd
    kappa contribute nothing.  The reference for the counts a run keeps.
    """
    bases, bits = np.asarray(bases), np.asarray(bits)
    signs = f_sign(bases.sum(axis=1))
    kept = signs != 0
    n_kept = int(np.count_nonzero(kept))
    if not n_kept:
        raise ValueError("no parity rounds with an even Y count")
    odd = np.bitwise_xor.reduce(bits, axis=1).astype(bool)  # product -1
    n_minus = int(np.count_nonzero(kept & ((signs < 0) != odd)))
    n_plus = n_kept - n_minus
    return 0.5 * (1.0 - (n_plus - n_minus) / n_kept), n_plus, n_minus, n_kept


def estimate_qz(bits):
    """(Q_Z, per-Bob Q_AB) from the outcome bits (rounds, N) of announced Z rounds; the reference
    for the disagreement counts a run keeps."""
    bits = np.asarray(bits)
    count = bits.shape[0]
    if count == 0:
        raise ValueError("no announced Z rounds")
    differs = bits[:, 1:] != bits[:, :1]
    return np.count_nonzero(differs.any(axis=1)) / count, np.count_nonzero(differs, axis=0) / count


def test_f_sign_values():
    assert [f_sign(k) for k in range(8)] == [1, 0, -1, 0, 1, 0, -1, 0]
    assert all(type(f_sign(k)) is int for k in range(8))
    assert f_sign(np.arange(8)).tolist() == [1, 0, -1, 0, 1, 0, -1, 0]
    assert f_sign(np.arange(8, dtype=np.uint64)).tolist() == [1, 0, -1, 0, 1, 0, -1, 0]
    with pytest.raises(ValueError):
        f_sign(-1)
    with pytest.raises(ValueError):
        f_sign(np.array([2, -1]))


def test_z_sampling_pure_state():
    rng = np.random.default_rng(0)
    state = depolarized_state(3, 0.0)
    bits = draw_z_bits(state, 4000, rng)
    # perfectly correlated: every round is all-0 or all-1
    assert np.all((bits.sum(axis=1) == 0) | (bits.sum(axis=1) == 3))
    share = (bits[:, 0] == 1).mean()
    assert abs(share - 0.5) < three_sigma(0.5, 4000)


def test_z_sampling_depolarized_rate():
    rng = np.random.default_rng(1)
    state = depolarized_state(3, 0.3)
    bits = draw_z_bits(state, 30000, rng)
    any_differ = (bits[:, 1:] != bits[:, :1]).any(axis=1).mean()
    assert abs(any_differ - 0.3) < three_sigma(0.3, 30000)


def test_z_sampling_from_dense_state_matches():
    # every Z outcome of an asymmetric state against the Born rule of its density matrix
    from nqkd.ghz import dense_from_ghz_diagonal

    n, count = 3, 30000
    state = _random_asymmetric_state(n, np.random.default_rng(20))
    bits = draw_z_bits(state, count, np.random.default_rng(2))
    outcomes = bits @ (1 << np.arange(n - 1, -1, -1))
    freqs = np.bincount(outcomes, minlength=1 << n) / count
    for freq, p in zip(freqs, dense_from_ghz_diagonal(state).z_probabilities()):
        assert abs(freq - p) < three_sigma(p, count)


def _random_weight_class_state(n, rng):
    plus, minus = rng.random(n), rng.random(n)
    total = plus.sum() + minus.sum()
    return WeightClassState(n, plus / total, minus / total)


def test_z_sampling_of_weight_class_state_matches_born_rule():
    # the weight draw and the selection sampler against every Z outcome of the expanded state
    from nqkd.ghz import dense_from_ghz_diagonal

    n, count = 4, 40000
    state = _random_weight_class_state(n, np.random.default_rng(23))
    bits = draw_z_bits(state, count, np.random.default_rng(24))
    assert bits.shape == (count, n)
    outcomes = bits @ (1 << np.arange(n - 1, -1, -1))
    freqs = np.bincount(outcomes, minlength=1 << n) / count
    for freq, p in zip(freqs, dense_from_ghz_diagonal(state.expand()).z_probabilities()):
        assert abs(freq - p) < three_sigma(p, count)


def _sampler_cases(ns, seed):
    """(state, name) pairs for each N in ``ns``: random states of both types, the pure state, and P_0 = 0."""
    for n in ns:
        yield _random_asymmetric_state(n, np.random.default_rng(seed + n)), f"asymmetric N={n}"
        yield _random_weight_class_state(n, np.random.default_rng(seed + 10 + n)), f"weight-class N={n}"
        yield depolarized_state(n, 0.0), f"pure N={n}"
        for weight_class in (True, False):
            yield _every_round_flipped(n, weight_class), f"P_0 = 0, weight-class {weight_class}, N={n}"


def test_z_sampling_follows_the_born_rule_of_both_state_types():
    # every Z outcome against the dense Born rule; the bands share one 1% family-wise false-alarm rate
    from nqkd.ghz import dense_from_ghz_diagonal

    count = 20000
    cases = list(_sampler_cases(range(2, 7), 300))
    sigmas = family_sigmas(sum(1 << state.n_parties for state, _ in cases))
    for seed, (state, name) in enumerate(cases):
        n = state.n_parties
        bits = draw_z_bits(state, count, np.random.default_rng(400 + seed))
        assert bits.shape == (count, n) and bits.max() <= 1
        freqs = np.bincount(bits @ (1 << np.arange(n - 1, -1, -1)), minlength=1 << n) / count
        expanded = state.expand() if isinstance(state, WeightClassState) else state
        born = dense_from_ghz_diagonal(expanded).z_probabilities()
        for outcome, (freq, p) in enumerate(zip(freqs, born)):
            assert abs(freq - p) < band(p, count, sigmas), (name, outcome)


def _split_cases(n):
    """(state, name) pairs at N, of both state types, whose uniform part U is 0, strictly between 0 and 1, or 1."""
    rng = np.random.default_rng(500 + n)
    empty_class = _random_weight_class_state(n, rng)
    masses = [c.copy() for c in (empty_class.plus_by_weight, empty_class.minus_by_weight)]
    for c in masses:
        c[n // 2] = 0.0
    total = masses[0].sum() + masses[1].sum()
    yield depolarized_state(n, 0.0), "pure"
    yield WeightClassState(n, masses[0] / total, masses[1] / total), "empty class, U = 0"
    yield _every_round_flipped(n, True), "P_0 = 0, U = 0"
    yield _random_weight_class_state(n, rng), "0 < U < 1 with a residual tail"
    yield depolarized_state(n, 0.3), "depolarized, 0 < U < 1"
    yield depolarized_state(n, 1.0 - 2.0 ** (1 - n)), "I/2^N, U = 1"
    empty_branch = _random_asymmetric_state(n, rng)
    lam = [c.copy() for c in (empty_branch.lam_plus, empty_branch.lam_minus)]
    for c in lam:
        c[-1] = 0.0
    total = lam[0].sum() + lam[1].sum()
    yield GhzDiagonalState(n, lam[0] / total, lam[1] / total), "empty branch, U = 0"
    yield _random_asymmetric_state(n, rng), "asymmetric, 0 < U < 1 with a residual tail"
    yield depolarized_state(n, 0.3).expand(), "expanded depolarized, 0 < U < 1"
    mixed = np.full(1 << (n - 1), 2.0 ** -n)
    yield GhzDiagonalState(n, mixed, mixed), "I/2^N per branch, U = 1"


def test_z_sampling_of_the_uniform_split_follows_the_born_rule():
    # uniform-part rows draw packed fair bits and residual rows a Bob weight or a
    # branch; every Z outcome against the dense Born rule for N=2..8, all bands sharing
    # one 1% family-wise false-alarm rate.  100,000 rows per state put a
    # uniform part drawn at 1.1 U about 6.6 sigma off the all-agree outcome
    # of the depolarized states, past the 4.8-sigma band
    from nqkd.ghz import dense_from_ghz_diagonal

    count = 100000
    cases = [case for n in range(2, 9) for case in _split_cases(n)]
    for kind in (WeightClassState, GhzDiagonalState):
        uniform = [uniform_split(state)[0] for state, _ in cases if isinstance(state, kind)]
        assert min(uniform) == 0.0 and max(uniform) == pytest.approx(1.0) and any(0.0 < u < 1.0 for u in uniform)
    sigmas = family_sigmas(sum(1 << state.n_parties for state, _ in cases))
    for seed, (state, name) in enumerate(cases):
        n = state.n_parties
        bits = draw_z_bits(state, count, np.random.default_rng(600 + seed))
        assert bits.shape == (count, n) and bits.max() <= 1
        freqs = np.bincount(bits @ (1 << np.arange(n - 1, -1, -1)), minlength=1 << n) / count
        expanded = state.expand() if isinstance(state, WeightClassState) else state
        born = dense_from_ghz_diagonal(expanded).z_probabilities()
        for outcome, (freq, p) in enumerate(zip(freqs, born)):
            assert abs(freq - p) < band(p, count, sigmas), (name, n, outcome)


def test_z_sampling_extremes_are_exact():
    # a pure state flips no Bob; with P_0 = 0 every round flips at least one
    for n in (2, 3, 6):
        bits = draw_z_bits(depolarized_state(n, 0.0), 5000, np.random.default_rng(n))
        assert np.all(bits == bits[:, :1])
        for weight_class in (True, False):
            bits = draw_z_bits(_every_round_flipped(n, weight_class), 5000, np.random.default_rng(n))
            assert np.all((bits != bits[:, :1]).any(axis=1))


class _TopUniforms:
    """A generator whose uniforms are all the largest double below 1, the top of ``random``'s range."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def _ghz_diagonal_n4():
    spec = GHZ_DIAGONAL_N4
    return GhzDiagonalState(4, spec["lambda_plus"], spec["lambda_minus"])


# every path of the row-selected Z sampler: uniform part only (depolarized),
# no draw (pure), residual tails (GHZ_DIAGONAL_N4, every round flipped), and
# drawn rows so sparse that most meet no announced row (q = 0.002)
Z_ORACLE_STATES = {
    "depolarized_n2": lambda: depolarized_state(2, 0.1),
    "depolarized_n3": lambda: depolarized_state(3, 0.1),
    "depolarized_n20": lambda: depolarized_state(20, 0.1),
    "depolarized_n64": lambda: depolarized_state(64, 0.1),
    "ghz_diagonal_n4": _ghz_diagonal_n4,
    "pure_n4": lambda: depolarized_state(4, 0.0),
    "flipped_weight_class_n5": lambda: _every_round_flipped(5, True),
    "flipped_ghz_diagonal_n5": lambda: _every_round_flipped(5, False),
    "sparse_n3": lambda: depolarized_state(3, 0.002),
}


@pytest.mark.parametrize("small_batches", [False, True], ids=["batches", "small_batches"])
@pytest.mark.parametrize("name", list(Z_ORACLE_STATES))
def test_z_sampling_at_rows_is_the_full_matrix_at_those_rows(monkeypatch, name, small_batches):
    # the rows a run asks for change what _z_draws yields, never what it draws;
    # with small batches the rows fall on both sides of many batch, block and read edges
    if small_batches:
        monkeypatch.setattr(protocol, "DRAW_BATCH", 64)
        monkeypatch.setattr(protocol, "BATCH_BYTES", 256)
    state = Z_ORACLE_STATES[name]()
    n, count = state.n_parties, 3000
    rng = np.random.default_rng(70)
    full = draw_z_bits(state, count, rng)
    after = rng.bytes(16)
    pick = np.random.default_rng(71)
    row_sets = [np.empty(0, dtype=np.int64), np.array([0]), np.array([count // 2]), np.array([count - 1]),
                np.arange(count), np.arange(200, 1800), np.arange(1, count, 3)]
    row_sets += [np.sort(pick.choice(count, size, replace=False)) for size in (2, 60, 1500, count - 1)]
    for rows in row_sets:
        rng = np.random.default_rng(70)
        alice = protocol._packed_bits(rng, count)
        bits = np.repeat(np.unpackbits(alice, count=count)[rows][:, None], n, axis=1)  # undrawn rows copy Alice
        yielded = []
        for drawn, bob_bits in protocol._z_draws(state, count, rng, alice, protocol._row_bitmap(rows, count)):
            assert bob_bits.shape == (n - 1, drawn.size) and bob_bits.dtype == np.uint8
            bits[rows.searchsorted(drawn), 1:] = bob_bits.T
            yielded.append(drawn)
        assert rng.bytes(16) == after, rows.size
        yielded = np.concatenate([np.empty(0, dtype=np.int64), *yielded])
        assert np.isin(yielded, rows).all() and np.unique(yielded).size == yielded.size
        assert np.array_equal(bits, full[rows]), rows.size


def test_row_bitmap_matches_isin(monkeypatch):
    # rows at byte edges, in counts that are and are not multiples of 8; slices of
    # 3 rows put one byte's rows in two slices
    monkeypatch.setattr(protocol, "DRAW_BATCH", 3)
    pick = np.random.default_rng(72)
    row_sets = []
    for count in (1, 7, 8, 9, 64, 1001):
        edges = np.array([0, 7, 8, 15, 16, count - 1])
        row_sets += [(count, np.empty(0, dtype=np.int64)), (count, np.arange(count)),
                     (count, np.unique(edges[edges < count]))]
        row_sets += [(count, np.sort(pick.choice(count, size, replace=False)))
                     for size in sorted({1, count // 2, count - 1} - {0})]
    for count, rows in row_sets:
        bitmap = protocol._row_bitmap(rows, count)
        assert bitmap.dtype == np.uint8 and bitmap.size == -(-count // 8)
        assert np.array_equal(np.unpackbits(bitmap).view(bool), np.isin(np.arange(bitmap.size * 8), rows))
        probe = np.sort(pick.choice(count, min(count, 50), replace=False))
        assert np.array_equal(protocol._bits_at(bitmap, probe).view(bool), np.isin(probe, rows))


def test_z_sampling_draws_no_branch_past_the_last_of_positive_mass():
    # branch 3 is empty, and the renormalised masses of branches 1 and 2 sum to
    # 1 - 2^-52, so a top uniform lies past every bound; it must draw branch 2
    state = GhzDiagonalState(3, [0.4, 0.07, 0.08, 0.0], [0.45, 0.0, 0.0, 0.0])
    bits = draw_z_bits(state, 2000, _TopUniforms(3))
    assert np.all(bits[:, 2] == bits[:, 0]) and np.any(bits[:, 1] != bits[:, 0])


def test_packed_fair_bits_are_unbiased_at_every_bit_position():
    from nqkd.protocol import _uniform_bits

    bits = _uniform_bits(np.random.default_rng(50), 8 * 20000)
    assert bits.dtype == np.uint8 and set(np.unique(bits)) == {0, 1}
    assert abs(bits.mean() - 0.5) < three_sigma(0.5, bits.size)
    sigmas = family_sigmas(8)
    for position, mean in enumerate(bits.reshape(-1, 8).mean(axis=0)):  # the bit's place in its byte
        assert abs(mean - 0.5) < band(0.5, 20000, sigmas), position
    # a 2-D draw is the same stream, row by row
    flat = _uniform_bits(np.random.default_rng(51), 35)
    assert np.array_equal(_uniform_bits(np.random.default_rng(51), (5, 7)), flat.reshape(5, 7))


@pytest.mark.parametrize("length, p", [(1000, 0.3), (300000, 0.5), (10**6, 1e-4), (5000, 0.999)])
def test_bernoulli_positions_count_is_binomial(length, p):
    from nqkd.protocol import DRAW_BATCH, _bernoulli_positions

    batches = list(_bernoulli_positions(length, p, np.random.default_rng(length)))
    positions = np.concatenate(batches)
    assert all(batch.size <= DRAW_BATCH for batch in batches)
    assert np.all(np.diff(positions) > 0) and positions[0] >= 0 and positions[-1] < length
    assert abs(positions.size - length * p) < 3.0 * np.sqrt(length * p * (1 - p))


def test_bernoulli_positions_mark_every_position_alike():
    # each position's inclusion frequency over many draws is p, the first and last too
    from nqkd.protocol import _bernoulli_positions

    length, p, draws = 200, 0.3, 4000
    rng = np.random.default_rng(52)
    hits = np.zeros(length)
    for _ in range(draws):
        for batch in _bernoulli_positions(length, p, rng):
            hits[batch] += 1
    assert np.abs(hits / draws - p).max() < band(p, draws, family_sigmas(length))
    assert list(_bernoulli_positions(10, 0.0, rng)) == []
    assert np.concatenate(list(_bernoulli_positions(100, 1.0, rng))).tolist() == list(range(100))


def test_uniform_subset_has_its_size_and_marks_every_position_alike():
    from nqkd.protocol import _uniform_subset

    population, size, draws = 60, 25, 4000
    rng = np.random.default_rng(53)
    hits = np.zeros(population)
    for _ in range(draws):
        subset = _uniform_subset(population, size, rng)
        assert subset.size == size and np.all(np.diff(subset) > 0)
        hits[subset] += 1
    p = size / population
    assert np.abs(hits / draws - p).max() < band(p, draws, family_sigmas(population))
    assert _uniform_subset(10, 0, rng).size == 0
    assert _uniform_subset(10, 10, rng).tolist() == list(range(10))


def test_estimators_and_sampler_read_c_order_and_party_major_alike():
    rng = np.random.default_rng(54)
    n, count = 5, 3000
    bases = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
    bits = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
    party_major_bases, party_major_bits = np.ascontiguousarray(bases.T).T, np.ascontiguousarray(bits.T).T
    assert party_major_bases.flags.f_contiguous and not party_major_bases.flags.c_contiguous
    assert estimate_qx(bases, bits) == estimate_qx(party_major_bases, party_major_bits)
    q_z, q_ab = estimate_qz(bits)
    q_z_pm, q_ab_pm = estimate_qz(party_major_bits)
    assert q_z == q_z_pm and np.array_equal(q_ab, q_ab_pm)
    state = depolarized_state(n, 0.2)
    assert np.array_equal(sample_xy_bits(state, bases, np.random.default_rng(55)),
                          sample_xy_bits(state, party_major_bases, np.random.default_rng(55)))


def test_xy_sampling_pure_ghz_all_x():
    rng = np.random.default_rng(3)
    state = depolarized_state(3, 0.0)
    bases = np.zeros((2000, 3), dtype=np.uint8)  # all parties X
    bits = sample_xy_bits(state, bases, rng)
    products = 1 - 2 * (bits.sum(axis=1) % 2)
    assert np.all(products == 1)


def _parity_signs(n):
    idx = np.arange(1 << n)
    parity = np.zeros(1 << n, dtype=np.int64)
    for q in range(n):
        parity ^= (idx >> q) & 1
    return 1 - 2 * parity


def _brute_force_walsh(state, y):
    # sum_j Delta_j (-1)^{|j AND y|}, one term per j
    overlap = np.bitwise_count(np.arange(state.lam_plus.size) & y).astype(np.int64)
    return float(((state.lam_plus - state.lam_minus) * (1 - 2 * (overlap % 2))).sum())


def _random_asymmetric_state(n, rng):
    half = 1 << (n - 1)
    lam_plus, lam_minus = rng.random(half), rng.random(half)
    total = lam_plus.sum() + lam_minus.sum()
    return GhzDiagonalState(n, lam_plus / total, lam_minus / total)


def test_parity_shortcut_matches_dense_distribution():
    # the dense Born distribution of any X/Y product basis on a
    # GHZ-diagonal state is uniform within each parity class, and the
    # product expectation is f(kappa) W[y] with y the Bobs' Y mask; the
    # symmetrised state has W[y] = Delta_0 for every y
    from nqkd.ghz import dense_from_ghz_diagonal

    states = [depolarized_state(3, 0.2).expand()]
    states += [_random_asymmetric_state(n, np.random.default_rng(100 + n)) for n in range(2, 9)]
    for state in states:
        n = state.n_parties
        dense = dense_from_ghz_diagonal(state)
        parity = _parity_signs(n)
        half = 1 << (n - 1)
        for combo in range(1 << n):
            bases = [(combo >> (n - 1 - q)) & 1 for q in range(n)]
            letters = "".join("y" if b else "x" for b in bases)
            y = combo & (half - 1)
            expectation = _brute_force_walsh(state, y)
            probs = product_basis_probabilities(dense, letters)
            expected = (1 + f_sign(sum(bases)) * expectation * parity) / (1 << n)
            assert np.abs(probs - expected).max() < 1e-12, letters
    symmetric = states[0]
    assert all(_brute_force_walsh(symmetric, y) == pytest.approx(1 - 2 * qber_x(symmetric)) for y in range(4))


def test_parity_sampler_matches_brute_force_expectations():
    # on every basis string the product of the outcomes is -1 with probability
    # (1 - f(kappa) W[y])/2, W from one term per branch j; the bands share one
    # 1% family-wise false-alarm rate, and a product of probability 0 or 1 is exact
    count = 2000
    cases = list(_sampler_cases(range(2, 9), 500))
    sigmas = family_sigmas(sum(1 << state.n_parties for state, _ in cases))
    for seed, (state, name) in enumerate(cases):
        n = state.n_parties
        combos = np.arange(1 << n)
        bases = ((combos[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)  # party 0 is the top bit
        bits = sample_xy_bits(state, np.repeat(bases, count, axis=0), np.random.default_rng(600 + seed))
        assert bits.shape == (count << n, n) and bits.max() <= 1
        minus_freqs = (bits.sum(axis=1) % 2).reshape(1 << n, count).mean(axis=1)
        expanded = state.expand() if isinstance(state, WeightClassState) else state
        for combo, freq in zip(combos, minus_freqs):
            y = int(combo) & ((1 << (n - 1)) - 1)  # the Bobs' Y mask in the bit order of j
            p = (1 - f_sign(int(bases[combo].sum())) * _brute_force_walsh(expanded, y)) / 2
            assert abs(freq - p) < band(p, count, sigmas), (name, bases[combo].tolist())


def test_parity_sampler_asymmetric_state_above_dense_cap():
    # N=14 exceeds the default dense cap of 12; the sampler needs no dense matrix
    n = 14
    half = 1 << (n - 1)
    bob1, bob5 = 1 << (n - 2), 1 << (n - 6)
    lam_plus = np.zeros(half)
    lam_minus = np.zeros(half)
    lam_plus[0] = 0.55
    lam_minus[bob1] = 0.25
    lam_minus[bob5] = 0.2
    state = GhzDiagonalState(n, lam_plus, lam_minus)
    count = 20000
    y_pair = np.zeros(n, dtype=np.uint8)
    y_pair[[1, n - 1]] = 1  # Bob 1 and the last Bob measure Y
    for row, sign in ((np.zeros(n, dtype=np.uint8), 1), (y_pair, -1)):
        bases = np.tile(row, (count, 1))
        bits = sample_xy_bits(state, bases, np.random.default_rng(40 + int(row.sum())))
        signed_mean = sign * (1 - 2 * (bits.sum(axis=1) % 2).astype(np.int64)).mean()
        y = int("".join(str(b) for b in row[1:]), 2)
        target = _brute_force_walsh(state, y)
        assert abs(signed_mean - target) < 3.0 * np.sqrt((1 - target**2) / count)
    # the Y-pair mask sees W[y] = 0.6, not W[0] = sum_j Delta_j = 0.1
    assert _brute_force_walsh(state, 0) == pytest.approx(0.1)
    assert _brute_force_walsh(state, (1 << (n - 2)) | 1) == pytest.approx(0.6)


def test_estimate_qx_pure_state_is_exact_zero():
    rng = np.random.default_rng(8)
    state = depolarized_state(4, 0.0)
    bases = rng.integers(0, 2, size=(400, 4), dtype=np.uint8)
    bits = sample_xy_bits(state, bases, rng)
    q_x, n_plus, n_minus, kept = estimate_qx(bases, bits)
    assert q_x == 0.0
    assert n_minus == 0
    assert n_plus == kept == int((bases.sum(axis=1) % 2 == 0).sum())


def test_estimate_qx_maximally_mixed():
    rng = np.random.default_rng(9)
    state = GhzDiagonalState(4, np.full(8, 1 / 16), np.full(8, 1 / 16))
    bases = rng.integers(0, 2, size=(4000, 4), dtype=np.uint8)
    bits = sample_xy_bits(state, bases, rng)
    q_x, n_plus, n_minus, kept = estimate_qx(bases, bits)
    assert kept == n_plus + n_minus
    assert abs(q_x - 0.5) < three_sigma(0.5, kept)


def test_estimate_qx_depolarized():
    rng = np.random.default_rng(10)
    state = depolarized_state(4, 0.2).expand()
    bases = rng.integers(0, 2, size=(6000, 4), dtype=np.uint8)
    bits = sample_xy_bits(state, bases, rng)
    q_x, n_plus, n_minus, _ = estimate_qx(bases, bits)
    target = qber_x(state)
    assert target == pytest.approx(4 / 7 * 0.2, abs=1e-12)
    assert abs(q_x - target) < three_sigma(target, n_plus + n_minus)


def test_estimate_qx_requires_kept_rounds():
    # one round with a single Y measurer: odd kappa, discarded
    with pytest.raises(ValueError):
        estimate_qx(np.array([[0, 1, 0]], dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        estimate_qx(np.zeros((0, 3), dtype=np.uint8), np.zeros((0, 3), dtype=np.uint8))


def test_estimate_qz_values():
    rng = np.random.default_rng(11)
    clean = depolarized_state(3, 0.0)
    q_z, q_ab = estimate_qz(draw_z_bits(clean, 200, rng))
    assert q_z == 0.0 and q_ab.tolist() == [0.0, 0.0]

    noisy = depolarized_state(3, 0.24)
    q_z, q_ab = estimate_qz(draw_z_bits(noisy, 20000, rng))
    assert abs(q_z - 0.24) < three_sigma(0.24, 20000)
    target_ab = 4 / 6 * 0.24
    for value in q_ab:
        assert abs(value - target_ab) < three_sigma(target_ab, 20000)
    with pytest.raises(ValueError):
        estimate_qz(np.zeros((0, 3), dtype=np.uint8))


def test_estimate_qz_orders_asymmetric_bobs():
    # extra weight on j = 10, which flips Bob 1 but not Bob 2
    lam_plus = np.array([0.60, 0.02, 0.16, 0.02])
    lam_minus = np.array([0.0, 0.02, 0.16, 0.02])
    total = lam_plus.sum() + lam_minus.sum()
    state = GhzDiagonalState(3, lam_plus / total, lam_minus / total)
    expected = qber_pairwise_all(state)
    assert expected[0] > expected[1]
    rng = np.random.default_rng(12)
    _, q_ab = estimate_qz(draw_z_bits(state, 20000, rng))
    assert q_ab[0] > q_ab[1]
    for est, ref in zip(q_ab, expected):
        assert abs(est - ref) < three_sigma(ref, 20000)


def test_accounting_formulas():
    state = depolarized_state(3, 0.0)
    config = ProtocolConfig(3, 100000, state, p_estimation=0.5, seed=0)
    ledger = preshared_key_accounting(config, second_type_rounds=50000)
    assert ledger.preshared_key_bits == pytest.approx(100000.0)
    config = ProtocolConfig(3, 100000, state, p_estimation=0.01, seed=0)
    ledger = preshared_key_accounting(config, second_type_rounds=1000)
    # direct entropy evaluation, frozen
    assert ledger.preshared_key_bits == pytest.approx(8079.313589591118, abs=1e-6)
    assert ledger.announced_z_rounds == 1000
    assert ledger.key_rounds == 98000
    small = ProtocolConfig(3, 100000, state, p_estimation=0.001, seed=0)
    assert preshared_key_accounting(small, 100).preshared_key_bits < 1200


def test_run_protocol_noiseless():
    state = depolarized_state(3, 0.0)
    result = run_protocol(ProtocolConfig(3, 10000, state, p_estimation=0.05, seed=3))
    assert result.estimate.q_z_hat == 0.0
    assert result.estimate.q_x_hat == 0.0
    assert result.rate_report.r_inf == pytest.approx(1.0)
    assert result.key_length_estimate == pytest.approx(result.ledger.key_rounds)


def test_run_protocol_above_threshold_clamps_to_zero():
    # at q = 0.25 and L = 8e4 the estimated r_inf has mean -0.137 and sd 0.036
    # (2,000 kept parity rounds, 4,000 announced Z rounds), so r_inf < 0 holds
    # 3.9 sd out; without the error-correction term the mean is +0.52
    q = 0.25
    assert q > threshold_qber(3)
    state = depolarized_state(3, q)
    result = run_protocol(ProtocolConfig(3, 80000, state, seed=5))
    assert result.rate_report.r_inf < 0.0
    assert result.key_length_estimate == 0.0


def test_run_protocol_deterministic_per_seed(tmp_path):
    state = depolarized_state(3, 0.1)
    a = run_protocol(ProtocolConfig(3, 5000, state, seed=42))
    b = run_protocol(ProtocolConfig(3, 5000, state, seed=42))
    assert a.estimate == b.estimate
    assert np.array_equal(a.key_bits, b.key_bits)
    assert np.array_equal(a.flip_mask, b.flip_mask)
    c = run_protocol(ProtocolConfig(3, 5000, state, seed=43))
    assert not np.array_equal(a.key_bits, c.key_bits)
    # transcripts match byte for byte
    paths = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
    for path in paths:
        write_transcript(str(path), ProtocolRun(ProtocolConfig(3, 500, state, seed=9)))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_discard_rule_half():
    state = depolarized_state(3, 0.1)
    result = run_protocol(ProtocolConfig(3, 60000, state, p_estimation=0.3, seed=17))
    total = result.estimate.xy_rounds_total
    assert abs(result.discard_fraction - 0.5) < three_sigma(0.5, total)


def test_estimator_consistency_shrinking_bands():
    # the estimates land inside 3-sigma bands that shrink as 1/sqrt(L),
    # and the implied rate approaches the closed form
    from nqkd.keyrate import rate_depolarized

    q = 0.1
    state = depolarized_state(3, q)
    target_rate = rate_depolarized(q, 3)
    for n_rounds in (10**4, 10**5, 10**6):
        result = run_protocol(ProtocolConfig(3, n_rounds, state, seed=31))
        est = result.estimate
        assert abs(est.q_z_hat - q) < three_sigma(q, est.z_rounds_used)
        assert abs(est.q_x_hat - 2 / 3 * q) < three_sigma(2 / 3 * q, est.xy_rounds_kept)
    # combined sensitivity of the rate to all four estimates keeps the
    # million-round figure within ~0.03
    assert abs(result.rate_report.r_inf - target_rate) < 0.03


def test_large_n_run_within_bands_of_closed_forms():
    # N=60 just below the N=inf threshold; the class masses keep the run O(N) in memory
    n, q = 60, 0.33
    assert rate_depolarized(q, n) == pytest.approx(0.0239, abs=5e-5)
    state = depolarized_state(n, q)
    result = run_protocol(ProtocolConfig(n, 200000, state, p_estimation=0.05, seed=60))
    est = result.estimate
    assert abs(est.q_z_hat - qber_z(state)) < three_sigma(qber_z(state), est.z_rounds_used)
    assert abs(est.q_x_hat - qber_x(state)) < three_sigma(qber_x(state), est.xy_rounds_kept)
    assert len(est.q_ab_hat) == n - 1
    # the per-Bob estimates share each round's weight w, so they are tested
    # as one family: 3 sigma on their mean (w/(N-1) per round), and per Bob a
    # Bonferroni band whose family-wise false-alarm rate is at most 1%
    masses = state.plus_by_weight + state.minus_by_weight
    share = np.arange(n) / (n - 1)
    mean_ab = float(masses @ share)
    sigma_mean = np.sqrt((float(masses @ share**2) - mean_ab**2) / est.z_rounds_used)
    assert abs(np.mean(est.q_ab_hat) - mean_ab) < 3.0 * sigma_mean
    for got, expected in zip(est.q_ab_hat, qber_pairwise_all(state)):
        assert abs(got - expected) < band(expected, est.z_rounds_used, family_sigmas(n - 1))
    assert abs(result.discard_fraction - 0.5) < three_sigma(0.5, est.xy_rounds_total)


def _every_round_flipped(n, weight_class):
    # P_0 = 0: every Z round flips at least one Bob
    if weight_class:
        plus = np.full(n, 1.0 / (2 * (n - 1)))
        plus[0] = 0.0
        return WeightClassState(n, plus, plus.copy())
    half = 1 << (n - 1)
    lam = np.full(half, 1.0 / (2 * (half - 1)))
    lam[0] = 0.0
    return GhzDiagonalState(n, lam, lam.copy())


def test_run_protocol_peak_memory_within_peak_bytes(tmp_path):
    # ProtocolConfig.peak_bytes is what the byte budget checks; the traced
    # peak of a run stays under it, and the worst case sits near it, so its
    # constants neither leak nor hide slack
    n_rounds = 1 << 20
    cases = [
        (3, depolarized_state(3, 0.1), 0.05, None, False),
        (20, depolarized_state(20, 0.1), 0.05, None, False),
        (3, _every_round_flipped(3, True), 0.05, n_rounds, False),
        (20, _every_round_flipped(20, True), 0.5, None, False),
        # almost every Z round drawn from the uniform part, as packed fair bits
        (20, depolarized_state(20, 0.99 * (1 - 2.0**-19) / (1 - 2.0**-20)), 0.05, None, False),
        (3, depolarized_state(3, 0.0), 0.01, n_rounds, False),
        (2, _every_round_flipped(2, False), 0.95, None, False),
        (6, _every_round_flipped(6, False), 0.3, None, False),
        # the state-sized temporaries of a GhzDiagonalState's samplers
        (12, _every_round_flipped(12, False), 0.05, None, False),
        (20, _every_round_flipped(20, False), 0.05, None, False),
        # the run, then its transcript, which draws the schedule and every round's outcome bits again
        (20, _every_round_flipped(20, True), 0.05, n_rounds, True),
        (3, depolarized_state(3, 0.1), 0.05, None, True),
    ]
    configs = [(ProtocolConfig(n, n_rounds, state, p_estimation=p, seed=1, announced_z_rounds=announced), transcript)
               for n, state, p, announced, transcript in cases]
    # every Z round announced and drawn from the residual, in one batch: the Bobs'
    # bits of DRAW_BATCH rows are held while they are counted
    configs.append((ProtocolConfig(200, 1 << 16, _every_round_flipped(200, True), p_estimation=1e-4, seed=1,
                                   announced_z_rounds=1 << 16), False))
    # at large N the transcript writer's piece buffers of one block dominate: one block, and sixteen
    configs += [(ProtocolConfig(n, rounds, depolarized_state(n, 0.1), seed=1), True)
                for n, rounds in ((2000, 1 << 12), (1000, 1 << 16))]
    ratios = []
    for config, transcript in configs:
        tracemalloc.start()
        try:
            result = run_protocol(config)
            if transcript:
                write_transcript(str(tmp_path / "t.jsonl"), result.run)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counted = config.peak_bytes(transcript=transcript)
        assert peak <= counted, (config.n_parties, config.p_estimation, config.announced_z_rounds, transcript)
        ratios.append(peak / counted)
    assert max(ratios) > 0.85


def test_hashed_run_peak_memory_within_its_budget():
    # run_protocol counts HASH_BIT_BYTES per round for --hash-key; the worst
    # case, a pure state whose key just passes a power of two and is hashed
    # to its full length, doubles the FFT size and sits near the count
    n_rounds = (1 << 19) + 64
    config = ProtocolConfig(3, n_rounds, depolarized_state(3, 0.0), p_estimation=4e-5, seed=1,
                            announced_z_rounds=16)
    tracemalloc.start()
    try:
        result = run_protocol(config, hash_key=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ledger.key_rounds > 1 << 19 and result.hashed_key.size == result.ledger.key_rounds
    counted = config.peak_bytes() + protocol.HASH_BIT_BYTES * n_rounds
    assert 0.85 * counted < peak <= counted


def test_hashed_run_over_the_budget_fails_before_sampling(monkeypatch):
    # 1e8 rounds fit the plain budget, but not with HASH_BIT_BYTES more per round
    config = ProtocolConfig(3, 10**8, depolarized_state(3, 0.1))
    monkeypatch.setattr(protocol, "ProtocolRun", None)  # building the run would raise TypeError
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"with a hashed key need about \d+ bytes, over the \d+-byte budget"):
        run_protocol(config, hash_key=True)
    assert time.perf_counter() - start < 1.0


def test_basis_rule_equivalence():
    """Alice's deterministic basis rule reproduces discard-and-flip sampling."""
    state = depolarized_state(3, 0.15).expand()
    n_rounds = 30000
    rng = np.random.default_rng(21)
    free_bases = rng.integers(0, 2, size=(n_rounds, 3), dtype=np.uint8)
    free_bits = sample_xy_bits(state, free_bases, rng)
    q_free, _, _, kept_free = estimate_qx(free_bases, free_bits)

    rule_rng = np.random.default_rng(22)
    bob_bases = rule_rng.integers(0, 2, size=(n_rounds, 2), dtype=np.uint8)
    kappa = bob_bases.sum(axis=1)
    alice_is_y = np.isin(kappa % 4, (1, 3)).astype(np.uint8)
    rule_bases = np.column_stack([alice_is_y, bob_bases])
    assert np.all(rule_bases.sum(axis=1) % 2 == 0)  # every round is kept
    rule_bits = sample_xy_bits(state, rule_bases, rule_rng)
    q_rule, _, _, kept_rule = estimate_qx(rule_bases, rule_bits)
    assert kept_rule == n_rounds

    target = qber_x(state)
    sigma = np.sqrt(
        target * (1 - target) / kept_free + target * (1 - target) / kept_rule
    )
    assert abs(q_free - q_rule) < 3.0 * sigma


def test_round_record_json_roundtrip():
    record = RoundRecord("XY", ("X", "Y", "Y"), (1, -1, -1), 2, True)
    back = RoundRecord.from_json(record.to_json())
    assert back == record


def test_transcript_file(tmp_path):
    state = depolarized_state(3, 0.1)
    config = ProtocolConfig(3, 300, state, seed=2)
    run = ProtocolRun(config)
    path = tmp_path / "transcript.jsonl"
    write_transcript(str(path), run)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 300
    records = [RoundRecord.from_json(line) for line in lines]
    for record in records:
        if record.round_type == "Z":
            assert record.bases == ("Z", "Z", "Z")
        else:
            assert set(record.bases) <= {"X", "Y"}
            assert record.kept == (record.kappa_tilde % 2 == 0)
    assert sum(r.round_type == "XY" for r in records) == run.ledger.second_type_rounds


def reference_rounds(config):
    """The schedule as a mask over the rounds, every Z round's bits, and the parity rounds'
    bases and bits, drawn from the first three of the seed's five child streams."""
    schedule_rng, z_rng, xy_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(5)[:3])
    schedule = np.zeros(config.n_rounds, dtype=bool)
    for positions in protocol._bernoulli_positions(config.n_rounds, config.p_estimation, schedule_rng):
        schedule[positions] = True
    xy_count = int(np.count_nonzero(schedule))
    xy_bases = protocol._uniform_bits(xy_rng, (config.n_parties, xy_count)).T
    return (schedule, draw_z_bits(config.state, config.n_rounds - xy_count, z_rng), xy_bases,
            sample_xy_bits(config.state, xy_bases, xy_rng))


def reference_transcript(run):
    """The transcript built round by round from ``RoundRecord.to_json``, its rounds from ``reference_rounds``."""
    n = run.config.n_parties
    schedule, z_bits, xy_bases, xy_bits = reference_rounds(run.config)
    assert z_bits.shape[0] == run.z_count
    lines = []
    z_pos = xy_pos = 0
    for is_xy in schedule:
        if is_xy:
            bases = xy_bases[xy_pos]
            kappa = int(bases.sum())
            record = RoundRecord(
                "XY",
                tuple("Y" if b else "X" for b in bases),
                tuple(1 - 2 * int(b) for b in xy_bits[xy_pos]),
                kappa,
                kappa % 2 == 0,
            )
            xy_pos += 1
        else:
            record = RoundRecord("Z", ("Z",) * n, tuple(1 - 2 * int(b) for b in z_bits[z_pos]), 0, True)
            z_pos += 1
        lines.append(record.to_json() + "\n")
    return "".join(lines).encode()


def assert_transcript_matches_reference(run, path):
    write_transcript(str(path), run)
    assert path.read_bytes() == reference_transcript(run)


# 8, 9, 16 and 17 sit on either side of the writer's chunks of eight parties; 64 has eight full ones
@pytest.mark.parametrize("n", [2, 3, 6, 8, 9, 12, 16, 17, 20, 64])
def test_transcript_matches_round_records(tmp_path, n):
    config = ProtocolConfig(n, 3000, depolarized_state(n, 0.1), p_estimation=0.4, seed=n)
    run = ProtocolRun(config)
    kappas = reference_rounds(config)[2].sum(axis=1)
    assert (kappas % 2 == 1).any() and (kappas % 2 == 0).any()
    if n == 20:
        assert (kappas >= 10).any() and (kappas < 10).any()  # one- and two-digit kappa_tilde
    assert_transcript_matches_reference(run, tmp_path / "t.jsonl")


def test_transcript_without_parity_rounds(tmp_path):
    run = ProtocolRun(ProtocolConfig(4, 200, depolarized_state(4, 0.1), p_estimation=1e-9, seed=1))
    assert run.ledger.second_type_rounds == 0
    assert_transcript_matches_reference(run, tmp_path / "t.jsonl")


def test_config_rejects_dense_state():
    with pytest.raises(ValueError, match="ghz_diagonal_from_dense"):
        ProtocolConfig(3, 1000, ghz_state(3), p_estimation=0.3, seed=4)


@pytest.mark.parametrize("n, n_rounds", [(5, 1), (5, 63), (5, 192), (5, 1001), (9, 1001)],
                         ids=["1", "63", "192", "1001", "n9_1001"])
def test_transcript_across_blocks(tmp_path, monkeypatch, n, n_rounds):
    # 192 rounds fill three blocks exactly, 1001 end in a partial block
    monkeypatch.setattr(protocol, "TRANSCRIPT_BLOCK_ROUNDS", 64)
    config = ProtocolConfig(n, n_rounds, depolarized_state(n, 0.1), p_estimation=0.3, seed=8)
    assert_transcript_matches_reference(ProtocolRun(config), tmp_path / "t.jsonl")


def test_transcript_block_without_z_rounds(tmp_path, monkeypatch):
    monkeypatch.setattr(protocol, "TRANSCRIPT_BLOCK_ROUNDS", 8)
    run = ProtocolRun(ProtocolConfig(9, 400, depolarized_state(9, 0.1), p_estimation=0.9, seed=3))
    assert reference_rounds(run.config)[0].reshape(-1, 8).all(axis=1).any()  # a block of parity rounds only
    assert_transcript_matches_reference(run, tmp_path / "t.jsonl")


@pytest.mark.parametrize("n", [3, 20])
def test_transcript_writer_memory_does_not_grow_with_the_run(tmp_path, n):
    # the writer draws the schedule mask, every Z round's N bits, Alice's packed
    # bits and every parity round's N basis and N outcome bits again; beyond
    # them it holds one block of rounds at a time, so eight times the rounds peak as high
    peaks = []
    for n_rounds in (1 << 14, 1 << 17):
        run = ProtocolRun(ProtocolConfig(n, n_rounds, depolarized_state(n, 0.1), seed=1))
        tracemalloc.start()
        try:
            write_transcript(str(tmp_path / "t.jsonl"), run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        xy_count = run.ledger.second_type_rounds
        peaks.append(peak - (n_rounds + n * run.z_count + -(-run.z_count // 8) + 2 * n * xy_count))
    assert abs(peaks[1] / peaks[0] - 1) < 0.05, peaks


DEPOLARIZED = {"model": "depolarized", "q": 0.1}
# asymmetric, with a uniform part U = 0.24 and a residual on every branch but j = 5
GHZ_DIAGONAL_N4 = {"model": "ghz_diagonal",
                   "lambda_plus": [0.5, 0.05, 0.04, 0.03, 0.06, 0.02, 0.03, 0.04],
                   "lambda_minus": [0.1, 0.02, 0.01, 0.03, 0.02, 0.01, 0.02, 0.02]}


@pytest.mark.parametrize(
    "n, n_rounds, seed, state, digest",
    [
        (3, 2000, 7, DEPOLARIZED, "ce08bd932a6933711401b2f8c6844d247ab0e100666648bdb58e0d8a05f59e20"),
        (12, 5000, 3, DEPOLARIZED, "2c6de608afa7dc1b1493deb438d27a824e21f7012e0347b2e9638ccc33c7f999"),
        (20, 3000, 11, DEPOLARIZED, "7ed8e3cb653fd184f9858399408a1b992b3a04164a923006afa3c0141ac94883"),
        (2, 2000, 5, DEPOLARIZED, "82bc1e2249605b3169cdfc2a02133200634535850e37757597bbd00cd50cc38e"),
        (4, 3000, 9, GHZ_DIAGONAL_N4, "eba5a70179a6d40a5108508b204eeac889dabece507f94f764aed260e091c344"),
    ],
    ids=["n3", "n12", "n20", "n2", "ghz_diagonal_n4"],  # the digests change with the seeded stream; the ids do not
)
def test_simulate_transcript_bytes_pinned(tmp_path, n, n_rounds, seed, state, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": n, "n_rounds": n_rounds, "seed": seed, "state": state}))
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--transcript", str(transcript),
                 "--out", str(tmp_path / "s.json")]) == 0
    assert hashlib.sha256(transcript.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, state, hash_key",
    [(2, DEPOLARIZED, False), (3, DEPOLARIZED, True), (20, DEPOLARIZED, True), (64, DEPOLARIZED, False),
     (200, DEPOLARIZED, False), (4, GHZ_DIAGONAL_N4, True), (4, {"model": "pure_ghz"}, False),
     (3, {"model": "depolarized", "q": 0.002}, False)],
    ids=["n2", "n3_hash", "n20_hash", "n64", "n200", "ghz_diagonal_n4_hash", "pure_n4", "sparse_n3"],
)
def test_simulate_summary_does_not_depend_on_the_transcript(tmp_path, n, state, hash_key):
    # a run is sampled the same way with and without --transcript; the writer draws its rounds again
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": n, "n_rounds": 20000, "seed": n, "state": state}))
    base = ["simulate", "--config", str(cfg)] + ["--hash-key"] * hash_key
    assert main(base + ["--out", str(tmp_path / "plain.json")]) == 0
    assert main(base + ["--transcript", str(tmp_path / "t.jsonl"), "--out", str(tmp_path / "full.json")]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "full.json").read_bytes()
    config = protocol_config_from_json(cfg.read_text())
    plain, written = run_protocol(config, hash_key=hash_key), run_protocol(config, hash_key=hash_key)
    write_transcript(str(tmp_path / "again.jsonl"), written.run)
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "t.jsonl").read_bytes()
    assert hash_key or "flipped_key" not in vars(written.run)  # the writer builds no key
    assert np.array_equal(plain.key_bits, written.key_bits) and np.array_equal(plain.flip_mask, written.flip_mask)


def transcript_rounds(path):
    """A transcript's Z rounds' outcome bits, and its parity rounds' bases (1 = Y) and outcome bits."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    is_z = np.array([r["type"] == "Z" for r in records])
    outcomes = (np.array([r["outcomes"] for r in records]) < 0).astype(np.uint8)
    xy_bases = np.array([[b == "Y" for b in r["bases"]] for r in records if r["type"] == "XY"], dtype=np.uint8)
    return outcomes[is_z], xy_bases.reshape(-1, outcomes.shape[1]), outcomes[~is_z]


RUN_COUNT_STATES = {
    **{f"depolarized_n{n}": (lambda n=n: depolarized_state(n, 0.1)) for n in (2, 3, 9, 20, 64)},
    "flipped_weight_class_n5": lambda: _every_round_flipped(5, True),
    "flipped_ghz_diagonal_n5": lambda: _every_round_flipped(5, False),
    "ghz_diagonal_n4": _ghz_diagonal_n4,
}


@pytest.mark.parametrize("announced", [None, 2500], ids=["announced_null", "announced_2500"])
@pytest.mark.parametrize("name", list(RUN_COUNT_STATES))
def test_run_counts_equal_the_estimators_on_the_transcript(tmp_path, name, announced):
    # the run counts its estimation rounds as it draws them; the estimators on the
    # printed rounds, the announced Z lines and every XY line, give the same numbers
    state = RUN_COUNT_STATES[name]()
    config = ProtocolConfig(state.n_parties, 6000, state, p_estimation=0.1, seed=13, announced_z_rounds=announced)
    result = run_protocol(config)
    run = result.run
    write_transcript(str(tmp_path / "t.jsonl"), run)
    z_bits, xy_bases, xy_bits = transcript_rounds(tmp_path / "t.jsonl")
    assert run.announced_rows.size == result.ledger.announced_z_rounds == (announced or xy_bases.shape[0])
    q_z, q_ab = estimate_qz(z_bits[run.announced_rows])
    q_x, n_plus, n_minus, kept = estimate_qx(xy_bases, xy_bits)
    assert (run.n_plus, run.n_minus, run.kept) == (n_plus, n_minus, kept)
    est = result.estimate
    assert (est.q_z_hat, est.q_x_hat, est.n_plus, est.n_minus, est.xy_rounds_kept) == (q_z, q_x, n_plus, n_minus, kept)
    assert est.q_ab_hat == tuple(q_ab.tolist())
    assert 0 < n_minus < kept  # both signs occur


@pytest.mark.parametrize("state, hash_key", [(depolarized_state(5, 0.2), False), (depolarized_state(5, 0.2), True),
                                             (GHZ_DIAGONAL_N4, False), (GHZ_DIAGONAL_N4, True)],
                         ids=["depolarized", "depolarized_hash", "ghz_diagonal_n4", "ghz_diagonal_n4_hash"])
def test_transcript_prints_the_summarised_run(tmp_path, state, hash_key):
    # the writer draws the rounds again; the lines it prints are the rounds the summary counted
    if isinstance(state, dict):
        state = GhzDiagonalState(4, np.array(state["lambda_plus"]), np.array(state["lambda_minus"]))
    config = ProtocolConfig(state.n_parties, 6000, state, p_estimation=0.1, seed=12)
    result = run_protocol(config, hash_key=hash_key)
    run = result.run
    write_transcript(str(tmp_path / "t.jsonl"), run)
    z_bits, _, xy_bits = transcript_rounds(tmp_path / "t.jsonl")
    assert z_bits.shape[0] == run.z_count and xy_bits.shape[0] == result.ledger.second_type_rounds
    assert np.array_equal(z_bits[:, 0], np.unpackbits(run.z_alice, count=run.z_count))
    key_rows = np.delete(z_bits[:, 0], run.announced_rows)
    assert np.array_equal(key_rows ^ result.flip_mask, result.key_bits)


def test_simulate_transcript_is_the_summarised_run(tmp_path):
    # the CLI prints the run it summarised: a fresh run of the same config, written again, reads the same
    obj = {"n_parties": 4, "n_rounds": 3000, "p_estimation": 0.2, "seed": 6,
           "state": {"model": "depolarized", "q": 0.1}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    transcript = tmp_path / "t.jsonl"
    assert main(["simulate", "--config", str(cfg), "--hash-key", "--transcript", str(transcript),
                 "--out", str(tmp_path / "s.json")]) == 0
    config = protocol_config_from_json(obj)
    fresh = tmp_path / "fresh.jsonl"
    write_transcript(str(fresh), ProtocolRun(config))
    assert transcript.read_bytes() == fresh.read_bytes()
    result = run_protocol(config, hash_key=True)
    assert transcript.read_bytes().count(b'"type": "XY"') == result.estimate.xy_rounds_total
    assert result.summary_json() == (tmp_path / "s.json").read_text().rstrip("\n")


def test_summary_json_schema():
    state = depolarized_state(3, 0.1)
    result = run_protocol(ProtocolConfig(3, 2000, state, seed=4))
    obj = json.loads(result.summary_json())
    assert obj["n_parties"] == 3
    assert obj["estimates"]["n_plus"] + obj["estimates"]["n_minus"] == obj["estimates"]["xy_rounds_kept"]
    assert obj["ledger"]["key_rounds"] + obj["ledger"]["second_type_rounds"] + obj["ledger"][
        "announced_z_rounds"
    ] == obj["ledger"]["n_rounds"]


def test_toeplitz_hash_properties():
    rng = np.random.default_rng(30)
    x = rng.integers(0, 2, 200, dtype=np.uint8)
    y = rng.integers(0, 2, 200, dtype=np.uint8)
    h_seed = 77
    hx = toeplitz_hash(x, 64, np.random.default_rng(h_seed))
    hy = toeplitz_hash(y, 64, np.random.default_rng(h_seed))
    hxy = toeplitz_hash(x ^ y, 64, np.random.default_rng(h_seed))
    assert hx.size == 64
    assert np.array_equal(hx ^ hy, hxy)  # the hash is GF(2)-linear
    again = toeplitz_hash(x, 64, np.random.default_rng(h_seed))
    assert np.array_equal(hx, again)
    with pytest.raises(ValueError):
        toeplitz_hash(x, 300, np.random.default_rng(0))


def _toeplitz_reference(bits, out_len, rng):
    # the quadratic direct product, kept here as the reference
    bits = np.asarray(bits, dtype=np.int64)
    diagonals = rng.integers(0, 2, size=bits.size + out_len - 1, dtype=np.int64)
    return (np.convolve(diagonals, bits, "valid") % 2).astype(np.uint8)


@pytest.mark.parametrize(
    "n, out_len", [(1, 1), (2, 1), (17, 17), (1500, 700), (4097, 4000), (10000, 1000), (30000, 300)]
)
def test_toeplitz_hash_matches_convolution(n, out_len):
    bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
    fast = toeplitz_hash(bits, out_len, np.random.default_rng(out_len))
    assert np.array_equal(fast, _toeplitz_reference(bits, out_len, np.random.default_rng(out_len)))
    ones = np.ones(n, dtype=np.uint8)  # largest convolution values
    fast = toeplitz_hash(ones, out_len, np.random.default_rng(1))
    assert np.array_equal(fast, _toeplitz_reference(ones, out_len, np.random.default_rng(1)))


def test_run_protocol_with_hashing():
    state = depolarized_state(3, 0.05)
    result = run_protocol(ProtocolConfig(3, 4000, state, seed=6), hash_key=True)
    assert result.hashed_key is not None
    assert result.hashed_key.size == int(result.key_length_estimate)


def test_config_validation():
    state = depolarized_state(3, 0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(4, 100, state)
    with pytest.raises(ValueError):
        ProtocolConfig(3, 0, state)
    with pytest.raises(ValueError):
        ProtocolConfig(3, 100, state, p_estimation=0.0)


def test_config_rejects_non_integer_counts():
    state = depolarized_state(3, 0.1)
    for kwargs in ({"n_rounds": 100.5}, {"seed": 1.5}, {"seed": True},
                   {"announced_z_rounds": 10.5}, {"announced_z_rounds": -1}):
        with pytest.raises(ValueError):
            ProtocolConfig(**{"n_parties": 3, "n_rounds": 100, "state": state, **kwargs})
    with pytest.raises(ValueError, match="n_parties"):
        ProtocolConfig(3.0, 100, state)
    config = ProtocolConfig(3, np.int64(2000), state, seed=np.uint32(4), announced_z_rounds=50)
    assert run_protocol(config).ledger.announced_z_rounds == 50


def test_config_from_json():
    config = protocol_config_from_json(
        {
            "n_parties": 3,
            "n_rounds": 500,
            "p_estimation": 0.1,
            "seed": 9,
            "state": {"model": "depolarized", "q": 0.2},
        }
    )
    assert config.n_rounds == 500
    assert qber_z(config.state) == pytest.approx(0.2)
    pure = protocol_config_from_json(
        '{"n_parties": 2, "n_rounds": 10, "state": {"model": "pure_ghz"}}'
    )
    assert pure.state.expand().lam_plus[0] == 1.0
    explicit = protocol_config_from_json(
        {
            "n_parties": 2,
            "n_rounds": 10,
            "state": {"model": "ghz_diagonal", "lambda_plus": [0.7, 0.1], "lambda_minus": [0.1, 0.1]},
        }
    )
    assert explicit.state.lam_minus[1] == 0.1
    with pytest.raises(ValueError):
        protocol_config_from_json(
            {"n_parties": 2, "n_rounds": 10, "state": {"model": "nonsense"}}
        )
