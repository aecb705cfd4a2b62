"""Secret fractions, closed forms and threshold solvers."""

import json
import math
import warnings

import numpy as np
import pytest

from nqkd import keyrate
from nqkd.keyrate import (
    RateInput,
    SolverError,
    binary_entropy,
    bisect_root,
    depolarized_rate_input,
    nqkd_channel_threshold,
    nqkd_gate_threshold,
    noisy_fractions,
    noisy_rate_input,
    rate_depolarized,
    secret_fraction,
    six_state_rate,
    sweep_fractions,
    threshold_qber,
    twoqkd_conference_rate,
)
from nqkd.noise import ChannelNoise, GateNoise, channel_qber, lambda0_router, lambda0_star, qab_average

TABLE_QBER = {
    2: 0.126193, 3: 0.209716, 4: 0.263087, 5: 0.295974, 6: 0.315562,
    7: 0.326892, 8: 0.333296, 9: 0.336851, 10: 0.338799, 11: 0.339855,
    12: 0.340424, 13: 0.340728, 14: 0.340890, 15: 0.340976, 16: 0.341021,
    17: 0.341045,
}
TABLE_QBER_INF = 0.341071

TABLE_GATE = {
    3: 0.0725754, 4: 0.0689939, 5: 0.0618163, 6: 0.0553032,
    7: 0.0498258, 8: 0.0452567, 9: 0.0414201, 10: 0.0381659,
    11: 0.0353766, 12: 0.0329621, 13: 0.0308531, 14: 0.0289959,
    15: 0.0273484, 16: 0.0258773, 17: 0.024556, 18: 0.0233626,
}


# rate_depolarized against the white-noise mixture's closed form below: the two
# differ by rounding alone (under 1e-14 for N=2..2000 and N=inf), and a
# relative 1e-9 change of Q_X moves the general formula by more than this
CLOSED_FORM_ATOL = 1e-12


def _h(p: float) -> float:
    """Binary entropy in bits, written out here."""
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def _q_max(n):
    eps = 2.0 ** -n
    return (1.0 - 2.0 * eps) / (1.0 - eps)


def white_noise_closed_form(q: float, n: int | float) -> float:
    """Secret fraction of the white-noise mixture in closed form, independent of
    the general formula: 1 + h(Q) - h(Q r_1) - h(Q r_2) + s Q with r_1 =
    (2^N-1)/(2^N-2), r_2 = 2^(N-1)/(2^N-2) and s = log2(2^(N-1)-1) - r_1
    log2(2^N-1), each in powers 2^-N; 1 - h(Q/2) - Q as N -> infinity."""
    if math.isinf(n):
        return 1.0 - _h(q / 2.0) - q
    eps = 2.0 ** -n
    ratio_full = (1.0 - eps) / (1.0 - 2.0 * eps)
    ratio_half = 0.5 / (1.0 - 2.0 * eps)
    log_half = (n - 1) + math.log1p(-2.0 * eps) / math.log(2.0)
    log_full = n + math.log1p(-eps) / math.log(2.0)
    slope = log_half - ratio_full * log_full
    return 1.0 + _h(q) - _h(min(q * ratio_full, 1.0)) - _h(q * ratio_half) + slope * q


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # direct evaluation, frozen
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)
    for p in (0.03, 0.2, 0.47):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_secret_fraction_noiseless():
    report = secret_fraction(RateInput(0.0, 0.0, (0.0, 0.0), 3))
    assert report.r_inf == pytest.approx(1.0, abs=1e-14)
    assert report.r_clamped == 1.0
    assert report.rate == pytest.approx(1.0)


def test_secret_fraction_matches_closed_form():
    for n in [*range(2, 19), 40, 64, 100, 1100, 2000, math.inf]:
        q_max = 1.0 if math.isinf(n) else _q_max(n)
        for q in np.linspace(0.0, 0.999 * q_max, 100).tolist() + [q_max]:
            closed = white_noise_closed_form(q, n)
            assert rate_depolarized(q, n) == pytest.approx(closed, abs=CLOSED_FORM_ATOL), (n, q)
            if not math.isinf(n):
                general = secret_fraction(depolarized_rate_input(q, n)).r_inf
                assert general == rate_depolarized(q, n), (n, q)


def test_six_state_special_case():
    for q in np.linspace(0.0, 2.0 / 3.0, 100).tolist():
        assert white_noise_closed_form(q, 2) == pytest.approx(six_state_rate(q), abs=1e-12)
        assert rate_depolarized(q, 2) == pytest.approx(six_state_rate(q), abs=1e-12)


def test_secret_fraction_continuous_at_parity_corner():
    # Q_X == Q_Z/2 zeroes the second log term; approach from above
    base = secret_fraction(RateInput(0.1, 0.05, (0.05,), 2)).r_inf
    for eps in (1e-6, 1e-9, 1e-12):
        near = secret_fraction(RateInput(0.1, 0.05 + eps, (0.05,), 2)).r_inf
        assert abs(near - base) < 5e-5
    below = secret_fraction(RateInput(0.1, 0.05 - 1e-9, (0.05,), 2)).r_inf
    assert abs(below - base) < 5e-5  # clamped, not an error


def test_secret_fraction_negative_preserved():
    report = secret_fraction(depolarized_rate_input(0.3, 2))
    assert report.r_inf < 0.0
    assert report.r_clamped == 0.0


def test_secret_fraction_limiting_bob():
    report = secret_fraction(RateInput(0.1, 0.06, (0.01, 0.09, 0.02), 4))
    assert report.limiting_bob == 2
    assert report.components["error_correction_term"] == pytest.approx(-binary_entropy(0.09))


def test_rate_report_serialization():
    report = secret_fraction(depolarized_rate_input(0.05, 3, t_rep=2.0))
    obj = json.loads(report.to_json())
    assert set(obj) == {"r_inf", "r_clamped", "rate", "t_rep", "limiting_bob", "components"}
    assert len(obj["components"]) == 4
    assert obj["rate"] == pytest.approx(obj["r_inf"] / 2.0)


def test_rate_input_validation():
    with pytest.raises(ValueError):
        RateInput(1.2, 0.0, (0.0,), 2)
    with pytest.raises(ValueError):
        RateInput(0.1, 0.05, (0.0, 0.0), 2)  # wrong Bob count
    with pytest.raises(ValueError):
        RateInput(0.1, 0.05, (0.05,), 2, t_rep=0.0)


def test_rate_depolarized_endpoints():
    for n in (2, 5, 11):
        assert rate_depolarized(0.0, n) == pytest.approx(1.0, abs=1e-12)
    assert rate_depolarized(0.0, math.inf) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        rate_depolarized(0.9, 2)
    with pytest.raises(ValueError):
        rate_depolarized(-0.05, 4)


def test_rate_depolarized_zero_at_table_thresholds():
    assert abs(rate_depolarized(0.126193, 2)) < 1e-5
    assert abs(rate_depolarized(0.209716, 3)) < 1e-5


def test_rate_increases_with_parties_and_converges():
    for q in (0.05, 0.15, 0.25):
        values = [rate_depolarized(q, n) for n in range(3, 17)]
        assert all(b > a for a, b in zip(values, values[1:]))
        limit = rate_depolarized(q, math.inf)
        assert rate_depolarized(q, 64) == pytest.approx(limit, abs=1e-6)
        assert rate_depolarized(q, 2000) == pytest.approx(limit, abs=1e-9)


def test_secret_fraction_at_most_one():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        q_z = float(rng.uniform(0, 1))
        q_x = float(rng.uniform(0, 1))
        q_ab = tuple(float(x) for x in rng.uniform(0, 1, n - 1))
        report = secret_fraction(RateInput(q_z, q_x, q_ab, n))
        assert report.r_inf <= 1.0 + 1e-12
        if report.r_inf >= 1.0 - 1e-12:
            assert q_z < 1e-6 and q_x < 1e-6  # only the noiseless corner
    assert secret_fraction(RateInput(0.0, 0.0, (0.0,), 2)).r_inf == pytest.approx(1.0)


def test_threshold_qber_table_rows():
    assert threshold_qber(2) == pytest.approx(TABLE_QBER[2], abs=1e-5)
    assert threshold_qber(10) == pytest.approx(TABLE_QBER[10], abs=1e-5)
    assert threshold_qber(math.inf) == pytest.approx(TABLE_QBER_INF, abs=1e-5)
    values = [threshold_qber(n) for n in range(2, 18)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bisect_root_requires_sign_change():
    with pytest.raises(SolverError):
        bisect_root(lambda x: 1.0 + x * x, 0.0, 1.0)
    root = bisect_root(lambda x: x - 0.25, 0.0, 1.0, xtol=1e-12)
    assert root == pytest.approx(0.25, abs=1e-10)


def former_bisect_root(f, lo, hi, xtol=1e-9, max_iter=200):
    """Plain bisection: the loop bisect_root ran before its sign bracket, which
    calls f at every midpoint until the interval is narrower than xtol."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise SolverError(f"no sign change on [{lo}, {hi}] ({f_lo} .. {f_hi})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < xtol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def counted(solver, points):
    """``solver`` with every point it evaluates f at appended to ``points``."""
    def solve(f, *args, **kwargs):
        def g(x):
            points.append(x)
            return f(x)
        return solver(g, *args, **kwargs)
    return solve


THRESHOLD_CASES = [
    (threshold_qber, [*range(2, 201), math.inf]),
    (nqkd_gate_threshold, [*range(3, 201), 1100, 2000]),
    (nqkd_channel_threshold, range(3, 201)),
]


def test_thresholds_equal_those_of_the_former_bisection_loop(monkeypatch):
    # the same float from each threshold solve, never from more calls of its objective
    for solve, ns in THRESHOLD_CASES:
        for n in ns:
            now, former = [], []
            monkeypatch.setattr(keyrate, "bisect_root", counted(bisect_root, now))
            root = solve(n)
            monkeypatch.setattr(keyrate, "bisect_root", counted(former_bisect_root, former))
            assert root == solve(n), (solve.__name__, n)
            assert len(set(now)) == len(now) <= len(former), (solve.__name__, n)


def _random_objective(rng):
    """A monotone cubic or exponential with a random root and slope sign."""
    root, sign = rng.uniform(-1.0, 1.0), rng.choice([-1.0, 1.0])
    if rng.random() < 0.5:
        c3, c1 = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2)
        f = lambda x: sign * (c3 * (x - root) ** 3 + c1 * (x - root))  # noqa: E731
    else:
        k = 10.0 ** rng.uniform(-1, 1)
        f = lambda x: sign * math.expm1(k * (x - root))  # noqa: E731
    lo, hi = root - 10.0 ** rng.uniform(-3, 0.5), root + 10.0 ** rng.uniform(-3, 0.5)
    return f, lo, hi, 10.0 ** rng.uniform(-12, -3)


def test_bisect_root_returns_plain_bisections_float_on_random_objectives():
    rng = np.random.default_rng(29)
    for case in range(200):
        f, lo, hi, xtol = _random_objective(rng)
        points = []
        assert counted(bisect_root, points)(f, lo, hi, xtol=xtol) == former_bisect_root(f, lo, hi, xtol=xtol), case
        assert len(set(points)) == len(points), case


@pytest.mark.parametrize("f, lo, hi, xtol", [
    (lambda x: (x - 0.5) * (1.0 + 3.0 * x * x), 0.0, 1.0, 1e-9),  # a zero at the first midpoint
    (lambda x: x - 0.25, 0.0, 1.0, 1e-9),  # the first secant point: an exact zero and a later midpoint
    (lambda x: 3.0 * x - 1.0, 0.0, 1.0, 1e-12),  # exact zeros at a secant point and the float beside it
    (lambda x: np.sign(x - 0.3) * max(abs(x - 0.3) - 1e-3, 0.0), 0.0, 1.0, 1e-9),  # zero on [0.299, 0.301]
    (lambda x: x, 0.0, 1.0, 1e-9),  # a zero at an endpoint
    (lambda x: x - 1.0, 0.0, 1.0, 1e-9),
])
def test_bisect_root_edge_cases_equal_plain_bisection(f, lo, hi, xtol):
    points = []
    assert counted(bisect_root, points)(f, lo, hi, xtol=xtol) == former_bisect_root(f, lo, hi, xtol=xtol)
    assert len(set(points)) == len(points)


def test_linear_objective_takes_fewer_calls_than_plain_bisection():
    now, former = [], []
    assert counted(bisect_root, now)(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-3) == \
        counted(former_bisect_root, former)(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-3)
    # plain bisection: both ends, then one midpoint per halving of [0, 1] down to a width below 1e-3
    assert len(former) == 2 + 10
    assert len(now) < len(former) and len(set(now)) == len(now)


def test_twoqkd_conference_rate():
    ideal = twoqkd_conference_rate([0.0, 0.0], t_rep=1.0)
    assert ideal.rate == pytest.approx(1.0)
    dead = twoqkd_conference_rate([0.0, 0.126193], t_rep=1.0)
    assert abs(dead.r_inf) < 1e-5  # the weakest link kills the key
    assert dead.limiting_bob == 2
    n = 5
    shared = twoqkd_conference_rate([0.05] * (n - 1), t_rep=float(n - 1))
    assert shared.rate == pytest.approx(six_state_rate(0.05) / (n - 1), abs=1e-12)
    with pytest.raises(ValueError):
        twoqkd_conference_rate([], 1.0)


def test_gate_threshold_table_rows():
    assert nqkd_gate_threshold(3) == pytest.approx(TABLE_GATE[3], abs=2e-4)
    assert nqkd_gate_threshold(10) == pytest.approx(TABLE_GATE[10], abs=2e-4)
    values = [nqkd_gate_threshold(n) for n in range(4, 12)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        nqkd_gate_threshold(2)


def test_gate_threshold_is_the_crossover():
    n = 5
    thr = nqkd_gate_threshold(n)
    below = noisy_rate_input(n, GateNoise(thr - 1e-3), hops=2)
    above = noisy_rate_input(n, GateNoise(thr + 1e-3), hops=2)
    two_below = six_state_rate((thr - 1e-3) / 2) / (n - 1)
    two_above = six_state_rate((thr + 1e-3) / 2) / (n - 1)
    assert secret_fraction(below).r_inf > two_below
    assert secret_fraction(above).r_inf < two_above


def test_channel_threshold_properties():
    thresholds = {n: nqkd_channel_threshold(n) for n in range(3, 11)}
    for n, thr in thresholds.items():
        assert 0.0 < thr < 1.0
        # at the crossover both protocols yield the same rate
        nqkd = rate_depolarized(channel_qber(n, thr), n)
        link = 0.5 * (1 - (1 - thr) ** 2)
        assert nqkd == pytest.approx(six_state_rate(link) / (n - 1), abs=1e-7)
    # ideal-case advantage: (N-1) times the bipartite rate at zero noise
    for n in (3, 6):
        assert rate_depolarized(channel_qber(n, 0.0), n) == pytest.approx(1.0)
        assert six_state_rate(0.0) / (n - 1) == pytest.approx(1.0 / (n - 1))
    # beyond its peak the threshold decreases with N
    values = list(thresholds.values())
    peak = values.index(max(values))
    tail = values[peak:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_noisy_fractions_follow_the_noise_model_and_hops():
    for n in (2, 3, 5, 9, 30):
        for hops, lambda0 in ((1, lambda0_star), (2, lambda0_router)):
            for f in (0.0, 0.01, 0.05, 0.2):
                # channel noise yields the white-noise mixture
                nqkd, link = noisy_fractions(n, ChannelNoise(f), hops)
                assert nqkd == rate_depolarized(channel_qber(n, f), n)
                assert nqkd == pytest.approx(white_noise_closed_form(channel_qber(n, f), n), abs=CLOSED_FORM_ATOL)
                assert link == six_state_rate(0.5 * (1.0 - (1.0 - f) ** hops))
                # gate noise: the hop count picks the star or router circuit
                nqkd, link = noisy_fractions(n, GateNoise(f), hops)
                lam_plus, lam_minus = lambda0(n, f)
                inp = noisy_rate_input(n, GateNoise(f), hops)
                assert inp.q_z == 1.0 - lam_plus - lam_minus
                assert inp.q_x == 0.5 * (1.0 - (lam_plus - lam_minus))
                assert nqkd == secret_fraction(inp).r_inf
                assert link == six_state_rate(f / 2)


def _same_bits(grid, floats):
    floats = np.array(floats, dtype=float)
    assert grid.dtype == np.float64 and grid.shape == floats.shape
    assert np.array_equal(grid.view(np.int64), floats.view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 8, 40, 1100])
def test_grid_elements_match_the_float_calls_bit_for_bit(n):
    # numpy's vectorised log2 and pow differ from libm in the last place on a
    # few percent of inputs; a grid element must still be the float call's
    rng = np.random.default_rng(n)
    q = np.concatenate([[0.0, _q_max(n), 2.0 / 3.0], rng.uniform(0.0, _q_max(n), 120)])
    f = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 60), rng.uniform(0.0, 0.3, 60)])
    r_inf, r_link = sweep_fractions("Q", n, q, None)
    _same_bits(r_inf, [rate_depolarized(v, n) for v in q.tolist()])
    _same_bits(r_link, [six_state_rate(v) if v <= 2.0 / 3.0 else 0.0 for v in q.tolist()])
    for hops in (1, 2):
        for variable, model in (("f_G", GateNoise), ("f_C", ChannelNoise)):
            r_inf, r_link = sweep_fractions(variable, n, f, hops)
            floats = [noisy_fractions(n, model(v), hops) for v in f.tolist()]
            _same_bits(r_inf, [nqkd for nqkd, _ in floats])
            _same_bits(r_link, [link for _, link in floats])
    for lambda0 in (lambda0_star, lambda0_router):
        for grid, floats in zip(lambda0(n, f), zip(*(lambda0(n, v) for v in f.tolist()))):
            _same_bits(grid, floats)
    _same_bits(qab_average(n, f), [qab_average(n, v) for v in f.tolist()])
    _same_bits(channel_qber(n, f), [channel_qber(n, v) for v in f.tolist()])
    _same_bits(binary_entropy(f), [binary_entropy(v) for v in f.tolist()])
    _same_bits(six_state_rate(f * (2.0 / 3.0)), [six_state_rate(v) for v in (f * (2.0 / 3.0)).tolist()])
    # the float path stays on Python floats
    assert all(type(x) is float for x in (rate_depolarized(0.1, n), six_state_rate(0.1), qab_average(n, 0.1),
                                          *noisy_fractions(n, GateNoise(0.1), 2), *lambda0_star(n, 0.1)))


def test_large_n_limit_grid_matches_the_float_calls():
    q = np.concatenate([[0.0, 2.0 / 3.0, 1.0], np.random.default_rng(1).uniform(0.0, 1.0, 120)])
    r_inf, r_link = sweep_fractions("Q", math.inf, q, None)
    _same_bits(r_inf, [rate_depolarized(v, math.inf) for v in q.tolist()])
    _same_bits(r_link, [six_state_rate(v) if v <= 2.0 / 3.0 else 0.0 for v in q.tolist()])


def test_grid_range_errors_name_the_first_bad_value():
    with pytest.raises(ValueError, match=r"^q=0\.7 above the admissible 0\.6666666666666666 for N=2$"):
        rate_depolarized(np.array([0.1, 0.7, 0.9]), 2)
    with pytest.raises(ValueError, match=r"^f_g=1\.5 outside \[0, 1\]$"):
        GateNoise(np.array([0.5, 1.5, -1.0]))
    with pytest.raises(ValueError, match=r"^f_c=nan outside \[0, 1\]$"):
        channel_qber(3, np.array([0.5, math.nan]))
    with pytest.raises(ValueError, match=r"^p=-0\.5 outside \[0, 1\]$"):
        binary_entropy(np.array([0.0, -0.5]))


def test_edge_grids_raise_no_warnings():
    # the masked lanes, f = 0 in qab_average and x <= 0 under the log, must
    # neither divide by zero nor take a log of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 3, 40):
            sweep_fractions("Q", n, np.array([0.0, 0.5 * _q_max(n), _q_max(n)]), None)
            for hops in (1, 2):
                sweep_fractions("f_G", n, np.array([0.0, 0.5, 1.0]), hops)
                sweep_fractions("f_C", n, np.array([0.0, 0.5, 1.0]), hops)
        sweep_fractions("Q", math.inf, np.array([0.0, 1.0]), None)
        assert qab_average(3, np.array([0.0, 1.0])).tolist() == [0.0, 0.5]
        # the parity terms of estimated error rates can go negative and are clamped to 0
        _, terms = keyrate._fraction_terms(np.array([0.0, 0.2]), np.array([-0.1, 0.05]), np.array([0.0, 0.1]))
        assert terms[1].tolist() == [0.0, 0.0]
