"""Correctness checks on the outputs of benchmark ops.

They run outside the timed section of each op.  Reference values come
from closed forms written out here, independently of ``nqkd``, and from
the tables pinned in ``tests/test_acceptance.py``, which are read from
that file rather than copied.
"""

from __future__ import annotations

import ast
import json
import math
from pathlib import Path

# Two-sided tail mass of a 5-sigma normal band.  The band is wider than
# the tests' 3 sigma because a run checks hundreds of seeded estimates.
FIVE_SIGMA_TAIL = 5.733031437583879e-07
TABLE_TOL = 1e-5
GATE_TABLE_TOL = 2e-4
ORACLE_TOL = 1e-10
FIDELITY_TOL = 1e-12
CSV_TOL = 1e-8  # the CLI prints 9 significant digits


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_pinned_tables(test_file: Path) -> dict:
    """THRESHOLD_TABLE, THRESHOLD_INF and GATE_TABLE from the acceptance tests."""
    wanted = {"THRESHOLD_TABLE", "THRESHOLD_INF", "GATE_TABLE"}
    found = {}
    for node in ast.parse(test_file.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                found[name] = ast.literal_eval(node.value)
    missing = wanted - set(found)
    if missing:
        raise ValueError(f"{test_file} lacks {sorted(missing)}")
    return found


# ---------------------------------------------------------------------------
# Independent closed forms
# ---------------------------------------------------------------------------

def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def h2(p: float) -> float:
    return -_xlog2x(p) - _xlog2x(1.0 - p)


def depolarized_error_rates(q: float, n: int) -> tuple[float, float]:
    """(Q_X, Q_AB) of the white-noise mixture with Z error rate q."""
    return 2.0 ** (n - 2) / (2.0 ** (n - 1) - 1.0) * q, 2.0 ** (n - 1) / (2.0 ** n - 2.0) * q


def reference_rate(q: float, n: float) -> float:
    """Secret fraction of the white-noise mixture, from the general formula."""
    if math.isinf(n):
        return 1.0 - h2(q / 2.0) - q
    q_x, q_ab = depolarized_error_rates(q, int(n))
    return (
        _xlog2x(1.0 - q / 2.0 - q_x)
        + _xlog2x(q_x - q / 2.0)
        + (1.0 - q) * (1.0 - math.log2(1.0 - q))
        - h2(q_ab)
    )


def six_state(q: float) -> float:
    return 1.0 - h2(1.5 * q) - 1.5 * math.log2(3.0) * q


def channel_q(n: int, f_c: float) -> float:
    return (2.0 ** n - 2.0) / 2.0 ** n * (1.0 - (1.0 - f_c) ** n)


# ---------------------------------------------------------------------------
# Binomial bands
# ---------------------------------------------------------------------------

def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binomial_consistent(k: int, n: int, p: float, tail: float = FIVE_SIGMA_TAIL) -> bool:
    """False when k successes of n lie outside the exact two-sided band.

    The tail beyond k is summed outwards until it exceeds tail/2 (k is
    inside) or its terms stop mattering (k is outside).
    """
    if n == 0:
        return True
    step = 1 if k >= n * p else -1
    pmf = math.exp(_log_pmf(k, n, p))
    mass = 0.0
    j = k
    ratio = p / (1.0 - p)
    while 0 <= j <= n:
        mass += pmf
        if mass > tail / 2.0:
            return True
        if pmf < 1e-300 or (pmf < mass * 1e-12 and pmf > 0.0):
            break
        if step > 0:
            pmf *= (n - j) / (j + 1) * ratio
        else:
            pmf *= j / (n - j + 1) / ratio
        j += step
    return False


def check_summary(summary: dict, n: int, q: float) -> None:
    """Estimates of a depolarized-state run against the analytic rates."""
    est = summary["estimates"]
    ledger = summary["ledger"]
    q_x, q_ab = depolarized_error_rates(q, n)
    z_used = est["z_rounds_used"]
    kept = est["xy_rounds_kept"]
    require(est["n_plus"] + est["n_minus"] == kept, "n_plus + n_minus != xy_rounds_kept")
    bands = [
        ("Q_Z", round(est["q_z"] * z_used), z_used, q),
        ("Q_X", est["n_minus"], kept, q_x),
        ("kept", kept, est["xy_rounds_total"], 0.5),
    ]
    bands += [(f"Q_AB_{i + 1}", round(v * z_used), z_used, q_ab) for i, v in enumerate(est["q_ab"])]
    for name, k, count, p in bands:
        require(binomial_consistent(k, count, p), f"{name}: {k}/{count} outside the 5-sigma band of {p}")
    require(len(est["q_ab"]) == n - 1, "wrong number of per-Bob error rates")
    require(
        summary["key_length_estimate"] == ledger["key_rounds"] * summary["secret_fraction_clamped"],
        "key_length_estimate != key_rounds * r_clamped",
    )


def check_postprocess(summary: dict, transcript: bytes) -> None:
    ledger = summary["ledger"]
    require(
        summary["hashed_key_bits"] == math.floor(summary["key_length_estimate"]),
        "hashed_key_bits != floor(key_length_estimate)",
    )
    require(transcript.count(b"\n") == ledger["n_rounds"], "transcript line count != n_rounds")
    require(
        transcript.count(b'"type": "XY"') == ledger["second_type_rounds"],
        "XY records != second_type_rounds",
    )


# ---------------------------------------------------------------------------
# Tables and sweeps
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _n_value(label: str) -> float:
    return math.inf if label == "inf" else int(label)


def check_thresholds(kind: str, n_values: list, text: str, tables: dict) -> None:
    header, rows = parse_csv(text)
    require(header == ["n", "kind", "threshold"], f"threshold header {header}")
    require([_n_value(r[0]) for r in rows] == n_values, "threshold rows do not match the requested N")
    values = [float(r[2]) for r in rows]
    for n, value in zip(n_values, values):
        require(0.0 < value < 1.0, f"{kind} threshold {value} at N={n} outside (0, 1)")
        if kind == "qber":
            expected = tables["THRESHOLD_INF"] if math.isinf(n) else tables["THRESHOLD_TABLE"].get(n)
            if expected is not None:
                require(abs(value - expected) <= TABLE_TOL, f"qber threshold N={n}: {value} vs {expected}")
        elif kind == "gate":
            gate = tables["GATE_TABLE"]
            if n in gate:
                require(abs(value - gate[n]) <= GATE_TABLE_TOL, f"gate threshold N={n}: {value} vs {gate[n]}")
            else:
                # beyond the pinned table the threshold keeps falling with N
                require(n > max(gate) and value < gate[max(gate)], f"gate threshold N={n}: {value}")
        else:
            gap = reference_rate(channel_q(n, value), n) - six_state(0.5 * (1.0 - (1.0 - value) ** 2)) / (n - 1)
            require(abs(gap) <= 1e-7, f"channel threshold N={n}: rate gap {gap} at {value}")
    if kind == "gate":
        require(all(b < a for a, b in zip(values, values[1:])), "gate thresholds not decreasing in N")


def check_rates(variable: str, n_values: list, steps: int, text: str) -> None:
    header, rows = parse_csv(text)
    require(header == ["n", "variable", "value", "r_inf", "rate_nqkd", "rate_2qkd"], f"rates header {header}")
    require(len(rows) == len(n_values) * steps, f"{len(rows)} rate rows, expected {len(n_values) * steps}")
    for row in rows:
        n, value, r_inf = _n_value(row[0]), float(row[2]), float(row[3])
        if variable == "Q":
            expected = reference_rate(value, n)
        elif variable == "f_C":
            expected = reference_rate(channel_q(n, value), n)
        elif value == 0.0:
            expected = 1.0
        else:
            continue
        require(abs(r_inf - expected) <= CSV_TOL, f"{variable}={value} N={row[0]}: r_inf {r_inf} vs {expected}")


def check_network_sweep(n: int, steps: int, text: str) -> None:
    header, rows = parse_csv(text)
    require(header == ["f", "rate_nqkd", "rate_2qkd", "advantage"], f"network header {header}")
    require(len(rows) == steps, f"{len(rows)} network rows, expected {steps}")
    for row in rows:
        rate_n, rate_2 = float(row[1]), float(row[2])
        if abs(rate_n - rate_2) > CSV_TOL:  # printed digits cannot order closer rates
            require(row[3] == str(rate_n > rate_2), f"advantage flag {row[3]} at f={row[0]}")
    ideal_n, ideal_2 = float(rows[0][1]), float(rows[0][2])
    require(abs(ideal_n / ideal_2 - (n - 1)) <= CSV_TOL * (n - 1), "ideal router ratio is not N-1")


def check_network_graph(text: str) -> None:
    report = json.loads(text)
    require(report["topology"] == "butterfly" and report["n_parties"] == 3, "graph not read as the butterfly")
    require(report["nqkd"]["t_rep"] == 0.5 and report["twoqkd"]["t_rep"] == 1.0, "butterfly schedules")
    require(
        abs(report["rate_nqkd"] - report["nqkd"]["r_clamped"] / 0.5) <= 1e-12,
        "butterfly rate is not r / t_rep",
    )


def check_oracles(worst: dict) -> None:
    """Worst deviations of one oracle check; each check reports its own keys."""
    if "gate" in worst:
        require(worst["gate"] <= ORACLE_TOL, f"gate-noise oracle deviates by {worst['gate']}")
    if "channel" in worst:
        require(worst["channel"] <= ORACLE_TOL, f"channel-noise oracle deviates by {worst['channel']}")
    if "fidelity" in worst:
        require(worst["fidelity"] <= FIDELITY_TOL, f"router fidelity deviates by {worst['fidelity']}")
        require(worst["branches_agree"], "router branches disagree")
    require(worst.keys() & {"gate", "channel", "fidelity"}, "the oracle check reported nothing")
