"""Command-line interface: subcommands, formats, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nqkd
from nqkd import cli, keyrate
from nqkd.cli import main, parse_n_list, parse_noise, parse_sweep
from nqkd.ghz import ARRAY_BYTE_BUDGET
from nqkd.noise import ChannelNoise, GateNoise
from nqkd.protocol import protocol_config_from_json

TABLE_QBER_SUBSET = {2: 0.126193, 5: 0.295974, 17: 0.341045}


def run_cli(args):
    return main(args)


def test_parse_helpers():
    sweep = parse_sweep("Q:0:0.3:7")
    assert sweep.variable == "Q" and sweep.steps == 7
    assert sweep.values()[0] == 0.0
    assert sweep.values()[-1] == pytest.approx(0.3)
    assert parse_n_list("2..5", "csv", 1) == [2, 3, 4, 5]
    assert parse_n_list("2,9,inf", "csv", 1) == [2, 9, math.inf]
    assert parse_n_list("4..4", "json", 1) == [4]
    with pytest.raises(ValueError, match="5..3"):
        parse_n_list("2,5..3", "csv", 1)
    with pytest.raises(ValueError):
        parse_sweep("Q:0:0.3")
    with pytest.raises(ValueError):
        parse_sweep("W:0:0.3:5")
    with pytest.raises(ValueError):
        parse_sweep("Q:0.3:0.1:5")
    with pytest.raises(ValueError):
        parse_sweep("Q:0:0.3:1")
    assert parse_noise(None) is None
    with pytest.raises(ValueError):
        parse_noise("gate")
    assert parse_noise("gate:0.1") == GateNoise(0.1)
    assert parse_noise("channel:0.2") == ChannelNoise(0.2)
    with pytest.raises(ValueError, match="unknown noise kind 'fG'"):
        parse_noise("fG:0.1")


def test_rates_csv_crosses_zero_near_threshold(tmp_path):
    out = tmp_path / "rates.csv"
    code = run_cli(
        ["rates", "--sweep", "Q:0:0.3:301", "--n", "2,3,inf", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,variable,value,r_inf,rate_nqkd,rate_2qkd"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3 * 301
    # the N=2 curve changes sign within one grid step of the known threshold
    n2 = [(float(r[2]), float(r[3])) for r in rows if r[0] == "2"]
    crossing = [q for (q, r), (q2, r2) in zip(n2, n2[1:]) if r > 0 >= r2]
    assert len(crossing) == 1
    assert abs(crossing[0] - 0.126193) < 0.002
    inf_rows = [r for r in rows if r[0] == "inf"]
    assert len(inf_rows) == 301


def test_rates_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["rates", "--sweep", "f_G:0:0.2:50", "--n", "2..5", "--out"]
    assert run_cli(args + [str(a)]) == 0
    assert run_cli(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rates_channel_sweep_json(tmp_path):
    out = tmp_path / "rates.json"
    code = run_cli(
        [
            "rates", "--sweep", "f_C:0:0.1:5", "--n", "3",
            "--topology", "router", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["value"] == 0.0
    assert rows[0]["r_inf"] == pytest.approx(1.0)


def test_rates_reversed_party_range_exits_2(capsys):
    # a reversed range used to be dropped silently, printing only N=2
    assert run_cli(["rates", "--sweep", "Q:0:0.1:3", "--n", "2,5..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty party range" in captured.err


def test_rates_usage_errors(tmp_path, capsys):
    assert run_cli(["rates", "--sweep", "Q:0:0.3:1", "--n", "2"]) == 2
    assert run_cli(["rates", "--sweep", "f_G:0:0.2:5", "--n", "inf"]) == 2
    assert run_cli(["rates", "--sweep", "Q:0:0.95:5", "--n", "2"]) == 2  # beyond admissible Q
    capsys.readouterr()
    # a grid out of range names its first bad value, N by N and then in grid order
    for sweep, n_text, message in (
        ("Q:0:0.95:5", "2", "q=0.7124999999999999 above the admissible 0.6666666666666666 for N=2"),
        ("Q:0:0.95:5", "3,2", "q=0.95 above the admissible 0.8571428571428571 for N=3"),
        ("Q:0:1.5:5", "2..4,inf", "q=0.75 above the admissible 0.6666666666666666 for N=2"),
        ("Q:0:1.5:5", "inf", "q=1.125 outside [0, 1]"),
        ("f_G:0:1.2:5", "3", "f_g=1.2 outside [0, 1]"),
        ("f_C:0:1.5:5", "3..5", "f_c=1.125 outside [0, 1]"),
        # an infinite bound once reached the range checks as q=nan
        ("Q:0:inf:3", "3", "sweep bounds 0.0 and inf must be finite"),
        ("f_G:0:inf:3", "3", "sweep bounds 0.0 and inf must be finite"),
        ("f_C:-inf:0.1:3", "3", "sweep bounds -inf and 0.1 must be finite"),
        ("Q:nan:0.3:3", "3", "sweep bounds nan and 0.3 must be finite"),
    ):
        assert run_cli(["rates", "--sweep", sweep, "--n", n_text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sweeps_over_the_byte_budget_exit_2_before_allocating(tmp_path, monkeypatch, capsys):
    # a sweep of 10^8 rows once grew until the system killed it (exit 137);
    # with the budget at 1 MB, 10^4 rows are refused before any grid is built
    monkeypatch.setattr(cli, "ARRAY_BYTE_BUDGET", 1 << 20)
    out = tmp_path / "out.txt"
    for argv in (["rates", "--sweep", "Q:0:0.3:10000", "--n", "3"],
                 ["network", "--topology", "router", "--n", "5", "--sweep", "f_G:0:0.1:10000"],
                 # 1000 rows fit as CSV, not as JSON; 2000 steps fit for one N, not for three
                 ["rates", "--sweep", "Q:0:0.3:1000", "--n", "3", "--format", "json"],
                 ["rates", "--sweep", "f_C:0:0.1:2000", "--n", "3..5"]):
        tracemalloc.start()
        try:
            assert run_cli([*argv, "--out", str(out)]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 18
        assert "over the 1048576-byte budget" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli(["rates", "--sweep", "Q:0:0.3:1000", "--n", "3", "--out", str(out)]) == 0
    assert run_cli(["rates", "--sweep", "f_C:0:0.1:2000", "--n", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [["rates", "--sweep", "Q:0:0.3:2"], ["thresholds", "--kind", "qber"]],
                         ids=["rates", "thresholds"])
@pytest.mark.parametrize("n_range", ["2..100000000", f"2..{10**20}"])
def test_party_ranges_are_counted_before_they_are_listed(tmp_path, capsys, argv, n_range):
    # a listed party count held about 40 B, so 2..100000000 held about 4 GB before any check;
    # a range past sys.maxsize has no len() and is still a usage error
    out = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        assert run_cli([*argv, "--n", n_range, "--out", str(out)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert f"over the {ARRAY_BYTE_BUDGET}-byte budget" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_peak_memory_within_row_bytes(tmp_path):
    # SWEEP_ROW_BYTES is what the sweeps' byte budget checks; a traced sweep
    # stays under it in each format, and the widest rows sit near it
    ratios, rows = [], 4000
    for fmt in ("csv", "json"):
        for argv in (["rates", "--sweep", f"Q:0:0.3:{rows // 8}", "--n", "2..8,inf"],
                     ["rates", "--sweep", f"f_G:0:0.2:{rows}", "--n", "5"],
                     ["network", "--topology", "router", "--n", "5", "--sweep", f"f_C:0:0.3:{rows}"]):
            argv = [*argv, "--format", fmt, "--out", str(tmp_path / "out.txt")]
            assert run_cli(argv) == 0  # fills the caches a sweep keeps
            tracemalloc.start()
            try:
                assert run_cli(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            counted = rows * cli.SWEEP_ROW_BYTES[fmt]
            assert peak <= counted, argv
            ratios.append(peak / counted)
    assert max(ratios) > 0.85


# SHA-256 of the README's and the benchmark's rate sweeps, as printed before
# the sweeps were evaluated as one grid per N
RATES_SHA256 = {
    ("Q:0:0.35:200", "2..8,inf", "star", "csv"): "795c4cd17c12aab10758738fc58e7b2999a89626fe78d281b184ecada15eaa39",
    ("f_G:0:0.25:200", "2..8", "star", "csv"): "9360fe15cb854f3f73a76b1dad7a31cf82e1fce055083327a44e4d98078c3a3f",
    ("f_C:0:0.1:200", "3..8", "router", "csv"): "0d9fe32b683f74f587772112ad4ba81c8ad54e5531f9b9cb61f954fc3fdb5ae5",
    ("f_G:0:0.25:200", "2..8", "star", "json"): "2c7e8a7e1c0559064cbd067eb2089e03ac0a2466129f960ad933ddcbc5129087",
    # as printed when the Q sweeps took the white-noise closed form
    ("Q:0:0.9:200", "1100,2000", "star", "csv"): "cffdea50869f9f042a11ac6a6f4bf6761a011fd1b164f95adfbddf333ac3440b",
    # as printed since they take the general formula; JSON's full precision
    # shows its last-bit differences from the closed form
    ("Q:0:0.35:200", "2..8,inf", "star", "json"): "741a8b3a7ba3bb9574a8fab4a01de3711f73b90ca4130e05780eaf4f1607f051",
}


@pytest.mark.parametrize("spec", RATES_SHA256, ids=["-".join(spec) for spec in RATES_SHA256])
def test_rates_sweep_bytes_pinned(tmp_path, spec):
    sweep, n_text, topology, fmt = spec
    out = tmp_path / f"rates.{fmt}"
    assert run_cli(["rates", "--sweep", sweep, "--n", n_text, "--topology", topology,
                    "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RATES_SHA256[spec]


# SHA-256 of the README's network sweep and of its neighbours, and of the
# channel threshold table, as printed when each network row was its own
# comparison and the channel fraction took the white-noise closed form
NETWORK_SHA256 = {
    ("network", "--topology", "router", "--n", "5", "--sweep", "f_G:0:0.1:100"):
        "388f59267c4788c41a9010068f7018bee7e548673f5f56859bc3c9a33aebb34a",
    ("network", "--topology", "router", "--n", "4", "--sweep", "f_C:0:0.3:100"):
        "f152d22ae5f8fa50b84f8e21216c2e0d7a317515f947ebbf5b5dd73ba36f8b0d",
    ("network", "--topology", "butterfly", "--sweep", "f_G:0:0.25:100", "--format", "json"):
        "cf14d3599d9ec157da835e6e7aa6c007305c2076c892f2fdd4d820d362b68df3",
    ("thresholds", "--kind", "channel", "--n", "3..18"):
        "c39ff90baf51f121c75cc88d15e914ed918134c719904905e5e150e6b63bc3ad",
    ("thresholds", "--kind", "gate", "--n", "3..40"):
        "c4509f02aac8ca8d6b29e887d1f37ba8c1867e47468657598a129e8eecdc613a",
    # as printed when the QBER threshold bisected the white-noise closed form
    ("thresholds", "--kind", "qber", "--n", "2..40,inf"):
        "ae9c87c2ad4d8ff2b43a06a82a0a7cf7ab710e093cff2e6939873b195c4d4ef7",
}


@pytest.mark.parametrize("argv", NETWORK_SHA256, ids=["-".join(argv) for argv in NETWORK_SHA256])
def test_network_sweep_bytes_pinned(tmp_path, argv):
    out = tmp_path / "out.txt"
    assert run_cli([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NETWORK_SHA256[argv]


def test_rates_evaluate_one_grid_per_n(tmp_path, monkeypatch):
    calls = []
    rate_depolarized = keyrate.rate_depolarized

    def counted(q, n):
        calls.append((n, len(q)))
        return rate_depolarized(q, n)

    monkeypatch.setattr(keyrate, "rate_depolarized", counted)
    assert run_cli(["rates", "--sweep", "Q:0:0.3:50", "--n", "2..4,inf", "--out", str(tmp_path / "q.csv")]) == 0
    assert calls == [(2, 50), (3, 50), (4, 50), (math.inf, 50)]


def test_network_sweep_evaluates_one_grid(tmp_path, monkeypatch):
    from nqkd import network

    grids, compared = [], []
    sweep_fractions, compare_rates = keyrate.sweep_fractions, network.compare_rates

    def counted_sweep(variable, n, grid, hops):
        grids.append((variable, n, len(grid), hops))
        return sweep_fractions(variable, n, grid, hops)

    def counted_compare(*args, **kwargs):
        compared.append(args)
        return compare_rates(*args, **kwargs)

    monkeypatch.setattr(keyrate, "sweep_fractions", counted_sweep)
    monkeypatch.setattr(network, "compare_rates", counted_compare)
    assert run_cli(["network", "--topology", "router", "--n", "5", "--sweep", "f_C:0:0.2:50",
                    "--out", str(tmp_path / "net.csv")]) == 0
    assert grids == [("f_C", 5, 50, 2)] and compared == []


@pytest.mark.parametrize("topology", ["router", "butterfly"])
def test_rates_large_n_limit_needs_star(topology, capsys):
    # the N=inf rows once reused the N=3 schedule behind a bottleneck
    assert run_cli(["rates", "--sweep", "Q:0:0.3:5", "--n", "3,inf", "--topology", topology]) == 2
    assert "star" in capsys.readouterr().err


def test_rates_butterfly_needs_three_parties(tmp_path, capsys):
    out = tmp_path / "fly.csv"
    assert run_cli(["rates", "--sweep", "Q:0:0.3:5", "--n", "5", "--topology", "butterfly"]) == 2
    assert "3 parties" in capsys.readouterr().err
    assert run_cli(["rates", "--sweep", "Q:0:0.3:5", "--n", "3", "--topology", "butterfly",
                    "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().split()[1:]]
    assert float(rows[0][4]) == 2.0 and float(rows[0][5]) == 1.0  # t_rep 0.5 against 1


def test_thresholds_qber_table(tmp_path):
    out = tmp_path / "thr.csv"
    assert run_cli(["thresholds", "--kind", "qber", "--n", "2,5,17,inf", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    values = {row.split(",")[0]: float(row.split(",")[2]) for row in lines}
    for n, expected in TABLE_QBER_SUBSET.items():
        assert values[str(n)] == pytest.approx(expected, abs=1e-5)
    assert values["inf"] == pytest.approx(0.341071, abs=1e-5)


def test_thresholds_gate_and_channel(tmp_path):
    out = tmp_path / "gate.csv"
    assert run_cli(["thresholds", "--kind", "gate", "--n", "3,4", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert float(rows[0].split(",")[2]) == pytest.approx(0.0725754, abs=2e-4)
    assert float(rows[1].split(",")[2]) == pytest.approx(0.0689939, abs=2e-4)
    out2 = tmp_path / "chan.csv"
    assert run_cli(["thresholds", "--kind", "channel", "--n", "3..5", "--out", str(out2)]) == 0
    for row in out2.read_text().strip().split("\n")[1:]:
        assert 0.0 < float(row.split(",")[2]) < 1.0
    assert run_cli(["thresholds", "--kind", "gate", "--n", "2"]) == 2
    assert run_cli(["thresholds", "--kind", "gate", "--n", "inf"]) == 2


def test_thresholds_gate_far_beyond_table():
    # the compact coefficients need no 2^(N-1) pattern table; an
    # enumeration at N=40 would need 2^39 entries
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run_cli(["thresholds", "--kind", "gate", "--n", "3..40"]) == 0
    rows = buf.getvalue().strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(3, 41))
    values = [float(row.split(",")[2]) for row in rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0725754, abs=2e-4)
    assert values[-1] == pytest.approx(0.0112871, abs=2e-4)


@pytest.mark.parametrize("kind, variable", [("gate", "f_G"), ("channel", "f_C")])
def test_thresholds_are_where_router_rates_cross(capsys, kind, variable):
    # the solvers hold the router's facts (Bobs two hops out, one use
    # against N-1); the rates rows take them from the graph's schedules
    assert run_cli(["thresholds", "--kind", kind, "--n", "3..8", "--format", "json"]) == 0
    thresholds = {int(row["n"]): row["threshold"] for row in json.loads(capsys.readouterr().out)}
    delta = 1e-5
    for n, threshold in thresholds.items():
        sweep = f"{variable}:{threshold - delta}:{threshold + delta}:2"
        assert run_cli(["rates", "--sweep", sweep, "--n", str(n), "--topology", "router", "--format", "json"]) == 0
        below, above = json.loads(capsys.readouterr().out)
        assert below["rate_nqkd"] > below["rate_2qkd"]
        assert above["rate_nqkd"] < above["rate_2qkd"]


def test_channel_noise_at_large_n_does_not_overflow(capsys):
    # the white-noise ratios used to go through 2.0**N and exit 3 past N=1023
    assert run_cli(["rates", "--sweep", "f_C:0:0.1:3", "--n", "2000", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["value"] for row in rows] == [0.0, 0.05, 0.1]
    assert rows[0]["r_inf"] == pytest.approx(1.0) and rows[0]["rate_2qkd"] == pytest.approx(1.0)
    assert rows[-1]["rate_nqkd"] == 0.0 and rows[-1]["r_inf"] < 0.0

    assert run_cli(["thresholds", "--kind", "channel", "--n", "60,2000", "--format", "json"]) == 0
    at_60, at_2000 = (row["threshold"] for row in json.loads(capsys.readouterr().out))
    assert 0.0 < at_2000 < at_60

    assert run_cli(["network", "--topology", "star", "--n", "1100", "--noise", "channel:0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_parties"] == 1100 and report["rate_nqkd"] == 0.0 and report["advantage"] is False


def test_gate_noise_at_large_n_does_not_overflow(capsys):
    # the gate-failure coefficients used to be products of big-integer binomials
    # converted to float, which exited 3 from N=1100 on
    assert run_cli(["thresholds", "--kind", "gate", "--n", "1100,2000"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1100,gate,0.000435919569", "2000,gate,0.000239999102"]

    assert run_cli(["network", "--topology", "star", "--n", "1100", "--noise", "gate:0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_parties"] == 1100 and report["rate_nqkd"] == 0.0 and report["advantage"] is False


def test_simulate_reproducible_summary(tmp_path):
    config = {
        "n_parties": 3,
        "n_rounds": 20000,
        "p_estimation": 0.05,
        "seed": 7,
        "state": {"model": "depolarized", "q": 0.1},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    summary = json.loads(out_a.read_text())
    used = summary["estimates"]["z_rounds_used"]  # about 1,000 announced rounds
    assert abs(summary["estimates"]["q_z"] - 0.1) < 3.0 * math.sqrt(0.1 * 0.9 / used)
    assert summary["key_length_estimate"] > 0

    transcript = tmp_path / "t.jsonl"
    assert run_cli(
        ["simulate", "--config", str(cfg), "--transcript", str(transcript), "--out", str(out_a)]
    ) == 0
    with transcript.open() as fh:
        assert sum(1 for _ in fh) == 20000


def test_simulate_seed_override_changes_output(tmp_path):
    config = {
        "n_parties": 3,
        "n_rounds": 5000,
        "state": {"model": "depolarized", "q": 0.1},
        "seed": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(out_b)]) == 0
    assert json.loads(out_a.read_text())["estimates"] != json.loads(out_b.read_text())["estimates"]


def test_successive_calls_share_no_parsed_state(tmp_path):
    # the parser is built once; a --seed given to one call must not reach the next
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": 3, "n_rounds": 2000, "seed": 1, "state": {"model": "pure_ghz"}}))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(out_a)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert json.loads(out_a.read_text())["seed"] == 5
    assert json.loads(out_b.read_text())["seed"] == 1


def test_simulate_above_threshold_flags_zero_key(tmp_path):
    # as test_run_protocol_above_threshold_clamps_to_zero: r_inf < 0 holds
    # 3.9 sd out at q = 0.25 and L = 8e4
    config = {
        "n_parties": 3,
        "n_rounds": 80000,
        "seed": 5,
        "state": {"model": "depolarized", "q": 0.25},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "summary.json"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["key_length_estimate"] == 0.0
    assert summary["secret_fraction"] < 0.0


def test_simulate_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(["simulate", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_parties": 3, "n_rounds": 0, "state": {"model": "pure_ghz"}}))
    assert run_cli(["simulate", "--config", str(bad)]) == 2


GOOD_CONFIG = {"n_parties": 3, "n_rounds": 1000, "state": {"model": "depolarized", "q": 0.1}}


@pytest.mark.parametrize(
    "config, message, seed_args",
    [
        ({**GOOD_CONFIG, "announced_z_rounds": 10.5}, "announced_z_rounds must be an integer", []),
        ({**GOOD_CONFIG, "announced_z_rounds": -5}, "announced_z_rounds must be a non-negative integer", []),
        ({**GOOD_CONFIG, "state": "depolarized"}, "state must be a JSON object", []),
        ([GOOD_CONFIG], "a protocol config must be a JSON object", []),
        ({**GOOD_CONFIG, "n_parties": 3.7}, "n_parties must be an integer", []),
        ({**GOOD_CONFIG, "state": {"model": "depolarized", "q": 0.1, "lambda_plus": [1]}}, "lambda_plus", []),
        ({**GOOD_CONFIG, "p_estimation": None}, "p_estimation must be a number", []),
        ({**GOOD_CONFIG, "state": {"model": "ghz_diagonal", "lambda_plus": {"a": 1}, "lambda_minus": [0, 0, 0, 0]}},
         "arrays of numbers", []),
        ({**GOOD_CONFIG, "state": {"model": "ghz_diagonal", "lambda_plus": [None, 1, 0, 0], "lambda_minus": [0, 0, 0, 0]}},
         "arrays of numbers", []),
        ({**GOOD_CONFIG, "state": {"model": "ghz_diagonal", "lambda_plus": [math.nan, 0, 0, 0],
                                   "lambda_minus": [0, 0, 0, 0]}},
         "coefficients sum to nan", []),
        # --seed used to be written into the parsed JSON before its shape was checked (exit 1)
        ([1, 2], "a protocol config must be a JSON object", ["--seed", "5"]),
        ("abc", "a protocol config must be a JSON object", ["--seed", "5"]),
        ("abc", "a protocol config must be a JSON object", []),
    ],
    ids=["fractional_announced", "negative_announced", "state_string", "top_level_list",
         "fractional_n_parties", "unknown_state_key", "null_p_estimation", "lambda_object", "lambda_null",
         "lambda_nan", "list_with_seed", "string_with_seed", "top_level_string"],
)
def test_simulate_malformed_config_shape_exits_2(tmp_path, capsys, config, message, seed_args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(cfg)] + seed_args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "config, message",
    [
        ({**GOOD_CONFIG, "announced_z_rounds": 0}, "error: no announced Z rounds"),
        # at p = 1e-4 no round of 50 is a parity round, so none has an even Y count
        ({"n_parties": 3, "n_rounds": 50, "p_estimation": 0.0001, "seed": 1, "announced_z_rounds": 10,
          "state": {"model": "depolarized", "q": 0.1}}, "error: no parity rounds with an even Y count"),
    ],
    ids=["no_announced_z_rounds", "no_kept_parity_rounds"],
)
def test_simulate_estimation_errors_exit_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == message
    assert not (tmp_path / "s.json").exists()


def test_simulate_accepts_integral_float_counts(tmp_path):
    # 1e4 is how a JSON writer may spell an integer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**GOOD_CONFIG, "n_rounds": 1e4, "seed": 3.0}))
    out = tmp_path / "summary.json"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["n_rounds"] == 10000 and summary["seed"] == 3


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    config = {
        "n_parties": 3,
        "n_rounds": 1000,
        "state": {"model": "depolarized", "q": 0.1},
        "sampling": "dense",
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(cfg)]) == 2
    assert "sampling" in capsys.readouterr().err


def test_simulate_rejects_removed_shards_key(tmp_path, capsys):
    config = {"n_parties": 3, "n_rounds": 1000, "state": {"model": "pure_ghz"}, "shards": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(cfg)]) == 2
    assert "shards" in capsys.readouterr().err


def test_simulate_asymmetric_state_above_dense_cap(tmp_path):
    # N=14 exceeds the 12-qubit dense cap: the explicit GhzDiagonalState path runs without a dense matrix
    n = 14
    half = 1 << (n - 1)
    bob1, bob5 = 1 << (n - 2), 1 << (n - 6)
    lam_plus, lam_minus = [0.0] * half, [0.0] * half
    lam_plus[0], lam_minus[bob1], lam_minus[bob5] = 0.55, 0.25, 0.2
    config = {
        "n_parties": n,
        "n_rounds": 20000,
        "seed": 3,
        "state": {"model": "ghz_diagonal", "lambda_plus": lam_plus, "lambda_minus": lam_minus},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "summary.json"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    estimates = json.loads(out.read_text())["estimates"]
    assert estimates["n_plus"] + estimates["n_minus"] == estimates["xy_rounds_kept"] > 0
    used = estimates["z_rounds_used"]
    for bob, q_ab in enumerate(estimates["q_ab"], start=1):
        expected = {1: 0.25, 5: 0.2}.get(bob, 0.0)
        assert abs(q_ab - expected) <= 3.0 * math.sqrt(expected * (1 - expected) / used)


@pytest.mark.parametrize("n", [40, 2000, 20000])
def test_simulate_at_large_n_exits_0(tmp_path, n):
    # N=40 asked for a 4 TiB array and N=2000 overflowed 2.0**N before the weight-class states;
    # at N=20000 most class shares are subnormal or zero
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": n, "n_rounds": 1000, "seed": 4, "state": {"model": "depolarized", "q": 0.1}}))
    out = tmp_path / "summary.json"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    estimates = json.loads(out.read_text())["estimates"]
    assert len(estimates["q_ab"]) == n - 1
    assert estimates["z_rounds_used"] > 0 and 0.0 < estimates["q_z"] < 0.3


def test_simulate_over_the_byte_budget_exits_2_before_allocating(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # 2.5 x 10^6 parity rounds hold their 2000 basis bits each while their components are drawn, about 5 GB
    cfg.write_text(json.dumps({"n_parties": 2000, "n_rounds": 5 * 10**7, "state": {"model": "depolarized", "q": 0.1}}))
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_simulate_counts_the_whole_run_against_the_budget(tmp_path, capsys):
    # N=3, L=3e9 holds about 1.7 bytes per round (Alice's packed Z bits, the announced
    # rows' bitmap, and the parity and announced rounds), 5.1 GB in all; such a run used to die in
    # ProtocolRun with an allocation error (exit 1) instead of exiting 2 before allocating
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": 3, "n_rounds": 3 * 10**9, "state": {"model": "depolarized", "q": 0.1}}))
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_simulate_counts_the_hash_against_the_budget(tmp_path, capsys):
    # N=3, L=1e8 holds about 170 MB without --hash-key; the hash of its key
    # needs about 74 B per round more, so the run exits 2 before sampling
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": 3, "n_rounds": 10**8, "state": {"model": "depolarized", "q": 0.1}}))
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", str(cfg), "--hash-key", "--out", str(tmp_path / "s.json")]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert "budget" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_simulate_counts_the_transcript_against_the_budget(tmp_path, capsys):
    # N=3, L=1e9 holds about 1.7 GB without a transcript; the writer draws
    # N + 2 bytes per round more, so the command exits 2 before sampling
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": 3, "n_rounds": 10**9, "state": {"model": "depolarized", "q": 0.1}}))
    config = protocol_config_from_json(cfg.read_text())  # the run alone fits
    assert config.peak_bytes() < ARRAY_BYTE_BUDGET < config.peak_bytes(transcript=True)
    transcript, out = tmp_path / "t.jsonl", tmp_path / "s.json"
    tracemalloc.start()
    try:
        assert run_cli(["simulate", "--config", str(cfg), "--transcript", str(transcript), "--out", str(out)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 22
    assert "with a transcript" in capsys.readouterr().err
    assert not transcript.exists() and not out.exists()


def _simulate_peak_kb(tmp_path, n, n_rounds) -> tuple[int, dict]:
    """VmHWM (kB) of a child process that runs ``simulate`` once, and the summary it wrote."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_parties": n, "n_rounds": n_rounds, "seed": 2, "state": {"model": "depolarized", "q": 0.1}}))
    src = str(Path(nqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # the child reports its own VmHWM: the ru_maxrss that os.wait4 returns
    # can carry the high-water mark of the process that started it
    report = ("import sys\nfrom nqkd.cli import main\nstatus = main(sys.argv[1:])\n"
              "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
              "sys.exit(status)")
    child = subprocess.run([sys.executable, "-c", report, "simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "s.json")], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    name, kilobytes, unit = child.stdout.split()
    assert name == "VmHWM:" and unit == "kB"
    return int(kilobytes), json.loads((tmp_path / "s.json").read_text())


def test_simulate_large_run_peak_memory(tmp_path):
    # N=64, L=1e6 once held a 64 MB outcome matrix, one (L, N) layout at a time
    kilobytes, summary = _simulate_peak_kb(tmp_path, 64, 10**6)
    assert kilobytes < 150 * 1024
    assert len(summary["estimates"]["q_ab"]) == 63


def test_simulate_writes_only_the_announced_rows(tmp_path):
    # without --transcript the Bobs' Z bits are written only on the announced
    # rounds: N=200, L=1e6 peaked at 251 MB with the whole 200 x 10^6 matrix
    kilobytes, summary = _simulate_peak_kb(tmp_path, 200, 10**6)
    assert kilobytes < 80 * 1024
    assert len(summary["estimates"]["q_ab"]) == 199


def test_simulate_hash_rounding_failure_exits_3(tmp_path, monkeypatch):
    import numpy as np

    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    config = {"n_parties": 3, "n_rounds": 4000, "seed": 6, "state": {"model": "depolarized", "q": 0.05}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["simulate", "--config", str(cfg), "--hash-key", "--out", str(tmp_path / "s.json")]) == 3


def test_network_comparison_advantage_flags(tmp_path):
    out = tmp_path / "net.json"
    assert run_cli(
        ["network", "--topology", "router", "--n", "3", "--noise", "gate:0.05", "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["advantage"] is True
    assert run_cli(
        ["network", "--topology", "router", "--n", "3", "--noise", "gate:0.10", "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["advantage"] is False
    assert run_cli(["network", "--topology", "butterfly", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ratio"] == pytest.approx(2.0)


def test_network_graph_file_and_sweep(tmp_path):
    from nqkd.network import router_network

    graph = tmp_path / "graph.json"
    graph.write_text(router_network(4).to_json())
    out = tmp_path / "cmp.json"
    assert run_cli(["network", "--graph", str(graph), "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["n_parties"] == 4
    assert obj["ratio"] == pytest.approx(3.0)

    sweep_out = tmp_path / "sweep.csv"
    assert run_cli(
        [
            "network", "--topology", "router", "--n", "3",
            "--sweep", "f_G:0:0.12:13", "--out", str(sweep_out),
        ]
    ) == 0
    lines = sweep_out.read_text().strip().split("\n")
    assert lines[0] == "f,rate_nqkd,rate_2qkd,advantage"
    flags = [row.split(",")[3] for row in lines[1:]]
    assert flags[0] == "True" and flags[-1] == "False"
    assert run_cli(["network", "--topology", "router", "--n", "3", "--sweep", "Q:0:0.1:5"]) == 2


def test_network_graph_file_checks_party_count(tmp_path, capsys):
    from nqkd.network import router_network

    graph = tmp_path / "graph.json"
    graph.write_text(router_network(3).to_json())
    base = ["network", "--graph", str(graph)]
    for extra in ([], ["--noise", "gate:0.05"], ["--sweep", "f_C:0:0.1:3"]):
        assert run_cli(base + ["--n", "7"] + extra) == 2
        assert "the graph has 3 parties, not 7" in capsys.readouterr().err
        assert run_cli(base + ["--n", "3"] + extra + ["--out", str(tmp_path / "out.txt")]) == 0


@pytest.mark.parametrize("argv", [
    ["--help"], ["rates", "--help"], ["thresholds", "--help"], ["simulate", "--help"], ["network", "--help"],
    ["bogus"], [],
    ["simulate", "--config", "x", "--bogus"], ["thresholds", "--kind", "qber", "--n", "3", "--extra"],
    ["simulate"], ["thresholds", "--kind", "bad", "--n", "3"], ["simulate", "--seed", "abc", "--config", "x"],
    ["network", "--noise", "gate:0.1", "--sweep", "f_G:0:0.1:3"],
    ["simulate", "--", "--config", "x"], ["simulate", "--config", "x", "-h"],
], ids=[
    "help", "rates", "thresholds", "simulate", "network", "invalid_choice", "no_command",
    "unrecognized_simulate", "unrecognized_thresholds", "missing_required", "bad_choice", "bad_type",
    "exclusive", "double_dash", "late_help",
])
def test_main_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    # main parses a known command with that command's parser alone; its help
    # and usage errors read as those of the parser with every subcommand
    from nqkd.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    printed = []
    for run in (lambda: main(argv), lambda: build_parser(None).parse_args(argv)):
        with pytest.raises(SystemExit) as exit_info:
            run()
        printed.append((exit_info.value.code, capsys.readouterr()))
    assert printed[0] == printed[1] and "usage: nqkd" in printed[0][1].out + printed[0][1].err
    if argv[1:] == ["--help"]:
        assert "--out" in printed[0][1].out


def test_a_known_command_builds_one_parser(monkeypatch, tmp_path):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["thresholds", "--kind", "qber", "--n", "3", "--out", str(tmp_path / "t.csv")]) == 0
    assert built == ["nqkd thresholds"]


def test_network_noise_and_sweep_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["network", "--topology", "router", "--n", "3", "--noise", "gate:0.05", "--sweep", "f_G:0:0.1:3"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_numeric_failures_exit_three(monkeypatch):
    import nqkd.cli as cli
    from nqkd.keyrate import SolverError

    def boom(*args, **kwargs):
        raise SolverError("no crossover")

    monkeypatch.setattr(cli.keyrate, "nqkd_gate_threshold", boom)
    assert run_cli(["thresholds", "--kind", "gate", "--n", "3"]) == 3
