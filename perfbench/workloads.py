"""Workloads, their generated inputs, and the ops that run against nqkd.

Each workload runs its own kinds of op at full size and the other kinds
at a light size that costs little next to them.  A metric only ever
compares a workload with itself, so the light ops add coverage of
per-call costs without changing what the full-size ops measure.

The seed drives everything that varies: the simulation seeds, the
butterfly graph's node and edge order, its noise level and one extra
noise value in the oracle checks.  The program sees only the generated
config and graph files and the argv of each command.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    check_network_graph,
    check_network_sweep,
    check_oracles,
    check_postprocess,
    check_rates,
    check_summary,
    check_thresholds,
    require,
)

KINDS = ("sim.n3", "sim.n6", "sim.n20", "post", "sweep", "table", "verify")

# Every workload reports every metric, so a cycle runs one op of every kind:
# workload -> ({kind: size}, why).  Each workload runs its own kinds at full
# size and the others at a light size.
#
# Each metric is a sum over pieces: one piece per command or oracle check of
# a pass, one per simulate run length.  A piece's time is its best over the
# run, so every piece is kept short (tens of ms where the program allows)
# and runs once per cycle, many times a run.  On a shared machine whose
# speed moves by 20-40% over tens of seconds, the best of many short samples
# repeats from run to run within a few percent; the best of a few one-second
# samples does not.  That is also why the dense Born path is measured at N=6
# and not N=8: it costs about 7 ms per distinct X/Y basis string at N=8, and
# every run length that draws all 256 strings (so that the cost does not
# depend on the seed) takes about 2 s.  At N=6 all 64 strings take 40 ms.
WORKLOADS = {
    "protocol_runs": (
        {"sim.n3": "full", "sim.n6": "full", "sim.n20": "full", "post": "full",
         "sweep": "light", "table": "light", "verify": "light"},
        "simulate at N=3/6/20 (L=2e5/2e4/1e5) and --hash-key --transcript at L=2e3/6e3: "
        "the samplers, the quadratic Toeplitz hash and the per-round transcript do the work",
    ),
    "tables_oracles": (
        {"sweep": "full", "table": "full", "verify": "full",
         "sim.n3": "light", "sim.n6": "light", "sim.n20": "light", "post": "light"},
        "README sweeps and threshold tables with caches cleared, and cold dense oracle checks "
        "to N=4/8: bisection, closed forms and circuit oracles, little sampling",
    ),
}

Q = 0.1
P_ESTIMATION = 0.05
N6_ROUNDS = 2 * 10**4  # about 1000 parity rounds: all 64 basis strings, whatever the seed

SIZES = {
    "full": {
        "sim.n3": 2 * 10**5,
        "sim.n6": N6_ROUNDS,
        "sim.n20": 10**5,
        "post": (2 * 10**3, 6 * 10**3),
        "sweep": {"steps": 200, "net_steps": 100},
        # gate 19..22 is one command per N so that no piece takes 0.2 s
        "table": (("qber", "2..17,inf"), ("channel", "3..10"), ("gate", "3..18"),
                  ("gate", "19"), ("gate", "20"), ("gate", "21"), ("gate", "22")),
        # the gate-noise oracle stops at N=4: N=5 is one 0.3 s piece
        "verify": {"gate_n": (2, 4), "router_n": (2, 8), "channel_n": (2, 6)},
    },
    "light": {
        "sim.n3": 2 * 10**4,
        "sim.n6": N6_ROUNDS,
        "sim.n20": 2 * 10**4,
        "post": (10**3, 3 * 10**3),
        "sweep": {"steps": 20, "net_steps": 10},
        "table": (("qber", "2..6,inf"), ("channel", "3..5"), ("gate", "3..6")),
        "verify": {"gate_n": (2, 4), "router_n": (2, 4), "channel_n": (2, 4)},
    },
}

# Known cliffs: listed so nobody mistakes them for coverage; never run.
SKIPPED = (
    {"op": "simulate, default sampling, N=10, L=1e6", "reason": "dense Born sampling takes about 271 s"},
    {"op": "simulate, default sampling, N=12, L=1e6", "reason": "dense Born sampling takes hours"},
    {"op": "simulate --hash-key, L=1e6", "reason": "quadratic Toeplitz hash takes about 30 min"},
    {"op": "simulate, default sampling, N=8", "reason": "about 2 s per run of any length that draws all 256 basis strings; N=6 stands for it"},
    {"op": "simulate_prep_circuit, N=5 and N=6", "reason": "0.3 s and 6.7 s for one N, too long a piece to be steady"},
    {"op": "simulate_prep_circuit, N>=7", "reason": "factorial order enumeration takes 292 s at N=7"},
)

# (name, unit, better); the bounds live in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_rounds_per_s.n3", "1/s", "higher"),
    ("sim_rounds_per_s.n6", "1/s", "higher"),
    ("sim_rounds_per_s.n20", "1/s", "higher"),
    ("post_rounds_per_s", "1/s", "higher"),
    ("sweep_s", "s", "lower"),
    ("table_s", "s", "lower"),
    ("verify_s", "s", "lower"),
)

# (name, unit, better, workload whose end-to-end metric it should move)
PER_LAYER = (
    ("dense.product_basis_probabilities.calls", "count", "lower", "protocol_runs"),
    ("dense.product_basis_probabilities.self_s", "s", "lower", "protocol_runs"),
    ("ghz.dense_from_ghz_diagonal.calls", "count", "lower", "protocol_runs"),
    ("ghz.dense_from_ghz_diagonal.self_s", "s", "lower", "protocol_runs"),
    ("protocol.sample_z_bits.rounds", "count", "higher", "protocol_runs"),
    ("protocol.sample_z_bits.self_s", "s", "lower", "protocol_runs"),
    ("protocol.sample_xy_bits.rounds", "count", "higher", "protocol_runs"),
    ("protocol.sample_xy_bits.self_s", "s", "lower", "protocol_runs"),
    ("protocol.ProtocolRun.self_s", "s", "lower", "protocol_runs"),
    ("protocol.run_protocol.self_s", "s", "lower", "protocol_runs"),
    ("protocol.xy_kept_ratio", "ratio", "higher", "protocol_runs"),
    ("protocol.key_rounds_ratio", "ratio", "higher", "protocol_runs"),
    ("protocol.toeplitz_hash.bits_in", "count", "higher", "protocol_runs"),
    ("protocol.toeplitz_hash.bits_out", "count", "higher", "protocol_runs"),
    ("protocol.toeplitz_hash.self_s", "s", "lower", "protocol_runs"),
    ("protocol.toeplitz_hash.scaling_exp", "exponent", "lower", "protocol_runs"),
    ("protocol.write_transcript.records", "count", "higher", "protocol_runs"),
    ("protocol.write_transcript.bytes", "bytes", "lower", "protocol_runs"),
    ("protocol.write_transcript.self_s", "s", "lower", "protocol_runs"),
    ("keyrate.bisect_root.calls", "count", "lower", "tables_oracles"),
    ("keyrate.bisect_root.f_evals", "count", "lower", "tables_oracles"),
    ("keyrate.bisect_root.self_s", "s", "lower", "tables_oracles"),
    ("keyrate.threshold_qber.self_s", "s", "lower", "tables_oracles"),
    ("keyrate.nqkd_gate_threshold.self_s", "s", "lower", "tables_oracles"),
    ("keyrate.nqkd_channel_threshold.self_s", "s", "lower", "tables_oracles"),
    ("noise.lambda0_star.calls", "count", "lower", "tables_oracles"),
    ("noise.lambda0_star.self_s", "s", "lower", "tables_oracles"),
    ("keyrate.secret_fraction.calls", "count", "lower", "tables_oracles"),
    ("keyrate.secret_fraction.self_s", "s", "lower", "tables_oracles"),
    ("keyrate.rate_depolarized.calls", "count", "lower", "tables_oracles"),
    ("keyrate.rate_depolarized.self_s", "s", "lower", "tables_oracles"),
    ("network.compare_rates.calls", "count", "lower", "tables_oracles"),
    ("network.compare_rates.self_s", "s", "lower", "tables_oracles"),
    ("cli.main.self_s", "s", "lower", "tables_oracles"),
    ("cli.write_rows.bytes", "bytes", "lower", "tables_oracles"),
    ("cli.write_rows.self_s", "s", "lower", "tables_oracles"),
    ("noise.simulate_prep_circuit.self_s", "s", "lower", "tables_oracles"),
    ("noise.prep_circuit_output.calls", "count", "lower", "tables_oracles"),
    ("dense.apply_cnot.calls", "count", "lower", "tables_oracles"),
    ("dense.apply_cnot.self_s", "s", "lower", "tables_oracles"),
    ("dense.replace_with_mixed.calls", "count", "lower", "tables_oracles"),
    ("dense.replace_with_mixed.self_s", "s", "lower", "tables_oracles"),
    ("ghz.twirl_dense.calls", "count", "lower", "tables_oracles"),
    ("ghz.twirl_dense.self_s", "s", "lower", "tables_oracles"),
    ("network.distribute_ghz_via_router.self_s", "s", "lower", "tables_oracles"),
    ("trace.overhead_frac", "ratio", "lower", None),
)

DERIVED = ("protocol.xy_kept_ratio", "protocol.key_rounds_ratio", "protocol.toeplitz_hash.scaling_exp", "trace.overhead_frac")


class OpFailed(RuntimeError):
    """The command exited non-zero."""


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    metric: str          # the end-to-end metric its time feeds
    rounds: int = 0      # protocol rounds, for the rate metrics
    argv: tuple = ()     # nqkd command line; empty for oracle checks
    spec: dict = field(default_factory=dict)


def parse_n(text: str) -> list:
    out: list = []
    for chunk in text.split(","):
        if ".." in chunk:
            lo, hi = chunk.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(math.inf if chunk == "inf" else int(chunk))
    return out


def _butterfly(rng: random.Random) -> dict:
    nodes = [("A", "alice"), ("u", "router"), ("v", "router"), ("c", "router"),
             ("d", "router"), ("B1", "bob"), ("B2", "bob")]
    edges = [("A", "u"), ("A", "v"), ("u", "B1"), ("v", "B2"), ("u", "c"),
             ("v", "c"), ("c", "d"), ("d", "B1"), ("d", "B2")]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {"nodes": [{"id": i, "role": r} for i, r in nodes],
            "edges": [{"from": a, "to": b} for a, b in edges]}


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return str(path)


def _kind_ops(kind: str, size, workdir: Path, rng: random.Random) -> list[Op]:
    """The ops of one kind at one size, one per piece of its metric."""
    ops: list[Op] = []

    def op(name: str, metric: str, rounds: int = 0, argv: tuple = (), spec: dict | None = None) -> None:
        ops.append(Op(name, "sim" if kind.startswith("sim.") else kind, metric, rounds, argv, spec or {}))

    def config(name: str, n: int, rounds: int) -> str:
        return _write_json(workdir / f"{name}.json", {
            "n_parties": n, "n_rounds": rounds, "p_estimation": P_ESTIMATION,
            "seed": rng.randrange(2**32), "state": {"model": "depolarized", "q": Q},
        })

    if kind.startswith("sim."):
        n = int(kind[len("sim.n"):])
        argv = ("simulate", "--config", config(kind, n, size), "--out", str(workdir / f"{kind}.out"))
        op(kind, f"sim_rounds_per_s.n{n}", size, argv, {"n": n})
    elif kind == "post":
        for rounds in size:
            name = f"post.l{rounds}"
            transcript = str(workdir / f"{name}.jsonl")
            argv = ("simulate", "--config", config(name, 3, rounds), "--hash-key",
                    "--transcript", transcript, "--out", str(workdir / f"{name}.out"))
            op(name, "post_rounds_per_s", rounds, argv, {"n": 3, "transcript": transcript})
    elif kind == "sweep":
        steps, net_steps = size["steps"], size["net_steps"]
        for variable, stop, n_text, topology in (("Q", 0.35, "2..8,inf", "star"), ("f_G", 0.25, "2..8", "star"),
                                                ("f_C", 0.1, "3..8", "router")):
            name = f"sweep.rates.{variable}"
            argv = ("rates", "--sweep", f"{variable}:0:{stop}:{steps}", "--n", n_text,
                    "--topology", topology, "--out", str(workdir / f"{name}.out"))
            op(name, "sweep_s", 0, argv, {"check": "rates", "variable": variable, "n": parse_n(n_text), "steps": steps})
        name = "sweep.network.router"
        argv = ("network", "--topology", "router", "--n", "5", "--sweep", f"f_G:0:0.1:{net_steps}",
                "--out", str(workdir / f"{name}.out"))
        op(name, "sweep_s", 0, argv, {"check": "network_sweep", "n": 5, "steps": net_steps})
        name = "sweep.network.graph"
        graph = _write_json(workdir / "butterfly.json", _butterfly(rng))
        argv = ("network", "--graph", graph, "--noise", f"channel:{round(rng.uniform(0.01, 0.05), 4)}",
                "--out", str(workdir / f"{name}.out"))
        op(name, "sweep_s", 0, argv, {"check": "network_graph"})
    elif kind == "table":
        for table, n_text in size:
            name = f"table.{table}.{n_text.replace(',', '_').replace('..', '-')}"
            argv = ("thresholds", "--kind", table, "--n", n_text, "--out", str(workdir / f"{name}.out"))
            op(name, "table_s", 0, argv, {"kind": table, "n": parse_n(n_text)})
    else:
        # one piece per N of each oracle check, so that few pieces are long;
        # the noise values of one N share a piece, because the caches they
        # share would otherwise be rebuilt for each
        f_g = [0.0, 0.05, 0.1, 0.2, round(rng.uniform(0.01, 0.25), 4)]
        f_c = [0.0, 0.05, 0.2, 0.6, 1.0, round(rng.uniform(0.01, 0.9), 4)]
        for check, key, noise_values in (("gate", "gate_n", f_g), ("router", "router_n", None),
                                         ("channel", "channel_n", f_c)):
            lo, hi = size[key]
            for n in range(lo, hi + 1):
                op(f"verify.{check}.n{n}", "verify_s", 0, (), {"check": check, "n": n, "noise": noise_values})
    return ops


def build_cycle(workload: str, seed: int, cycle: int, workdir: Path, light_only: bool = False) -> list[Op]:
    """Write one cycle's input files and return its ops in run order."""
    mix, _ = WORKLOADS[workload]
    if light_only:
        mix = dict.fromkeys(KINDS, "light")
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    workdir.mkdir(parents=True, exist_ok=True)
    return [op for kind, size in mix.items() for op in _kind_ops(kind, SIZES[size][kind], workdir, rng)]


def oracle_check(spec: dict) -> dict:
    """One dense circuit oracle at one N against its closed form; returns the worst deviation."""
    import numpy as np
    from nqkd import dense, ghz, network, noise

    n = spec["n"]
    if spec["check"] == "gate":
        gate = 0.0
        for f_g in spec["noise"]:
            star = noise.simulate_prep_circuit(n, f_g, topology="star")
            router = noise.simulate_prep_circuit(n, f_g, topology="router")
            s_plus, s_minus = noise.lambda0_star(n, f_g)
            r_plus, r_minus = noise.lambda0_router(n, f_g)
            qab = ghz.qber_pairwise_all(star)
            gate = max(gate, abs(star.lam_plus[0] - s_plus), abs(star.lam_minus[0] - s_minus),
                       abs(router.lam_plus[0] - r_plus), abs(router.lam_minus[0] - r_minus),
                       float(np.abs(qab - noise.qab_average(n, f_g)).max()))
        return {"gate": float(gate)}
    if spec["check"] == "router":
        _, report = network.distribute_ghz_via_router(n)
        fidelity = max(abs(report[k] - 1.0) for k in ("fidelity_plus", "fidelity_minus", "fidelity_coherent"))
        return {"fidelity": float(fidelity), "branches_agree": bool(report["branches_agree"])}
    channel = 0.0
    for f_c in spec["noise"]:
        diag = ghz.ghz_diagonal_from_dense(noise.apply_channel_noise(dense.ghz_state(n), f_c))
        channel = max(channel, abs(ghz.qber_z(diag) - noise.channel_qber(n, f_c)))
    return {"channel": float(channel)}


def execute(op: Op):
    """Run one op; the caller times exactly this call."""
    if op.kind == "verify":
        return oracle_check(op.spec)
    from nqkd import cli

    code = cli.main(list(op.argv))
    if code != 0:
        raise OpFailed(f"{op.name}: nqkd exited with {code}")
    return None


def collect(op: Op, result) -> dict:
    """The op's output, read back after the timed call."""
    if op.kind == "verify":
        return result
    output = {"out": Path(op.argv[op.argv.index("--out") + 1]).read_bytes()}
    if op.kind == "post":
        output["transcript"] = Path(op.spec["transcript"]).read_bytes()
    return output


def digest(op: Op, output: dict) -> str:
    h = hashlib.sha256()
    if op.kind == "verify":
        h.update(json.dumps(output, sort_keys=True).encode())
    else:
        for key in sorted(output):
            h.update(key.encode() + b"\0" + output[key])
    return h.hexdigest()


def check(op: Op, output: dict, tables: dict) -> None:
    """Raise CheckFailed unless the op's output is right."""
    if op.kind == "verify":
        check_oracles(output)
        return
    text = output["out"].decode("utf-8")
    if op.kind in ("sim", "post"):
        summary = json.loads(text)
        check_summary(summary, op.spec["n"], Q)
        require(summary["ledger"]["n_rounds"] == op.rounds, "summary is for another run length")
        if op.kind == "post":
            check_postprocess(summary, output["transcript"])
    elif op.kind == "table":
        check_thresholds(op.spec["kind"], op.spec["n"], text, tables)
    elif op.spec["check"] == "rates":
        check_rates(op.spec["variable"], op.spec["n"], op.spec["steps"], text)
    elif op.spec["check"] == "network_sweep":
        check_network_sweep(op.spec["n"], op.spec["steps"], text)
    else:
        check_network_graph(text)


def metric_values(ops: list[Op], best: dict[str, float]) -> dict[str, float]:
    """End-to-end values from the best time of each op of a cycle.

    A rate is the rounds of its ops over the sum of their best times; a pass
    time is the sum of its ops' best times.  A metric with an op that never
    succeeded has no value.
    """
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.metric, []).append(op)
    values: dict[str, float] = {}
    for metric, group in groups.items():
        if all(op.name in best for op in group):
            total = sum(best[op.name] for op in group)
            rounds = sum(op.rounds for op in group)
            values[metric] = rounds / total if rounds else total
    return values


def layer_metrics(ops: list[Op], spans: dict[str, dict], outputs: dict[str, dict]) -> dict[str, float]:
    """Per-layer values of one traced cycle.

    ``spans`` maps op name to the tracer's per-target totals for that op.
    """
    values: dict[str, float] = {}
    for name, *_ in PER_LAYER:
        if name in DERIVED:
            continue
        target, _, stat = name.rpartition(".")
        values[name] = sum(spans.get(op.name, {}).get(target, {}).get(stat, 0) for op in ops)
    summaries = [json.loads(outputs[op.name]["out"]) for op in ops if op.kind in ("sim", "post") and op.name in outputs]
    kept = sum(s["estimates"]["xy_rounds_kept"] for s in summaries)
    total = sum(s["estimates"]["xy_rounds_total"] for s in summaries)
    values["protocol.xy_kept_ratio"] = kept / total if total else 0.0
    rounds = sum(s["ledger"]["n_rounds"] for s in summaries)
    values["protocol.key_rounds_ratio"] = sum(s["ledger"]["key_rounds"] for s in summaries) / rounds if rounds else 0.0
    posts = sorted((op for op in ops if op.kind == "post"), key=lambda op: op.rounds)
    hash_s = [spans.get(op.name, {}).get("protocol.toeplitz_hash", {}).get("self_s", 0.0) for op in posts]
    if len(posts) == 2 and min(hash_s) > 0.0:
        values["protocol.toeplitz_hash.scaling_exp"] = math.log(hash_s[1] / hash_s[0]) / math.log(posts[1].rounds / posts[0].rounds)
    return values

