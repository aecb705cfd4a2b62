"""Command-line front end: rate sweeps, threshold tables, protocol runs
and network comparisons, emitted as CSV or JSON for plotting.

Exit codes: 0 on success, 2 for usage or configuration errors, 3 for
numeric/solver failures.  Floats are printed with 9 significant digits
so identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import keyrate, network as networks, noise as noise_model, protocol as protocol_sim
from .ghz import ARRAY_BYTE_BUDGET

USAGE_ERROR = 2
NUMERIC_ERROR = 3

# Bytes a sweep holds per output row at its peak, by format: the row's floats, tuples and
# CSV text, or the JSON encoder's token strings.  Measured with tracemalloc over rates and
# network sweeps (at most 381 and 1,811 B); test_sweep_peak_memory_within_row_bytes pins them.
SWEEP_ROW_BYTES = {"csv": 400, "json": 1900}


@dataclass(frozen=True)
class SweepSpec:
    variable: str  # Q | f_G | f_C
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.variable != "Q" and self.variable not in noise_model.NOISE_SWEEPS:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"sweep bounds {self.start} and {self.stop} must be finite")
        if not self.stop > self.start >= 0.0:
            raise ValueError("sweep range must satisfy 0 <= start < stop")

    def values(self) -> list[float]:
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * step for i in range(self.steps)]


def check_sweep_budget(rows: int, fmt_name: str) -> None:
    """Raise ``ValueError`` when a sweep of ``rows`` output rows would pass ``ARRAY_BYTE_BUDGET``."""
    if (needed := rows * SWEEP_ROW_BYTES[fmt_name]) > ARRAY_BYTE_BUDGET:
        raise ValueError(f"{rows} {fmt_name} rows need about {needed} bytes, over the {ARRAY_BYTE_BUDGET}-byte budget")


def parse_sweep(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"sweep spec {text!r} is not var:start:stop:steps")
    return SweepSpec(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))


def parse_n_list(text: str, fmt_name: str, rows_per_n: int) -> list[int | float]:
    """Party counts: '3', '2,5,inf' or a range '2..8'.  ``rows_per_n`` rows per count
    pass ``check_sweep_budget`` first, each range counted and not listed."""
    chunks: list[range | list[int | float]] = []
    count = 0
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = map(int, chunk.split(".."))
            if hi < lo:
                raise ValueError(f"empty party range {chunk!r}")
            chunks.append(range(lo, hi + 1))
            count += hi + 1 - lo  # len() of a range past sys.maxsize overflows
        else:
            chunks.append([math.inf if chunk.lower() in ("inf", "infinity") else int(chunk)])
            count += 1
    check_sweep_budget(rows_per_n * count, fmt_name)
    return list(chain.from_iterable(chunks))


def parse_noise(text: str | None) -> noise_model.GateNoise | noise_model.ChannelNoise | None:
    if text is None:
        return None
    kind, _, value = text.partition(":")
    if not value:
        raise ValueError(f"noise spec {text!r} is not kind:value")
    if kind not in noise_model.NOISE_MODELS:
        raise ValueError(f"unknown noise kind {kind!r}")
    return noise_model.NOISE_MODELS[kind](float(value))


def n_label(n: int | float) -> str:
    return "inf" if isinstance(n, float) and math.isinf(n) else str(int(n))


def write_rows(path: str | None, header: list[str], rows: list, fmt_name: str) -> None:
    """Write ``rows`` as CSV, floats with 9 significant digits and anything else
    as ``str``, or as a JSON list of objects keyed by ``header``.  Every row
    holds the cell types of the first, so one format string prints them all."""
    if fmt_name == "csv":
        line = "\n" + ",".join("%.9g" if isinstance(x, float) else "%s" for x in rows[0]) if rows else ""
        text = ",".join(header) + ("".join(repeat(line, len(rows))) % tuple(chain.from_iterable(rows)))
    else:
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2)
    write_text(path, text)


def write_text(path: str | None, text: str) -> None:
    """Write ``text`` with a final newline to ``path``, or to stdout for None or "-"."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_rates(args) -> int:
    """Secret fractions and key rates over the sweep for each N, with one
    ``network.sweep_rates`` call per N over the whole grid."""
    sweep = parse_sweep(args.sweep)
    n_values = parse_n_list(args.n, args.format, sweep.steps)
    values = sweep.values()
    grid = np.array(values)
    rows = []
    for n in n_values:
        finite = not (isinstance(n, float) and math.isinf(n))
        if not finite and sweep.variable != "Q":
            raise ValueError("N=inf curves are only defined for Q sweeps")
        # an N=inf row reuses the N=3 repetition times, which is right only
        # where they do not depend on N: every Bob one hop from Alice
        flows = networks.graph_flows(networks.TOPOLOGIES[args.topology](int(n) if finite else 3))
        if not finite and set(flows.hops.values()) != {1}:
            raise ValueError("N=inf curves are only defined on the star topology")
        columns = networks.sweep_rates(flows, sweep.variable, n, grid)
        rows.extend(zip(repeat(n_label(n)), repeat(sweep.variable), values, *(c.tolist() for c in columns)))
    write_rows(args.out, ["n", "variable", "value", "r_inf", "rate_nqkd", "rate_2qkd"], rows, args.format)
    return 0


def cmd_thresholds(args) -> int:
    solve = {"qber": keyrate.threshold_qber, "gate": keyrate.nqkd_gate_threshold,
             "channel": keyrate.nqkd_channel_threshold}[args.kind]
    rows = []
    for n in parse_n_list(args.n, args.format, 1):
        if args.kind != "qber" and math.isinf(n):
            raise ValueError(f"{args.kind} thresholds need a finite N")
        rows.append([n_label(n), args.kind, solve(n)])
    write_rows(args.out, ["n", "kind", "threshold"], rows, args.format)
    return 0


def cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = protocol_sim.protocol_config_from_json(fh.read())
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    config.check_budget(args.hash_key, bool(args.transcript))
    result = protocol_sim.run_protocol(config, hash_key=args.hash_key)
    if args.transcript:
        protocol_sim.write_transcript(args.transcript, result.run)
    write_text(args.out, result.summary_json())
    return 0


def cmd_network(args) -> int:
    n_parties = None if args.n is None else int(args.n)
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            model = networks.NetworkModel.from_json(fh.read())
    else:
        model = networks.TOPOLOGIES[args.topology](3 if n_parties is None else n_parties)
    if not args.sweep:
        result = networks.compare_rates(model, parse_noise(args.noise), n_parties)
        write_text(args.out, networks.comparison_to_json(result))
        return 0
    sweep = parse_sweep(args.sweep)
    if sweep.variable == "Q":
        raise ValueError("network sweeps run over f_G or f_C")
    check_sweep_budget(sweep.steps, args.format)
    values = sweep.values()
    flows = networks.graph_flows(model, n_parties)
    _, rate_n, rate_2 = networks.sweep_rates(flows, sweep.variable, model.n_parties, np.array(values))
    rows = zip(values, rate_n.tolist(), rate_2.tolist(), networks.has_advantage(rate_n, rate_2).tolist())
    write_rows(args.out, ["f", "rate_nqkd", "rate_2qkd", "advantage"], list(rows), args.format)
    return 0


def _rates_arguments(rates: argparse.ArgumentParser) -> None:
    rates.add_argument("--sweep", required=True, help="var:start:stop:steps with var in Q, f_G, f_C")
    rates.add_argument("--n", required=True, help="party counts, e.g. 2..8 or 2,3,inf")
    rates.add_argument("--topology", default="star", choices=list(networks.TOPOLOGIES))
    rates.add_argument("--out", default="-")
    rates.add_argument("--format", default="csv", choices=["csv", "json"])


def _thresholds_arguments(thresholds: argparse.ArgumentParser) -> None:
    thresholds.add_argument("--kind", required=True, choices=["qber", "gate", "channel"])
    thresholds.add_argument("--n", required=True, help="party counts, e.g. 3..18")
    thresholds.add_argument("--out", default="-")
    thresholds.add_argument("--format", default="csv", choices=["csv", "json"])


def _simulate_arguments(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument("--config", required=True, help="JSON protocol configuration")
    simulate.add_argument("--seed", type=int, default=None, help="override the config seed")
    simulate.add_argument("--transcript", default=None, help="write JSON-lines round records here")
    simulate.add_argument("--hash-key", action="store_true", help="Toeplitz-hash the corrected key")
    simulate.add_argument("--out", default="-")


def _network_arguments(net: argparse.ArgumentParser) -> None:
    net.add_argument("--topology", default="router", choices=list(networks.TOPOLOGIES))
    net.add_argument("--graph", default=None, help="JSON network description (overrides --topology)")
    net.add_argument("--n", default=None, help="number of parties; with --graph, the count the graph must have")
    noise_or_sweep = net.add_mutually_exclusive_group()
    noise_or_sweep.add_argument("--noise", default=None, help="gate:VALUE or channel:VALUE")
    noise_or_sweep.add_argument("--sweep", default=None, help="f_G:start:stop:steps or f_C:start:stop:steps")
    net.add_argument("--out", default="-")
    net.add_argument("--format", default="csv", choices=["csv", "json"])


# name -> (help, run, add its arguments)
SUBCOMMANDS = {
    "rates": ("secret-fraction sweeps for a family of N", cmd_rates, _rates_arguments),
    "thresholds": ("solve noise thresholds per N", cmd_thresholds, _thresholds_arguments),
    "simulate": ("run the round-by-round protocol simulation", cmd_simulate, _simulate_arguments),
    "network": ("compare both protocols on a network", cmd_network, _network_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for ``nqkd command``'s arguments alone, or for ``nqkd`` with
    every subcommand when ``command`` is None.
    """
    if command is not None:
        _, run, add_arguments = SUBCOMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"nqkd {command}")
        add_arguments(parser)
        parser.set_defaults(func=run)
        return parser
    parser = argparse.ArgumentParser(
        prog="nqkd",
        description="Conference key distribution with multiparty entangled states: "
        "rates, thresholds, protocol simulation and network comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, add_arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  A known command is parsed by its own parser; an
    empty argv, an unknown command or leftover arguments go to the full
    parser, whose help and usage errors name every subcommand."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args, rest = None, argv
    if argv and argv[0] in SUBCOMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser(None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (keyrate.SolverError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
