"""Network models, repetition times computed from the graph, and the coding advantage.

Every channel carries one qubit per second, so a round's repetition time
is the number of network uses it needs.  ``graph_flows`` computes both
repetition times by max-flow: the multipartite protocol gets the multicast
capacity min_Bob maxflow(Alice -> Bob) in states per use (Ahlswede, Cai,
Li and Yeung, IEEE TIT 2000; with free classical communication also for
qubits: Kobayashi, Le Gall, Nishimura and Roetteler, ICALP 2009), the
bipartite relay r*, the largest rate every Bob gets at once by routing.
Breadth-first hop counts pick the noise model: all Bobs one hop from
Alice prepare as a star, all two hops as a router; other graphs have none.
``sweep_rates`` maps a grid of noise levels at that hop count to both
protocols' rates for every sweep; ``compare_rates`` builds the one-level report.
``distribute_ghz_via_router`` verifies the router fan-out on state
vectors, both measurement branches and a coherent correction included.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import keyrate, noise as noise_model
from .dense import DenseState, apply_cz, apply_single_qubit, check_cap, qubit_bits

NQKD = "nqkd"
TWOQKD = "2qkd"

ALICE = "alice"
BOB = "bob"
ROUTER_ROLE = "router"
ROLES = (ALICE, BOB, ROUTER_ROLE)


class Node(NamedTuple):
    id: str
    role: str


@dataclass(frozen=True)
class NetworkModel:
    """Directed graph with unit-capacity edges and party roles; ``hops``
    is derived, the breadth-first distance from Alice of each node she reaches."""

    nodes: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]
    hops: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids, roles = zip(*self.nodes) if self.nodes else ((), ())
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        unknown = sorted(set(roles) - set(ROLES))
        if unknown:
            raise ValueError(f"unknown node role(s) {unknown}; roles are {', '.join(ROLES)}")
        stray = {node for edge in self.edges for node in edge} - set(ids)
        if stray:
            raise ValueError(f"edges reference unknown node(s) {sorted(stray)}")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if roles.count(ALICE) != 1 or BOB not in roles:
            raise ValueError("network needs exactly one alice and at least one bob")
        successors: dict[str, list[str]] = {}
        for a, b in self.edges:
            successors.setdefault(a, []).append(b)
        queue = [ids[roles.index(ALICE)]]
        hops = {queue[0]: 0}
        for here in queue:
            for b in successors.get(here, ()):
                if b not in hops:
                    hops[b] = hops[here] + 1
                    queue.append(b)
        object.__setattr__(self, "hops", hops)
        unreachable = [b.id for b in self.bobs() if b.id not in hops]
        if unreachable:
            raise ValueError(f"alice cannot reach {unreachable}")

    @property
    def alice(self) -> str:
        return next(n.id for n in self.nodes if n.role == ALICE)

    def bobs(self) -> list[Node]:
        return [n for n in self.nodes if n.role == BOB]

    @property
    def n_parties(self) -> int:
        return 1 + len(self.bobs())

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [{"id": n.id, "role": n.role} for n in self.nodes],
                "edges": [{"from": a, "to": b} for a, b in self.edges],
            }
        )

    @classmethod
    def from_json(cls, text: str | dict) -> "NetworkModel":
        obj = json.loads(text) if isinstance(text, str) else text
        if not isinstance(obj, dict):
            raise ValueError("a network graph must be a JSON object with nodes and edges")
        nodes = tuple(Node(*pair) for pair in _json_pairs(obj, "nodes", "id", "role"))
        return cls(nodes, _json_pairs(obj, "edges", "from", "to"))


def _json_pairs(obj: dict, name: str, first: str, second: str) -> tuple[tuple[str, str], ...]:
    """(first, second) of each entry of ``obj[name]``, a list of objects holding both keys."""
    items = obj[name]
    if not isinstance(items, list) or not all(isinstance(i, dict) and first in i and second in i for i in items):
        raise ValueError(f'"{name}" must be a list of objects with "{first}" and "{second}"')
    return tuple((str(i[first]), str(i[second])) for i in items)


def star_network(n_parties: int) -> NetworkModel:
    nodes = [Node("A", ALICE)] + [Node(f"B{i}", BOB) for i in range(1, n_parties)]
    edges = tuple(("A", f"B{i}") for i in range(1, n_parties))
    return NetworkModel(tuple(nodes), edges)


def router_network(n_parties: int) -> NetworkModel:
    nodes = [Node("A", ALICE), Node("C", ROUTER_ROLE)]
    nodes += [Node(f"B{i}", BOB) for i in range(1, n_parties)]
    edges = [("A", "C")] + [("C", f"B{i}") for i in range(1, n_parties)]
    return NetworkModel(tuple(nodes), tuple(edges))


def butterfly_network(n_parties: int = 3) -> NetworkModel:
    """The 3-party multicast graph whose network code yields two states per use."""
    if n_parties != 3:
        raise ValueError("the butterfly comparison is defined for 3 parties")
    nodes = (Node("A", ALICE), *(Node(i, ROUTER_ROLE) for i in "uvcd"), Node("B1", BOB), Node("B2", BOB))
    edges = (("A", "u"), ("A", "v"), ("u", "B1"), ("v", "B2"), ("u", "c"), ("v", "c"), ("c", "d"),
             ("d", "B1"), ("d", "B2"))
    return NetworkModel(nodes, edges)


TOPOLOGIES = {"star": star_network, "router": router_network, "butterfly": butterfly_network}


# ---------------------------------------------------------------------------
# Flows: repetition times, edge loads and hop counts read off the graph
# ---------------------------------------------------------------------------

def _max_flow(edges, capacities, source, sink, limit: int | None = None) -> tuple[int, list[int], set]:
    """Maximum flow on integer capacities, stopping at ``limit`` if given.

    Each round grows a breadth-first tree in the residual graph (arc 2i
    is edge i, arc 2i+1 its reverse) and augments along it to every arc
    entering the sink.  Returns the value, the flow on each edge and the
    nodes last reached: a minimum cut's source side, unless ``limit`` hit.
    """
    arcs_from: dict = {}
    for i, (a, b) in enumerate(edges):
        arcs_from.setdefault(a, []).append(2 * i)
        arcs_from.setdefault(b, []).append(2 * i + 1)
    heads = [node for a, b in edges for node in (b, a)]
    residual = [c for capacity in capacities for c in (capacity, 0)]
    into_sink = [arc ^ 1 for arc in arcs_from.get(sink, ())]
    value = pushed = 0
    while value != limit:
        reached = {source: -1, sink: None}  # node -> arc that reached it; no search from the sink
        queue = [source]
        for node in queue:
            for arc in arcs_from.get(node, ()):
                if residual[arc] and heads[arc] not in reached:
                    reached[heads[arc]] = arc
                    queue.append(heads[arc])
        del reached[sink]
        for last in into_sink:
            path, node = [last], heads[last ^ 1]
            if node not in reached or not residual[last]:
                continue
            push = residual[last] if limit is None else min(residual[last], limit - value)
            while node != source:
                path.append(reached[node])
                push = min(push, residual[path[-1]])
                node = heads[path[-1] ^ 1]
            for arc in path:
                residual[arc] -= push
                residual[arc ^ 1] += push
            value += push
        if value == pushed:
            break
        pushed = value
    return value, residual[1::2], set(reached)


class GraphFlows(NamedTuple):
    """What the comparison reads off one graph: Bob hop counts, the
    multicast capacity h, r* = p/q as (p, q), the relay flow that
    delivers p to every Bob when each edge carries q, the network uses
    per round of each protocol (``t_rep``: 1/h for NQKD, q/p for 2QKD)
    and the report label."""

    hops: dict[str, int]
    multicast: int
    relay: tuple[int, int]
    relay_flow: list[int]
    t_rep: dict[str, float]
    label: str

    def common_hops(self) -> int:
        """The Bobs' common hop count; the noise models know 1 and 2 only."""
        common = set(self.hops.values())
        if len(common) != 1 or not common <= set(noise_model.PREPARATION):
            raise ValueError(f"noisy comparisons need every Bob 1 or 2 hops from Alice; hops {self.hops}")
        return common.pop()


def graph_flows(network: NetworkModel, n_parties: int | None = None) -> GraphFlows:
    """Multicast capacity, relay rate and hop counts of one graph of ``n_parties`` parties, if given.

    r* is the largest lambda with a flow delivering lambda to every Bob
    at once.  Dinkelbach's iteration finds it exactly: for lambda = p/q,
    scale the edges by q and add Bob -> sink edges of capacity p; while
    the flow does not saturate them, set lambda to the minimum cut's
    edges over the Bobs it cuts off.
    """
    if n_parties is not None and n_parties != network.n_parties:
        raise ValueError(f"the graph has {network.n_parties} parties, not {n_parties}")
    alice, edges = network.alice, network.edges
    bobs = [b.id for b in network.bobs()]
    # 1 <= h <= the edges leaving Alice or entering any Bob; each flow stops at the least h so far
    out_of_alice = sum(1 for a, _ in edges if a == alice)
    in_degree = dict.fromkeys(bobs, 0)
    for _, b in edges:
        if b in in_degree:
            in_degree[b] += 1
    multicast = min(out_of_alice, *in_degree.values())
    for bob in bobs if multicast > 1 else ():
        multicast = _max_flow(edges, [1] * len(edges), alice, bob, multicast)[0]

    # start from the smaller of two cut ratios: h, and Alice's out-edges over all Bobs
    p, q = min((multicast, 1), (out_of_alice, len(bobs)), key=lambda r: r[0] / r[1])
    relay_edges = edges + tuple((b, None) for b in bobs)  # None is the sink
    while True:
        common = math.gcd(p, q)
        p, q = p // common, q // common
        capacities = [q] * len(edges) + [p] * len(bobs)
        value, flow, reached = _max_flow(relay_edges, capacities, alice, None, p * len(bobs))
        if value == p * len(bobs):
            break
        p = sum(1 for a, b in edges if a in reached and b not in reached)
        q = sum(1 for b in bobs if b not in reached)
    hops = {b: network.hops[b] for b in bobs}
    t_rep = {NQKD: 1 / multicast, TWOQKD: q / p}
    label = "star" if set(hops.values()) == {1} else "butterfly" if multicast >= 2 else "router"
    return GraphFlows(hops, multicast, (p, q), flow[: len(edges)], t_rep, label)


def edge_loads(network: NetworkModel, protocol: str) -> dict[tuple[str, str], float]:
    """Qubits per use on each edge of the graph under the protocol's schedule.

    A multipartite load is the largest flow of h that any one Bob draws
    through the edge, since network coding shares edges; a relay load is
    the concurrent flow behind r*.  Flows never exceed the capacity.
    """
    flows, edges = graph_flows(network), network.edges
    if protocol == NQKD:
        coded = [0] * len(edges)
        for bob in flows.hops:
            flow = _max_flow(edges, [1] * len(edges), network.alice, bob, flows.multicast)[1]
            coded = list(map(max, coded, flow))
        return dict(zip(edges, map(float, coded)))
    if protocol == TWOQKD:
        return {e: f / flows.relay[1] for e, f in zip(edges, flows.relay_flow)}
    raise ValueError(f"unknown protocol {protocol!r}")


# ---------------------------------------------------------------------------
# State-vector verification of the router fan-out
# ---------------------------------------------------------------------------

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rotated_ghz_target(n_parties: int) -> np.ndarray:
    """Hadamard-on-every-qubit image of the resource state."""
    target = np.zeros(1 << n_parties, dtype=complex)
    target[0] = target[-1] = 1.0 / np.sqrt(2.0)
    for q in range(n_parties):
        target = apply_single_qubit(target, _HADAMARD, q, n_parties)
    return target


def distribute_ghz_via_router(n_parties: int) -> tuple[DenseState, dict]:
    """Run the single-use router distribution on state vectors.

    Qubit 0 is the router qubit C, qubit 1 Alice's kept qubit, qubits
    2..N the Bobs.  Alice entangles C with her qubit, sends C, the
    router entangles C with N-1 fresh qubits, measures C in X and flips
    the first Bob on the -1 outcome.  Both branches must equal the
    all-Hadamard rotation of the resource state; the same correction
    applied coherently before discarding C must agree.  The coherent
    fidelity <t| Tr_C(|psi><psi|) |t> is read as the sum over c of
    |<t|psi_c>|^2, with psi_c the half of the corrected vector where C
    is |c>, so no density matrix is formed: O(2^N) time and memory.
    """
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    check_cap(n_parties + 1)
    total = n_parties + 1
    dim = 1 << total
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)  # all qubits in |+>
    psi = apply_cz(psi, total, 0, 1)
    for bob in range(2, total):
        psi = apply_cz(psi, total, 0, bob)

    target = _rotated_ghz_target(n_parties)
    idx = np.arange(dim)
    c_bit = qubit_bits(idx, 0, total)
    report: dict = {"n_parties": n_parties}
    branches = {}
    for outcome, label in ((0, "plus"), (1, "minus")):
        # project C onto |+> or |->: amplitudes (psi_0 +- psi_1)/sqrt(2)
        sign = 1.0 if outcome == 0 else -1.0
        amp = (psi[c_bit == 0] + sign * psi[c_bit == 1]) / math.sqrt(2.0)
        prob = float(np.vdot(amp, amp).real)
        amp = amp / math.sqrt(prob)
        if outcome == 1:
            amp = apply_single_qubit(amp, _PAULI_X, 1, n_parties)  # correct Bob 1
        branches[label] = amp
        report[f"probability_{label}"] = prob
        report[f"fidelity_{label}"] = float(abs(np.vdot(target, amp)) ** 2)

    # coherent variant: apply X on Bob 1 controlled on C being |->
    coherent = apply_single_qubit(psi, _HADAMARD, 0, total)
    # now C's |1> component marks the |-> branch; controlled-X from C to Bob 1
    flip = idx ^ (1 << (total - 1 - 2))
    controlled = np.where(c_bit == 1, coherent[flip], coherent)
    halves = controlled.reshape(2, 1 << n_parties)
    report["fidelity_coherent"] = float(np.sum(np.abs(halves @ target.conj()) ** 2))
    report["branches_agree"] = bool(
        abs(abs(np.vdot(branches["plus"], branches["minus"])) - 1.0) < 1e-12
    )
    return DenseState.from_vector(branches["plus"]), report


# ---------------------------------------------------------------------------
# Protocol comparison
# ---------------------------------------------------------------------------

# Rates within this relative distance count as equal.  At N=2 both
# protocols run one six-state pair, over the same two channels on the
# router under channel noise or from the same one noisy gate on the star
# under gate noise, so their rates differ only by rounding.
ADVANTAGE_RTOL = 1e-12


def has_advantage(rate_nqkd, rate_twoqkd):
    """Whether the multipartite rate beats the relay rate beyond ``ADVANTAGE_RTOL``; floats or arrays."""
    return rate_nqkd > rate_twoqkd * (1.0 + ADVANTAGE_RTOL)


def sweep_rates(flows: GraphFlows, variable: str, n_parties: int | float, grid: np.ndarray) -> tuple:
    """The unclamped multipartite fraction and both protocols' rates over a grid of ``variable``
    (Q, f_G or f_C) at N parties, N = inf for Q only, the Bobs at the graph's common hop count."""
    hops = None if variable == "Q" else flows.common_hops()
    r_inf, r_link = keyrate.sweep_fractions(variable, n_parties, grid, hops)
    return r_inf, np.maximum(r_inf, 0.0) / flows.t_rep[NQKD], np.maximum(r_link, 0.0) / flows.t_rep[TWOQKD]


def compare_rates(
    network: NetworkModel | str,
    noise: noise_model.GateNoise | noise_model.ChannelNoise | None,
    n_parties: int | None = None,
) -> dict:
    """Key rates of both protocols on one network under one noise model.

    ``network`` is a graph or a ``TOPOLOGIES`` name built for
    ``n_parties``; ``noise`` may be None for the ideal comparison.  The
    graph's hop counts pick the gate-noise preparation.
    """
    if isinstance(network, str):
        network = TOPOLOGIES[network](n_parties)
    flows = graph_flows(network, n_parties)
    n_parties = network.n_parties
    t_nqkd = flows.t_rep[NQKD]
    t_twoqkd = flows.t_rep[TWOQKD]

    if noise is None:
        nqkd_input = keyrate.depolarized_rate_input(0.0, n_parties, t_nqkd)
        link = 0.0
    else:
        hops = flows.common_hops()
        nqkd_input = keyrate.noisy_rate_input(n_parties, noise, hops, t_nqkd)
        link = noise.link_qber(hops)

    nqkd_report = keyrate.secret_fraction(nqkd_input)
    twoqkd_report = keyrate.twoqkd_conference_rate([link] * (n_parties - 1), t_twoqkd)
    rate_n = nqkd_report.r_clamped / t_nqkd
    rate_2 = twoqkd_report.r_clamped / t_twoqkd
    return {
        "topology": flows.label,
        "n_parties": n_parties,
        "nqkd": nqkd_report,
        "twoqkd": twoqkd_report,
        "rate_nqkd": rate_n,
        "rate_twoqkd": rate_2,
        "advantage": has_advantage(rate_n, rate_2),
        "ratio": rate_n / rate_2 if rate_2 > 0 else math.inf if rate_n > 0 else math.nan,
    }


def comparison_to_json(result: dict) -> str:
    out = dict(result)
    out["nqkd"] = asdict(result["nqkd"])
    out["twoqkd"] = asdict(result["twoqkd"])
    if isinstance(out.get("ratio"), float) and not math.isfinite(out["ratio"]):
        out["ratio"] = str(out["ratio"])
    return json.dumps(out, indent=2)


__all__ = [
    "NetworkModel", "Node", "GraphFlows", "TOPOLOGIES", "NQKD", "TWOQKD",
    "star_network", "router_network", "butterfly_network", "graph_flows", "edge_loads",
    "sweep_rates", "has_advantage", "compare_rates", "comparison_to_json", "distribute_ghz_via_router",
]
