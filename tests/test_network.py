"""Repetition times, the router fan-out verification and protocol comparison."""

import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from test_dense import partial_trace

from nqkd.cli import main
from nqkd.dense import apply_cz, apply_single_qubit, ghz_state
from nqkd.network import (
    NQKD,
    TWOQKD,
    NetworkModel,
    Node,
    butterfly_network,
    compare_rates,
    comparison_to_json,
    distribute_ghz_via_router,
    edge_loads,
    graph_flows,
    router_network,
    star_network,
)
from nqkd.keyrate import nqkd_gate_threshold
from nqkd.noise import ChannelNoise, GateNoise


def graph(nodes: dict[str, str], edges: list[tuple[str, str]]) -> NetworkModel:
    return NetworkModel(tuple(Node(i, role) for i, role in nodes.items()), tuple(edges))


def fan_network(width: int, n_bobs: int) -> NetworkModel:
    """A -> {x1..x_width} -> {B1..B_n_bobs}: multicast capacity ``width``."""
    xs = [f"x{i}" for i in range(1, width + 1)]
    bobs = [f"B{i}" for i in range(1, n_bobs + 1)]
    nodes = {"A": "alice", **dict.fromkeys(xs, "router"), **dict.fromkeys(bobs, "bob")}
    return graph(nodes, [("A", x) for x in xs] + [(x, b) for x in xs for b in bobs])


CHAIN = graph(
    {"A": "alice", "C1": "router", "C2": "router", "B1": "bob", "B2": "bob"},
    [("A", "C1"), ("C1", "C2"), ("C2", "B1"), ("C2", "B2")],
)
LINE = graph(
    {"A": "alice", "B1": "bob", "B2": "bob", "B3": "bob"},
    [("A", "B1"), ("B1", "B2"), ("B2", "B3")],
)


def test_schedule_star_router():
    assert graph_flows(router_network(3)).t_rep[NQKD] == 1.0
    assert graph_flows(router_network(3)).t_rep[TWOQKD] == 2.0
    assert graph_flows(router_network(7)).t_rep[TWOQKD] == 6.0
    assert graph_flows(star_network(7)).t_rep[NQKD] == 1.0
    assert graph_flows(star_network(7)).t_rep[TWOQKD] == 1.0


def test_schedule_butterfly():
    assert graph_flows(butterfly_network()).t_rep[NQKD] == 0.5
    assert graph_flows(butterfly_network()).t_rep[TWOQKD] == 1.0
    # multicast capacity h: h rounds per use, against r* = h/(N-1) relay
    # rounds when Alice's h out-edges are the bottleneck
    assert graph_flows(fan_network(5, 2)).t_rep[NQKD] == pytest.approx(1 / 5)
    assert graph_flows(fan_network(8, 4)).t_rep[TWOQKD] == pytest.approx(4 / 8)


def test_ideal_rate_ratios():
    for n in (3, 5, 9):
        result = compare_rates("router", None, n)
        assert result["ratio"] == pytest.approx(n - 1)
        assert result["advantage"]
    butterfly = compare_rates("butterfly", None, 3)
    assert butterfly["ratio"] == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_router_distribution_fidelity(n):
    _, report = distribute_ghz_via_router(n)
    assert report["fidelity_plus"] == pytest.approx(1.0, abs=1e-12)
    assert report["fidelity_minus"] == pytest.approx(1.0, abs=1e-12)
    assert report["fidelity_coherent"] == pytest.approx(1.0, abs=1e-12)
    assert report["probability_plus"] == pytest.approx(0.5, abs=1e-12)
    assert report["branches_agree"]


def router_report_by_density_matrices(n_parties: int) -> dict:
    """``distribute_ghz_via_router``'s report from 2^(N+1)-square density matrices:
    projectors on C, a partial trace over C, and the coherent correction as a unitary."""
    total = n_parties + 1
    dim = 1 << total
    psi = np.full(dim, 1 / math.sqrt(dim), dtype=complex)
    for q in range(1, total):
        psi = apply_cz(psi, total, 0, q)
    rho = np.outer(psi, psi.conj())
    hadamard = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    target = ghz_state(n_parties).data
    for q in range(n_parties):
        target = apply_single_qubit(target, hadamard, q, n_parties)
    flip_bob1 = np.kron(np.kron(np.eye(2), [[0, 1], [1, 0]]), np.eye(1 << (n_parties - 2)))
    rest = tuple(range(1, total))
    report, reduced = {"n_parties": n_parties}, {}
    for label, sign in (("plus", 1), ("minus", -1)):
        c = np.array([1, sign]) / math.sqrt(2)
        project = np.kron(np.outer(c, c), np.eye(dim // 2))
        branch = partial_trace(project @ rho @ project, total, rest)
        report[f"probability_{label}"] = np.trace(branch).real
        reduced[label] = branch / np.trace(branch).real
        if label == "minus":
            reduced[label] = flip_bob1 @ reduced[label] @ flip_bob1
        report[f"fidelity_{label}"] = np.vdot(target, reduced[label] @ target).real
    correct = np.kron(np.diag([1, 0]), np.eye(dim // 2)) + np.kron(np.diag([0, 1]), flip_bob1)
    unitary = correct @ np.kron(hadamard, np.eye(dim // 2))
    coherent = partial_trace(unitary @ rho @ unitary.conj().T, total, rest)
    report["fidelity_coherent"] = np.vdot(target, coherent @ target).real
    report["branches_agree"] = abs(np.trace(reduced["plus"] @ reduced["minus"]).real - 1) < 1e-12
    return report


@pytest.mark.parametrize("n", range(2, 10))
def test_router_report_equals_the_density_matrix_reference(n):
    _, report = distribute_ghz_via_router(n)
    reference = router_report_by_density_matrices(n)
    assert report.keys() == reference.keys()
    assert (report["n_parties"], report["branches_agree"]) == (n, reference["branches_agree"])
    for key in ("probability_plus", "probability_minus", "fidelity_plus", "fidelity_minus", "fidelity_coherent"):
        assert abs(report[key] - reference[key]) < 1e-12, key


def test_router_check_holds_vectors_only():
    distribute_ghz_via_router(10)  # warm up imports and caches outside the trace
    tracemalloc.start()
    try:
        distribute_ghz_via_router(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a density matrix at N=10 takes 64 MiB alone


def test_router_check_runs_to_the_dense_cap():
    _, report = distribute_ghz_via_router(11)
    assert abs(report["fidelity_coherent"] - 1.0) < 1e-12
    assert report["branches_agree"]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap of 12"):
            distribute_ghz_via_router(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the 2^13-amplitude complex vector alone takes 128 KiB


def test_router_distribution_bell_case():
    state, report = distribute_ghz_via_router(2)
    assert report["n_parties"] == 2
    # Hadamard-rotated Bell state: (|++> + |-->)/sqrt(2) = (|00> + |11>)/sqrt(2)
    target = np.zeros(4, dtype=complex)
    target[0] = target[3] = 1 / np.sqrt(2)
    assert abs(abs(np.vdot(target, state.data)) - 1.0) < 1e-12


def test_edge_loads_within_capacity():
    for n in (3, 5):
        net = router_network(n)
        for protocol in (NQKD, TWOQKD):
            loads = edge_loads(net, protocol)
            assert max(loads.values()) <= 1.0 + 1e-12
        assert edge_loads(net, NQKD)[("A", "C")] == 1.0
        assert edge_loads(net, TWOQKD)[("C", "B1")] == pytest.approx(1 / (n - 1))
    star = star_network(4)
    assert set(edge_loads(star, NQKD).values()) == {1.0}
    fly = butterfly_network()
    assert max(edge_loads(fly, NQKD).values()) <= 1.0
    two = edge_loads(fly, TWOQKD)
    assert two[("c", "d")] == 0.0
    assert two[("A", "u")] == 1.0
    with pytest.raises(ValueError, match="unknown protocol"):
        edge_loads(router_network(3), "telepathy")


def test_gate_noise_advantage_brackets_threshold():
    n = 3
    thr = nqkd_gate_threshold(n)
    below = compare_rates("router", GateNoise(thr - 5e-3), n)
    above = compare_rates("router", GateNoise(thr + 5e-3), n)
    assert below["advantage"]
    assert not above["advantage"]


def test_channel_noise_comparison_runs():
    result = compare_rates("router", ChannelNoise(0.02), 4)
    assert result["rate_nqkd"] > result["rate_twoqkd"]
    heavy = compare_rates("router", ChannelNoise(0.3), 4)
    assert not heavy["advantage"]


@pytest.mark.parametrize("topology, kind, variable", [("router", "channel", "f_C"), ("star", "gate", "f_G")])
def test_equal_rates_show_no_advantage(tmp_path, topology, kind, variable):
    # at N=2 the multipartite state is one six-state pair; on the router
    # both protocols cross the same two channels, on the star one noisy
    # gate prepares both, so the rates agree and rounding must not set the flag
    out = tmp_path / "cmp.json"
    for k in range(1, 101):
        assert main(["network", "--topology", topology, "--n", "2", "--noise", f"{kind}:{k / 1000}",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["rate_nqkd"] == pytest.approx(report["rate_twoqkd"], rel=1e-14)
        assert report["advantage"] is False
    assert main(["network", "--topology", topology, "--n", "2", "--sweep", f"{variable}:0.001:0.1:100",
                 "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 100
    assert all(row["rate_nqkd"] == pytest.approx(row["rate_2qkd"], rel=1e-14) for row in rows)
    assert not any(row["advantage"] for row in rows)


def test_rate_scaling_with_parties():
    # fixed gate noise: the multipartite rate decays with N while the
    # bipartite relay shows the 1/(N-1) bottleneck scaling
    f_g = 0.01
    nqkd_rates = []
    twoqkd_rates = []
    for n in range(3, 9):
        result = compare_rates("router", GateNoise(f_g), n)
        nqkd_rates.append(result["rate_nqkd"])
        twoqkd_rates.append(result["rate_twoqkd"])
    assert all(b < a for a, b in zip(nqkd_rates, nqkd_rates[1:]))
    for i, n in enumerate(range(3, 9)):
        assert twoqkd_rates[i] == pytest.approx(twoqkd_rates[0] * 2 / (n - 1), rel=1e-12)


def test_butterfly_comparison_requires_three_parties():
    with pytest.raises(ValueError):
        compare_rates("butterfly", None, 4)


def test_network_model_json_roundtrip():
    net = router_network(4)
    back = NetworkModel.from_json(net.to_json())
    assert back == net
    assert graph_flows(back).label == "router"
    assert back.n_parties == 4
    assert graph_flows(star_network(3)).label == "star"
    assert graph_flows(butterfly_network()).label == "butterfly"


@pytest.mark.parametrize("topology", ["star", "router"])
def test_large_comparisons_build_their_graph_in_linear_time(topology, capsys):
    # the hop search and the in-degree count are O(V+E): N=20000 takes about 0.3 s, and
    # a scan of every edge per node took 12 s on one core of a 2-vCPU x86 machine
    start = time.perf_counter()
    assert main(["network", "--topology", topology, "--n", "20000", "--noise", "gate:0.01"]) == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().out)["n_parties"] == 20000


def test_network_model_validation():
    with pytest.raises(ValueError):
        NetworkModel.from_json(
            json.dumps(
                {
                    "nodes": [{"id": "A", "role": "alice"}, {"id": "B1", "role": "bob"}],
                    "edges": [],  # unreachable bob
                }
            )
        )
    with pytest.raises(ValueError):
        NetworkModel.from_json(
            json.dumps({"nodes": [{"id": "B1", "role": "bob"}], "edges": []})
        )
    with pytest.raises(ValueError, match="duplicate edges"):
        graph({"A": "alice", "B1": "bob"}, [("A", "B1"), ("A", "B1")])
    with pytest.raises(ValueError, match="at least one bob"):
        graph({"A": "alice", "C": "router"}, [("A", "C")])


@pytest.mark.parametrize(
    "text, message",
    [
        ('[{"id": "A", "role": "alice"}]', "must be a JSON object"),
        ('{"nodes": "abc", "edges": []}', '"nodes" must be a list'),
        ('{"nodes": [{"id": "A", "role": "alice"}, {"id": "B", "role": "bob"}], "edges": [["A", "B"]]}',
         '"edges" must be a list'),
        ('{"nodes": [{"id": "A", "role": "alice"}, {"id": "B"}], "edges": []}', '"nodes" must be a list'),
    ],
    ids=["top_level_list", "nodes_string", "edges_as_pairs", "node_without_role"],
)
def test_network_graph_malformed_shape_exits_2(tmp_path, capsys, text, message):
    with pytest.raises(ValueError, match=message):
        NetworkModel.from_json(text)
    path = tmp_path / "graph.json"
    path.write_text(text)
    assert main(["network", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_network_model_rejects_unknown_roles(tmp_path, capsys):
    # a mistyped role used to drop the party from n_parties silently
    with pytest.raises(ValueError, match="Bob"):
        graph({"A": "alice", "B1": "bob", "B2": "Bob"}, [("A", "B1"), ("A", "B2")])
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "A", "role": "alice"}, {"id": "B1", "role": "bob"}, {"id": "B2", "role": "Bob"}],
        "edges": [{"from": "A", "to": "B1"}, {"from": "A", "to": "B2"}],
    }))
    assert main(["network", "--graph", str(path)]) == 2
    assert "unknown node role" in capsys.readouterr().err


def run_graph(tmp_path, net: NetworkModel, *extra: str) -> int:
    path = tmp_path / "graph.json"
    path.write_text(net.to_json())
    return main(["network", "--graph", str(path), "--out", str(tmp_path / "out.json"), *extra])


def test_chain_graph_has_one_state_per_use(tmp_path):
    # two routers in a row once read as a butterfly with t_rep 0.5
    result = compare_rates(CHAIN, None)
    assert result["nqkd"].t_rep == 1.0
    assert result["twoqkd"].t_rep == 2.0
    assert result["topology"] == "router"
    assert graph_flows(CHAIN).hops == {"B1": 3, "B2": 3}
    with pytest.raises(ValueError, match="1 or 2 hops"):
        compare_rates(CHAIN, ChannelNoise(0.02))
    assert run_graph(tmp_path, CHAIN) == 0
    assert json.loads((tmp_path / "out.json").read_text())["rate_nqkd"] == 1.0
    assert run_graph(tmp_path, CHAIN, "--noise", "channel:0.02") == 2
    assert edge_loads(CHAIN, TWOQKD) == {
        ("A", "C1"): 1.0, ("C1", "C2"): 1.0, ("C2", "B1"): 0.5, ("C2", "B2"): 0.5,
    }


def test_line_graph_relays_through_each_bob(tmp_path):
    # the line once read as a star with relay t_rep 1
    result = compare_rates(LINE, None)
    assert result["twoqkd"].t_rep == 3.0
    assert result["nqkd"].t_rep == 1.0
    assert graph_flows(LINE).hops == {"B1": 1, "B2": 2, "B3": 3}
    for noise in (GateNoise(0.01), ChannelNoise(0.02)):
        with pytest.raises(ValueError):
            compare_rates(LINE, noise)
    assert run_graph(tmp_path, LINE, "--noise", "gate:0.01") == 2
    assert run_graph(tmp_path, LINE, "--noise", "channel:0.02") == 2
    assert run_graph(tmp_path, LINE, "--sweep", "f_C:0:0.1:5") == 2


def test_router_loads_follow_the_graph_not_node_names():
    for n in (3, 5):
        net = graph(
            {"A": "alice", "R": "router", **{f"B{i}": "bob" for i in range(1, n)}},
            [("A", "R")] + [("R", f"B{i}") for i in range(1, n)],
        )
        loads = edge_loads(net, TWOQKD)
        assert loads[("A", "R")] == 1.0
        for i in range(1, n):
            assert loads[("R", f"B{i}")] == pytest.approx(1 / (n - 1))
        assert set(edge_loads(net, NQKD).values()) == {1.0}


def test_renamed_butterfly_loads_cover_exactly_its_edges():
    names = {"A": "s", "u": "left", "v": "right", "c": "mid", "d": "out", "B1": "p", "B2": "q"}
    fly = butterfly_network()
    renamed = NetworkModel(
        tuple(Node(names[n.id], n.role) for n in reversed(fly.nodes)),
        tuple((names[a], names[b]) for a, b in reversed(fly.edges)),
    )
    for protocol in (NQKD, TWOQKD):
        assert set(edge_loads(renamed, protocol)) == set(renamed.edges)
    assert set(edge_loads(renamed, NQKD).values()) == {1.0}
    assert sum(edge_loads(renamed, TWOQKD).values()) == 4.0  # two direct two-hop paths
    result = compare_rates(renamed, None)
    assert result["nqkd"].t_rep == 0.5
    assert result["twoqkd"].t_rep == 1.0
    assert result["topology"] == "butterfly"


def test_fan_graph_multicasts_three_states_per_use():
    result = compare_rates(fan_network(3, 2), None)
    assert result["nqkd"].t_rep == pytest.approx(1 / 3)
    assert result["twoqkd"].t_rep == pytest.approx(2 / 3)
    assert result["ratio"] == pytest.approx(2.0)


def cut_bounds(net: NetworkModel) -> tuple[int, float]:
    """Multicast capacity and r* by brute force over every cut that keeps Alice."""
    alice = net.alice
    others = [n.id for n in net.nodes if n.id != alice]
    bobs = {b.id for b in net.bobs()}
    multicast, relay = math.inf, math.inf
    for size in range(len(others) + 1):
        for side in itertools.combinations(others, size):
            source_side = {alice, *side}
            cut = sum(1 for a, b in net.edges if a in source_side and b not in source_side)
            cut_off = len(bobs - source_side)
            if cut_off:
                multicast = min(multicast, cut)
                relay = min(relay, cut / cut_off)
    return multicast, relay


def test_flows_match_brute_force_cuts_on_random_graphs():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 60:
        size = int(rng.integers(3, 8))
        ids = [f"n{i}" for i in range(size)]
        roles = ["alice"] + [str(rng.choice(["bob", "router"])) for _ in ids[1:]]
        pairs = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.4]
        try:
            net = graph(dict(zip(ids, roles)), pairs)
        except ValueError:
            continue  # no bob, or a bob Alice cannot reach
        checked += 1
        flows = graph_flows(net)
        multicast, relay = cut_bounds(net)
        p, q = flows.relay
        assert flows.multicast == multicast
        assert p / q == pytest.approx(relay, abs=1e-12)
        # the relay loads are a flow delivering r* to every Bob
        for protocol in (NQKD, TWOQKD):
            loads = edge_loads(net, protocol)
            assert set(loads) == set(net.edges)
            assert max(loads.values()) <= 1.0
        loads = edge_loads(net, TWOQKD)
        for node in net.nodes:
            if node.role == "alice":
                continue
            net_in = sum(l for (a, b), l in loads.items() if b == node.id) - sum(
                l for (a, b), l in loads.items() if a == node.id
            )
            assert net_in == pytest.approx(p / q if node.role == "bob" else 0.0, abs=1e-12)


def test_comparison_json():
    text = comparison_to_json(compare_rates("router", None, 3))
    obj = json.loads(text)
    assert obj["advantage"] is True
    assert obj["nqkd"]["r_inf"] == pytest.approx(1.0)
    assert obj["ratio"] == pytest.approx(2.0)
    assert math.isfinite(obj["rate_twoqkd"])
    fields = ["r_inf", "r_clamped", "rate", "t_rep", "limiting_bob", "components"]
    assert list(obj["nqkd"]) == list(obj["twoqkd"]) == fields
