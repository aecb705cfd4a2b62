"""Noise models: imperfect two-qubit gates and depolarising transmission.

Two layers live side by side:

* closed-form coefficient / error-rate formulas (``lambda0_star``,
  ``lambda0_router``, ``qab_average``, ``channel_qber``), the only path
  the rates and thresholds take, O(N) time at most.  Each takes a noise
  level or a 1-D float64 grid of them, and a grid element has the bits
  of the float call (``power``, ``outside`` and the ``f_G = 0`` limit of
  ``qab_average`` tell the two apart);
* brute-force circuit oracles on dense density matrices
  (``simulate_prep_circuit``, ``apply_channel_noise``) that recompute
  the same numbers for small N from the dense gates alone: the
  gate-noise oracle sums every failure pattern in every gate order, by
  one recursion over the set of Bobs already gated.

The tests hold the two layers (and an enumeration of every gate-failure
pattern, and of every pattern and order through ``prep_circuit_output``)
in agreement; no production path compares them at runtime.

The gate model: a two-qubit gate fails with probability ``f_G``, in
which case the two processed qubits are traced out and replaced by the
maximally mixed state.  The resource state is built by entangling
qubit 0 (in |+>) with each Bob qubit (in |0>) via controlled-NOTs, in a
random order.  In the router variant one extra such gate acts before
the fan-out and only degrades the parity coherence, not the Z
statistics.  ``PREPARATION`` maps the Bobs' hop count to the circuit,
and each model's ``link_qber`` gives the QBER of a bipartite relay link.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import DenseState, apply_cnot, check_cap, replace_with_mixed
from .ghz import GhzDiagonalState, WeightClassState, binomial_shares, twirled_coefficients

STAR = "star"
ROUTER = "router"
PREPARATION = {1: STAR, 2: ROUTER}  # gate-noise circuit by the Bobs' hop count from Alice


# ---------------------------------------------------------------------------
# A noise level or a grid of them
# ---------------------------------------------------------------------------

def power(x, exponent: int):
    """x ** exponent; a grid takes the float call's pow of each element, since
    numpy's vectorised pow differs from libm in the last place on some inputs."""
    if type(x) is np.ndarray:
        return np.fromiter(map(pow, x.tolist(), itertools.repeat(exponent)), float, x.size)
    return x ** exponent


def outside(value, lo: float, hi: float):
    """``value``, or a grid's first element in grid order, that is not in
    [lo, hi], NaN included; None when every one is in it."""
    if type(value) is np.ndarray:
        inside = (lo <= value) & (value <= hi)
        return None if inside.all() else value[inside.argmin()].item()
    return None if lo <= value <= hi else value


@dataclass(frozen=True)
class GateNoise:
    """Two-qubit gate failure probability, or a grid of them."""

    f_g: float | np.ndarray
    sweep_name = "f_G"  # the variable of a sweep over this model (not a field)

    def __post_init__(self):
        if (bad := outside(self.f_g, 0.0, 1.0)) is not None:
            raise ValueError(f"f_g={bad} outside [0, 1]")

    def link_qber(self, hops: int) -> float:
        """QBER f_G/2 of a six-state link whose pair is prepared by one noisy gate, at any hop count."""
        return 0.5 * self.f_g


@dataclass(frozen=True)
class ChannelNoise:
    """Per-transmission depolarisation probability, or a grid of them."""

    f_c: float | np.ndarray
    sweep_name = "f_C"

    def __post_init__(self):
        if (bad := outside(self.f_c, 0.0, 1.0)) is not None:
            raise ValueError(f"f_c={bad} outside [0, 1]")

    def link_qber(self, hops: int) -> float:
        """QBER (1 - (1-f_C)^hops)/2 of a six-state link whose Bob is ``hops`` channels from Alice."""
        return 0.5 * (1.0 - power(1.0 - self.f_c, hops))


NOISE_MODELS = {"gate": GateNoise, "channel": ChannelNoise}  # by --noise kind
NOISE_SWEEPS = {model.sweep_name: model for model in NOISE_MODELS.values()}  # by sweep variable


# ---------------------------------------------------------------------------
# White-noise mixture
# ---------------------------------------------------------------------------

def white_noise_q_max(n_parties: int) -> float:
    """Largest Z error rate (2^N - 2)/(2^N - 1) of the white-noise mixture, in powers 2^-N."""
    return (1.0 - 2.0 ** (1 - n_parties)) / (1.0 - 2.0 ** -n_parties)


def depolarized_state(n_parties: int, q: float) -> WeightClassState:
    """Mixture of the resource state with white noise, at Z error rate ``q``.

    lambda_0^+ = 1 - q (2^N - 1)/(2^N - 2) and all other coefficients
    equal q/(2^N - 2), so that ``qber_z`` of the result is exactly ``q``.
    Weight class w holds C(N-1, w) of them.  Every ratio is written in
    powers 2^-N, which do not overflow at large N.
    """
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    q_max = white_noise_q_max(n_parties)
    if not 0.0 <= q <= q_max:
        raise ValueError(f"q={q} outside [0, {q_max}] for N={n_parties}")
    noise = q * binomial_shares(n_parties) / (2.0 - 2.0 ** (2 - n_parties))  # q C(N-1, w)/(2^N - 2)
    plus = noise.copy()
    plus[0] = 1.0 - q * (1.0 - 2.0 ** -n_parties) / (1.0 - 2.0 ** (1 - n_parties))
    return WeightClassState(n_parties, plus, noise)


# ---------------------------------------------------------------------------
# Gate-failure combinatorics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GatePattern:
    """Success/failure pattern of the N-1 preparation gates."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("empty pattern")
        if set(self.bits) - {0, 1}:
            raise ValueError("pattern bits must be 0 or 1")

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def probability(self, f_g: float) -> float:
        w = self.weight
        return f_g ** (len(self.bits) - w) * (1.0 - f_g) ** w


def lambda0_star(n_parties: int, f_g: float) -> tuple[float, float]:
    """(lambda_0^+, lambda_0^-) of the gate-noise preparation circuit.

    A pattern of N-1 gate outcomes, extended by one trailing success,
    contributes its probability times 2^-b, with b = (maximal runs of
    successes) + (failures); lambda_0^- sums this over every pattern
    with a failure, and lambda_0^+ adds the all-success term (1-f)^(N-1).
    The sum runs over the gates in order, with three running totals:
    patterns of successes only, patterns ending in a success after a
    failure, and patterns ending in a failure.  Every failure and every
    new run of successes halves the weight.  O(N) time and O(1) memory.
    """
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    if (bad := outside(f_g, 0.0, 1.0)) is not None:
        raise ValueError(f"f_g={bad} outside [0, 1]")
    succeed, half_fail = 1.0 - f_g, f_g / 2
    pure, success, failure = succeed / 2, 0.0, half_fail
    for _ in range(n_parties - 2):
        pure, success, failure = (pure * succeed, (success + failure / 2) * succeed,
                                  (pure + success + failure) * half_fail)
    lam_minus = success + failure / 2  # the trailing success starts a new run after a failure
    return power(succeed, n_parties - 1) + lam_minus, lam_minus


def lambda0_router(n_parties: int, f_g: float) -> tuple[float, float]:
    """(lambda_0^+, lambda_0^-) when one extra noisy gate precedes the fan-out.

    The router variant has the same qber_z as the star circuit; only the
    coherence lambda_0^+ - lambda_0^- shrinks, by a factor (1 - f_G).
    """
    lam_plus, lam_minus = lambda0_star(n_parties, f_g)
    both = 0.5 * f_g * (lam_plus + lam_minus)
    return (1.0 - f_g) * lam_plus + both, (1.0 - f_g) * lam_minus + both


def qab_average(n_parties: int, f_g: float) -> float:
    """Per-Bob disagreement probability, averaged over random gate orders.

    Closed form of the mean of (1 - (1-f_G)^k)/2 over k = 1..N-1; the
    ``f_g == 0`` singularity of the ratio form is the limit 0.
    """
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    if (bad := outside(f_g, 0.0, 1.0)) is not None:
        raise ValueError(f"f_g={bad} outside [0, 1]")
    if type(f_g) is np.ndarray:
        # the f_G = 0 lanes divide by 1 instead of 0 and then take the limit
        at_zero = f_g == 0.0
        return np.where(at_zero, 0.0, _qab_ratio(n_parties, np.where(at_zero, 1.0, f_g)))
    return 0.0 if f_g == 0.0 else _qab_ratio(n_parties, f_g)


def _qab_ratio(n_parties: int, f_g):
    return (power(1.0 - f_g, n_parties) + f_g * n_parties - 1.0) / (2.0 * f_g * (n_parties - 1))


# ---------------------------------------------------------------------------
# Transmission noise
# ---------------------------------------------------------------------------

def channel_qber(n_parties: int, f_c: float) -> float:
    """Z error rate after N depolarising transmissions at probability ``f_c``."""
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    if (bad := outside(f_c, 0.0, 1.0)) is not None:
        raise ValueError(f"f_c={bad} outside [0, 1]")
    # (2^N - 2)/2^N written as 1 - 2^(1-N), which does not overflow at large N
    return (1.0 - 2.0 ** (1 - n_parties)) * (1.0 - power(1.0 - f_c, n_parties))


def apply_channel_noise(state: DenseState, f_c: float) -> DenseState:
    """Dense counterpart of ``channel_qber``.

    Each of the N transmissions leaves the joint state intact with
    probability 1 - f_C and otherwise depolarises it completely; the
    composition is (1-f_C)^N rho + (1 - (1-f_C)^N) I/2^N.  Mixing only
    the travelling qubit instead would give an all-agree probability of
    (1-f/2)^N + (f/2)^N, which disagrees with ``channel_qber`` for
    N >= 3, so that is not the modelled channel.
    """
    if not 0.0 <= f_c <= 1.0:
        raise ValueError(f"f_c={f_c} outside [0, 1]")
    n = state.n_qubits
    check_cap(n)
    survive = (1.0 - f_c) ** n
    rho = survive * state.density() + (1.0 - survive) * np.eye(1 << n) / (1 << n)
    return DenseState.from_matrix(rho)


# ---------------------------------------------------------------------------
# Circuit oracle
# ---------------------------------------------------------------------------

def _initial_density(n_parties: int, alice: str) -> np.ndarray:
    """|alice><alice| on qubit 0, |0> on every Bob qubit, as a real matrix."""
    dim = 1 << n_parties
    rho = np.zeros((dim, dim))
    step = 1 << (n_parties - 1)
    if alice == "plus":
        rho[0, 0] = rho[0, step] = rho[step, 0] = rho[step, step] = 0.5
    elif alice == "mixed":
        rho[0, 0] = rho[step, step] = 0.5
    else:
        raise ValueError(f"unknown initial Alice state {alice!r}")
    return rho


def prep_circuit_output(
    n_parties: int,
    pattern: GatePattern,
    order: tuple[int, ...] | None = None,
    alice: str = "plus",
) -> DenseState:
    """Run the preparation circuit for one fixed success/failure pattern.

    ``pattern.bits[i-1]`` decides whether the gate targeting Bob ``i``
    succeeds; ``order`` lists the Bobs in execution order (default 1..N-1).
    """
    check_cap(n_parties)
    if len(pattern.bits) != n_parties - 1:
        raise ValueError(f"pattern needs {n_parties - 1} bits")
    if order is None:
        order = tuple(range(1, n_parties))
    if sorted(order) != list(range(1, n_parties)):
        raise ValueError(f"order {order} is not a permutation of 1..{n_parties - 1}")
    rho = _initial_density(n_parties, alice)
    for bob in order:
        if pattern.bits[bob - 1]:
            rho = apply_cnot(rho, n_parties, 0, bob)
        else:
            rho = replace_with_mixed(rho, n_parties, (0, bob))
    return DenseState.from_matrix(rho)


@lru_cache(maxsize=None)
def _pattern_tables(n_parties: int, alice: str) -> tuple[np.ndarray, np.ndarray]:
    """Order-averaged, twirled coefficient tables per success count.

    Returns two arrays of shape (N-1+1, 2^(N-1)): entry [w, j] is the
    sum over all patterns with w successes (averaged over all gate
    orders) of the twirled lambda_j^{+/-}.  Gate-failure probabilities
    only enter through w, so these tables are reused across all f_G.

    The sum is built by one recursion over the set S of Bobs already
    gated: ``layer[S][w]`` is the dense state after the gates on S, with
    w successes, summed over every order of S.  Gating one more Bob k
    sends it to S+{k} with w+1 (CNOT) or w (both qubits replaced by the
    maximally mixed state).  Every step and the twirled coefficient read
    are linear, so the full set's sums divided by (N-1)! are the order
    averages, read once per w.  Only two sizes of S are held at once:
    C(N-1, |S|) (|S|+1) dense matrices each, real ones, since the
    initial states, CNOTs and failures have real entries.
    """
    n_gates = n_parties - 1
    dim = 1 << n_parties
    layer = {0: _initial_density(n_parties, alice)[None]}  # bit k-1 of a key: Bob k gated
    for size in range(1, n_parties):
        grown = {}
        for gated, by_weight in layer.items():
            for bob in range(1, n_parties):
                bit = 1 << (bob - 1)
                if gated & bit:
                    continue
                if (sums := grown.get(gated | bit)) is None:
                    sums = grown[gated | bit] = np.zeros((size + 1, dim, dim))
                for w, rho in enumerate(by_weight):
                    sums[w + 1] += apply_cnot(rho, n_parties, 0, bob)
                    sums[w] += replace_with_mixed(rho, n_parties, (0, bob))
        layer = grown
    (by_weight,) = layer.values()
    by_weight /= math.factorial(n_gates)
    plus = np.empty((n_gates + 1, 1 << n_gates))
    minus = np.empty((n_gates + 1, 1 << n_gates))
    for w, rho in enumerate(by_weight):
        plus[w], minus[w] = twirled_coefficients(rho)
    return plus, minus


def simulate_prep_circuit(n_parties: int, f_g: float, topology: str = STAR) -> GhzDiagonalState:
    """Brute-force gate-noise oracle.

    All 2^(N-1) gate patterns are summed, weighted by their
    probabilities and averaged over every gate order, and the sum's
    twirled coefficients are returned; ``prep_circuit_output`` gives the
    dense output of one pattern in one order.  ``_pattern_tables`` reaches the
    same sums with one pair of dense gates per (set of gated Bobs, next
    Bob, success count), N (N-1) 2^(N-3) pairs in all, instead of one
    circuit per pattern and order.  Each gate is O(4^N), so the oracle
    is capped at N=7: one initial state's real float64 sums peak at 20 MiB
    there and 159 MiB at N=8 (tracemalloc), and take about 0.08 s and 1.1 s
    on one core of a 2-vCPU x86 machine.  The closed forms cover every N.
    """
    if not 0.0 <= f_g <= 1.0:
        raise ValueError(f"f_g={f_g} outside [0, 1]")
    if topology not in (STAR, ROUTER):
        raise ValueError(f"unknown topology {topology!r}")
    if n_parties < 2:
        raise ValueError("need at least 2 parties")
    if n_parties > 7:
        raise ValueError("the dense gate-noise oracle is capped at N=7; use the closed forms beyond")
    n_gates = n_parties - 1
    w = np.arange(n_gates + 1)
    weight_probs = f_g ** (n_gates - w) * (1.0 - f_g) ** w
    plus_tab, minus_tab = _pattern_tables(n_parties, "plus")
    lam_plus = weight_probs @ plus_tab
    lam_minus = weight_probs @ minus_tab
    if topology == ROUTER:
        plus_mix, minus_mix = _pattern_tables(n_parties, "mixed")
        lam_plus = (1.0 - f_g) * lam_plus + f_g * (weight_probs @ plus_mix)
        lam_minus = (1.0 - f_g) * lam_minus + f_g * (weight_probs @ minus_mix)
    return GhzDiagonalState(n_parties, np.maximum(lam_plus, 0.0), np.maximum(lam_minus, 0.0))
