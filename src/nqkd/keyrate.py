"""Asymptotic secret fractions, key rates and noise thresholds.

The general rate takes the measured error rates (Q_Z, Q_X, per-Bob
Q_AB_i) of a symmetrised state and charges the worst Bob for error
correction.

The bipartite baseline runs one six-state link per Bob and relays a
one-time-padded conference key, so its rate is the slowest link's rate
divided by the rounds the network needs.

``noisy_error_rates`` is the one map from a noise model and the Bobs' hop
count to multipartite error rates, and ``_fraction_terms`` the one formula
from error rates to a secret fraction, for gate and channel noise alike;
the sweeps, both noise threshold solvers (through ``noisy_fractions``) and
the single-point network report (through ``noisy_rate_input``) read them.
The white-noise Q sweeps and the QBER threshold take the same formula at
the mixture's error rates, N -> infinity included (``rate_depolarized``);
the tests keep the mixture's closed form in (Q, N) as their reference.

The formulas take a noise level or error rate, or a 1-D float64 grid of
them, and each grid element has the bits of the float call.  Every
sweep evaluates its whole grid at once for each N (``sweep_fractions``);
the solvers and the single-point report evaluate floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import noise as noise_model

SIX_STATE_SLOPE = 1.5 * math.log2(3.0)


class SolverError(ArithmeticError):
    """A root bracket could not be established or refined."""


def _log2_each(x: np.ndarray) -> np.ndarray:
    """log2 of each element of a positive grid, with the float call's bits:
    numpy's vectorised log2 differs from libm in the last place on some inputs."""
    return np.fromiter(map(math.log2, x.tolist()), float, x.size)


def _log2(x):
    """log2 x, and 0 for x <= 0."""
    if type(x) is np.ndarray:
        return _log2_each(np.where(x > 0.0, x, 1.0))  # log2 1 = 0
    return math.log2(x) if x > 0.0 else 0.0


def _xlog2x(x):
    """x log2 x, continuously extended by 0 for x <= 0."""
    if type(x) is np.ndarray:
        x = np.where(x > 0.0, x, 1.0)  # 1 log2 1 = 0 stands in for x <= 0
        return x * _log2_each(x)
    return x * math.log2(x) if x > 0.0 else 0.0


def binary_entropy(p):
    """Binary Shannon entropy h(p) in bits, with h(0) = h(1) = 0."""
    if (bad := noise_model.outside(p, 0.0, 1.0)) is not None:
        raise ValueError(f"p={bad} outside [0, 1]")
    return _entropy(p)


def _entropy(p):
    """h(p) for a p that its caller has kept inside [0, 1]."""
    return -_xlog2x(p) - _xlog2x(1.0 - p)


@dataclass(frozen=True)
class RateInput:
    """Measured error rates feeding the secret-fraction formula."""

    q_z: float
    q_x: float
    q_ab: tuple[float, ...]
    n_parties: int
    t_rep: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "q_ab", tuple(float(q) for q in self.q_ab))
        for name, value in (("q_z", self.q_z), ("q_x", self.q_x), *(("q_ab", q) for q in self.q_ab)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if len(self.q_ab) != self.n_parties - 1:
            raise ValueError(f"need {self.n_parties - 1} per-Bob error rates")
        if self.t_rep <= 0.0:
            raise ValueError("t_rep must be positive")


@dataclass(frozen=True)
class RateReport:
    """Secret fraction, key rate and the summands that produced them."""

    r_inf: float
    r_clamped: float
    rate: float
    t_rep: float
    limiting_bob: int | None = None
    components: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


TERM_NAMES = ("parity_plus_term", "parity_minus_term", "z_agreement_term", "error_correction_term")


def _fraction_terms(q_z, q_x, q_ab) -> tuple:
    """The secret fraction and its four summands (``TERM_NAMES``), the worst
    Bob erring at ``q_ab``; floats or grids.

    The two parity log terms take arguments 1 - Q_Z/2 - Q_X and
    Q_X - Q_Z/2; statistical estimates may push those slightly negative,
    in which case the term is clamped to its continuous limit 0.
    """
    terms = (
        _xlog2x(1.0 - q_z / 2.0 - q_x),
        _xlog2x(q_x - q_z / 2.0),
        (1.0 - q_z) * (1.0 - _log2(1.0 - q_z)),
        -_entropy(q_ab),
    )
    return terms[0] + terms[1] + terms[2] + terms[3], terms


def secret_fraction(inp: RateInput) -> RateReport:
    """Asymptotic secret fraction from measured error rates.

    Negative fractions are reported as-is, with ``r_clamped`` for key
    accounting, and the rate is ``r_inf / t_rep``.
    """
    worst = max(range(len(inp.q_ab)), key=lambda i: inp.q_ab[i])
    r_inf, terms = _fraction_terms(inp.q_z, inp.q_x, inp.q_ab[worst])
    components = dict(zip(TERM_NAMES, terms))
    return RateReport(
        r_inf=r_inf,
        r_clamped=max(r_inf, 0.0),
        rate=r_inf / inp.t_rep,
        t_rep=inp.t_rep,
        components=components,
        limiting_bob=worst + 1,
    )


def depolarized_error_rates(q, n_parties: int) -> tuple:
    """(Q_Z, Q_X, Q_AB) of the white-noise mixture at Z error rate ``q``: Q_X and
    every Q_AB are q 2^(N-2)/(2^(N-1)-1), written so that large N cannot overflow."""
    q_x = 0.5 / (1.0 - 2.0 ** (1 - n_parties)) * q
    return q, q_x, q_x


def depolarized_rate_input(q: float, n_parties: int, t_rep: float = 1.0) -> RateInput:
    """``RateInput`` of the white-noise mixture at Z error rate ``q``."""
    q_z, q_x, q_ab = depolarized_error_rates(q, n_parties)
    return RateInput(q_z, q_x, (q_ab,) * (n_parties - 1), n_parties, t_rep)


def rate_depolarized(q, n_parties: int | float):
    """Secret fraction of the white-noise mixture at Z error rate ``q``: the general
    formula at ``depolarized_error_rates``.  ``n_parties`` may be ``math.inf``, where
    ``q`` may reach 1; a finite N admits ``q`` up to ``noise.white_noise_q_max``."""
    finite = not math.isinf(n_parties)
    if finite and (n_parties := int(n_parties)) < 2:
        raise ValueError("need at least 2 parties")
    q_max = noise_model.white_noise_q_max(n_parties) if finite else 1.0
    if (bad := noise_model.outside(q, 0.0, q_max + 1e-15 if finite else q_max)) is not None:
        above = f"above the admissible {q_max} for N={n_parties}" if finite else "outside [0, 1]"
        raise ValueError(f"q={bad} is negative" if bad < 0.0 else f"q={bad} {above}")
    return _fraction_terms(*depolarized_error_rates(q, n_parties))[0]


def six_state_rate(q):
    """Bipartite six-state secret fraction 1 - h(3Q/2) - (3 log2 3 / 2) Q."""
    if (bad := noise_model.outside(q, 0.0, 2.0 / 3.0)) is not None:
        raise ValueError(f"q={bad} outside [0, 2/3]")
    return 1.0 - _entropy(1.5 * q) - SIX_STATE_SLOPE * q


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-9, max_iter: int = 200) -> float:
    """Bracketed bisection; raises SolverError without a sign change."""
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


def threshold_qber(n_parties: int | float) -> float:
    """Largest Z error rate with a positive white-noise-mixture rate."""
    return bisect_root(lambda q: rate_depolarized(q, n_parties), 1e-9, 0.45, xtol=1e-9)


def twoqkd_conference_rate(q_links: list[float] | tuple[float, ...], t_rep: float) -> RateReport:
    """Conference rate of the bipartite relay protocol.

    Each Bob runs a six-state link with Alice; the one-time-pad relay of
    the conference key makes the slowest link binding.
    """
    if len(q_links) == 0:
        raise ValueError("need at least one link")
    if t_rep <= 0.0:
        raise ValueError("t_rep must be positive")
    rates = [six_state_rate(q) for q in q_links]
    worst = min(range(len(rates)), key=lambda i: rates[i])
    r_inf = rates[worst]
    return RateReport(
        r_inf=r_inf,
        r_clamped=max(r_inf, 0.0),
        rate=r_inf / t_rep,
        t_rep=t_rep,
        components={f"link_{i + 1}": r for i, r in enumerate(rates)},
        limiting_bob=worst + 1,
    )


def noisy_error_rates(n_parties: int, noise: noise_model.GateNoise | noise_model.ChannelNoise,
                      hops: int) -> tuple:
    """(Q_Z, Q_X, Q_AB) under gate or channel noise, every Bob ``hops`` channels
    from Alice and erring alike; a noise model holding a grid gives grids.

    Gate noise runs the preparation circuit ``noise.PREPARATION`` assigns
    to the hop count; channel noise yields the white-noise mixture.
    """
    if isinstance(noise, noise_model.ChannelNoise):
        return depolarized_error_rates(noise_model.channel_qber(n_parties, noise.f_c), n_parties)
    router = noise_model.PREPARATION[hops] == noise_model.ROUTER
    lam_plus, lam_minus = (noise_model.lambda0_router if router else noise_model.lambda0_star)(n_parties, noise.f_g)
    q_z = 1.0 - lam_plus - lam_minus
    q_x = 0.5 * (1.0 - (lam_plus - lam_minus))
    return q_z, q_x, noise_model.qab_average(n_parties, noise.f_g)


def noisy_rate_input(n_parties: int, noise: noise_model.GateNoise | noise_model.ChannelNoise, hops: int,
                     t_rep: float = 1.0) -> RateInput:
    """``RateInput`` of ``noisy_error_rates`` for one noise level."""
    q_z, q_x, q_ab = noisy_error_rates(n_parties, noise, hops)
    return RateInput(q_z, q_x, (q_ab,) * (n_parties - 1), n_parties, t_rep)


def noisy_fractions(n_parties: int, noise: noise_model.GateNoise | noise_model.ChannelNoise,
                    hops: int) -> tuple:
    """Unclamped secret fractions of the multipartite protocol, the general formula
    at ``noisy_error_rates``, and of one relay link, for either noise model."""
    return _fraction_terms(*noisy_error_rates(n_parties, noise, hops))[0], six_state_rate(noise.link_qber(hops))


def sweep_fractions(variable: str, n_parties: int | float, grid: np.ndarray, hops: int | None) -> tuple:
    """Unclamped multipartite and relay-link secret fractions over a grid of
    ``variable`` (Q, f_G or f_C) at one N, as two arrays.

    A Q sweep pits the white-noise mixture against six-state links at the
    same error rate, and ``n_parties`` may be ``math.inf``; a noise sweep
    puts every Bob ``hops`` channels from Alice.
    """
    if variable != "Q":
        return noisy_fractions(int(n_parties), noise_model.NOISE_SWEEPS[variable](grid), hops)
    r_inf = rate_depolarized(grid, n_parties)
    # a link error beyond the six-state domain carries no key anyway
    return r_inf, np.where(grid <= 2.0 / 3.0, six_state_rate(np.minimum(grid, 2.0 / 3.0)), 0.0)


def _router_gap(level: float, n_parties: int, noise: type) -> float:
    """Multipartite minus relay secret fraction per use of the router network at
    noise ``level``: every Bob two hops out, one use per multipartite state against N-1."""
    if n_parties < 3:
        raise ValueError("need at least 3 parties for the comparison")
    nqkd, link = noisy_fractions(n_parties, noise(level), 2)
    return nqkd - link / (n_parties - 1)


def nqkd_gate_threshold(n_parties: int) -> float:
    """Gate failure probability at which the router's multipartite advantage
    vanishes; each relay link is prepared by one noisy gate (QBER f_G/2)."""
    return bisect_root(partial(_router_gap, n_parties=n_parties, noise=noise_model.GateNoise), 1e-9, 0.5, xtol=1e-7)


def nqkd_channel_threshold(n_parties: int) -> float:
    """Transmission noise level at which the router's multipartite advantage
    vanishes; each relay link crosses two channels (QBER (1 - (1-f_C)^2)/2)."""
    gap = partial(_router_gap, n_parties=n_parties, noise=noise_model.ChannelNoise)
    hi = 0.999
    # the gap is positive at 0; march right until it flips sign
    probe = 0.05
    while probe < hi and gap(probe) > 0.0:
        probe += 0.05
    if probe >= hi:
        raise SolverError(f"no advantage crossover found for N={n_parties}")
    return bisect_root(gap, 1e-9, probe, xtol=1e-9)
