"""Monte Carlo simulation of the conference-key protocol rounds.

One protocol run consists of L rounds over a fixed shared state.  A
seeded schedule marks a small fraction of rounds as parity-estimation
rounds (standing in for the pre-shared key that would mark them in the
field; the ledger charges the L*h(p) bits regardless).  In those rounds
every party measures X or Y at random; rounds where an odd number of
parties chose Y carry no parity information and are discarded, and
Alice's outcome is flipped whenever the Y count is not a multiple of
four.  All other rounds are measured in Z.  A random subset of the Z
rounds is announced for error-rate estimation, a common random flip
mask is applied to the rest, and the surviving rounds are turned into
key material at the asymptotic secret fraction of the estimates.

Samplers
--------
A run takes either state type of :mod:`nqkd.ghz`, and each round
measures one component |j, sigma> of the state's mixture, drawn with
probability lambda_j^sigma.  A ``WeightClassState`` draws a Bob weight w
from its class masses instead, and j is then a uniform w-subset of the
Bobs.  Both samplers read the Bobs' bits of j from one generator
(``_bob_flips``), the only sampling code that tells the state types apart.
For its Z rounds either state is split into a part uniform over all
2^(N-1) branches and residual class masses (``ghz.uniform_split``); a
round of the uniform part gives each Bob a fair bit and draws no class.
White noise is all uniform part, so a depolarized state's residual is
its j = 0 class alone.  Every random variable costs what it carries:

- Fair bits (Alice's Z bit, the Bobs' bits of a uniform-part Z round,
  the X/Y bases, the free parity-round bits and the classical flip
  mask) come eight to a random byte, unpacked with ``np.unpackbits``.
- The parity schedule and the Z rounds outside the j = 0 residual are
  exact Bernoulli processes over positions, placed by geometric gaps in
  O(p L) draws (``_bernoulli_positions``).  Only these rows draw a part
  of the split, from the renormalised masses by one binary search, and
  that draw is skipped when the uniform part is the only one; every
  other row copies Alice's bit to the Bobs.
- Outcome and basis arrays are held party-major, one contiguous row
  per party; the samplers take and return (rounds, parties) views of
  them and reduce along the party axis.

In a Z round the Bobs read Alice's bit XOR their bits of j.  In a parity
round with an odd Y count kappa every outcome is a fair bit.  With kappa
even, every strict subset of the X/Y outcomes is uniform and their
product is sigma f(kappa) (-1)^{|j AND y|}, y the Bobs' Y mask in the
bit order of j, so all parties but the last draw fair bits and the last
is fixed by the product.  One uniform per parity round picks the
component.  Where lambda_j^+ = lambda_j^- (every j != 0 of a twirled
state), sigma is a fair coin that hides |j AND y|, and the round draws
no bits of j.

The announced Z rounds are a uniform subset of their size, thinned from
a slightly larger Bernoulli subset in O(size) (``_uniform_subset``).

What a run holds
----------------
Five seeded streams feed a run (``_streams``): the schedule, the Z
rounds, the parity rounds, the announced subset and post-processing.
The schedule is only counted, and the announced subset is drawn next
and marked in a packed bitmap, one bit per Z round.  The estimates are
counts, and the run takes them as it draws: a drawn Z row is tested
against the bitmap with one byte read, a kept row's fair bits are read
from their packed block at its column alone, and each Bob's
disagreements with Alice are counted there (``_z_disagreements``).  A
parity round stops after its component draw, which gives its sign
sigma (-1)^{|j AND y|}; with kappa even that sign is what the estimate
reads, and the outcome bits, the stream's last draw, are not drawn.  A
run holds Alice's Z bits packed, L/8 bytes, the announced positions
and the counts, and no array of a byte or more for every round.  The
key and its flip mask are built from the packed bits only when read
(``--hash-key``).  A stream depends only on the seed and its index, so
the transcript writer draws the schedule, every Z round's N bits and
the parity rounds' bases and outcome bits again, and joins each line
out of byte pieces looked up by the line's bits, eight parties at a time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .ghz import ARRAY_BYTE_BUDGET, GhzDiagonalState, WeightClassState, diagonal_coefficients, uniform_split
from .keyrate import RateInput, RateReport, binary_entropy, secret_fraction
from .noise import depolarized_state


# ProtocolConfig.peak_bytes: bytes of a parity round beyond its N basis bits (its
# uniform and sign while the components are drawn), and of an announced Z round
# (its position, twice while the subset is thinned), measured with tracemalloc up
# to p = 0.95 and with every Z round announced;
# test_run_protocol_peak_memory_within_peak_bytes pins them.
PARITY_ROUND_BYTES = 9
ANNOUNCED_ROUND_BYTES = 17
# a GhzDiagonalState adds state-sized temporaries, per branch j of its
# 2^(N-1): _xy_signs holds six float64 copies and three bool ones at
# its peak, 51 B per branch (tracemalloc at N=20), so k = 6.5 float64 copies
BRANCH_BYTES = 52
# write_transcript draws every Z round's N bits again, with the schedule mask and Alice's
# packed bits (1 1/8 B), and every parity round's N basis and N outcome bits, N of them
# in the run's freed bytes of that round; its transients fit in the run's freed BATCH_BYTES (tracemalloc)
TRANSCRIPT_ROUND_BYTES = 2
# write_transcript's block buffers per byte piece of its largest block: the piece's pointer
# in the piece array and in their list, the 80 B buffer view that b"".join takes of it, and
# its share of the joined lines, up to 40 B at large N (tracemalloc at N=1000 and 2000)
TRANSCRIPT_PIECE_BYTES = 136
# toeplitz_hash per key bit at its worst, a key just above a power of two hashed to
# its full length: two spectra of 32 B and the key's float64 copy (tracemalloc),
# and the key and flip mask it reads; counted for a key of L bits
HASH_BIT_BYTES = 74


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProtocolConfig:
    n_parties: int
    n_rounds: int
    state: GhzDiagonalState | WeightClassState
    p_estimation: float = 0.05
    seed: int = 0
    announced_z_rounds: int | None = None

    def __post_init__(self):
        for name in ("n_parties", "n_rounds", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        announced = self.announced_z_rounds
        if announced is not None and not (_is_integer(announced) and announced >= 0):
            raise ValueError(f"announced_z_rounds must be a non-negative integer or null, not {announced!r}")
        if self.n_rounds < 1:
            raise ValueError("need at least one round")
        if not 0.0 < self.p_estimation < 1.0:
            raise ValueError("p_estimation must lie strictly between 0 and 1")
        if not isinstance(self.state, (GhzDiagonalState, WeightClassState)):
            raise ValueError(f"state must be a GhzDiagonalState or WeightClassState, not "
                             f"{type(self.state).__name__}; twirl a dense state into one with "
                             "ghz_diagonal_from_dense")
        if self.state.n_parties != self.n_parties:
            raise ValueError(f"state has {self.state.n_parties} parties, config says {self.n_parties}")
        self.check_budget()

    def peak_bytes(self, hash_key: bool = False, transcript: bool = False) -> int:
        """Bytes ``run_protocol`` holds at its peak, from the per-round costs it was measured at.

        Every round is counted at Alice's packed Z bit and its bit in the
        announced rows' bitmap, 1/4 byte; a parity round at its N basis bits
        plus ``PARITY_ROUND_BYTES`` while its component is drawn, and an
        announced Z round at ``ANNOUNCED_ROUND_BYTES``.  The counts keep no
        outcome bits, but the Bobs' bits of one batch of announced rows are
        held while they are counted, N bytes for each of up to
        ``DRAW_BATCH`` rows.  The batched draws add at most ``BATCH_BYTES``,
        and a ``GhzDiagonalState`` ``BRANCH_BYTES`` per branch.
        ``write_transcript`` adds N + ``TRANSCRIPT_ROUND_BYTES`` per round,
        and ``TRANSCRIPT_PIECE_BYTES`` per byte piece of one block of
        ``TRANSCRIPT_BLOCK_ROUNDS``: ceil(N/8) per Z round and
        2 ceil(N/8) + 1 per parity round.  A hashed key adds
        ``HASH_BIT_BYTES`` per round.  Parity rounds are counted at their
        expected number.
        """
        n = self.n_parties
        parity = self.n_rounds * self.p_estimation
        announced = min(parity if self.announced_z_rounds is None else self.announced_z_rounds,
                        self.n_rounds - parity)
        branches = 1 << (n - 1) if isinstance(self.state, GhzDiagonalState) else 0
        per_round = 1 / 4 + hash_key * HASH_BIT_BYTES + transcript * (n + TRANSCRIPT_ROUND_BYTES)
        chunks = -(-n // 8)
        block_pieces = min(self.n_rounds, TRANSCRIPT_BLOCK_ROUNDS) * (chunks + self.p_estimation * (chunks + 1))
        return math.ceil(BATCH_BYTES + BRANCH_BYTES * branches + self.n_rounds * per_round
                         + parity * (n + PARITY_ROUND_BYTES) + announced * ANNOUNCED_ROUND_BYTES
                         + n * min(announced, DRAW_BATCH) + transcript * TRANSCRIPT_PIECE_BYTES * block_pieces)

    def check_budget(self, hash_key: bool = False, transcript: bool = False) -> None:
        """Raise ``ValueError`` when a run with these outputs would pass ``ARRAY_BYTE_BUDGET``."""
        needed = self.peak_bytes(hash_key, transcript)
        if needed > ARRAY_BYTE_BUDGET:
            outputs = " and ".join(name for name, on in (("a hashed key", hash_key), ("a transcript", transcript)) if on)
            raise ValueError(f"{self.n_rounds} rounds of {self.n_parties} parties{' with ' + outputs if outputs else ''} "
                             f"need about {needed} bytes, over the {ARRAY_BYTE_BUDGET}-byte budget")


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round: type, per-party bases and +-1 outcomes."""

    round_type: str
    bases: tuple[str, ...]
    outcomes: tuple[int, ...]
    kappa_tilde: int
    kept: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "type": self.round_type,
                "bases": "".join(self.bases),
                "outcomes": list(self.outcomes),
                "kappa_tilde": self.kappa_tilde,
                "kept": self.kept,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RoundRecord":
        obj = json.loads(text)
        return cls(
            round_type=obj["type"],
            bases=tuple(obj["bases"]),
            outcomes=tuple(int(a) for a in obj["outcomes"]),
            kappa_tilde=int(obj["kappa_tilde"]),
            kept=bool(obj["kept"]),
        )


@dataclass(frozen=True)
class EstimationResult:
    q_z_hat: float
    q_x_hat: float
    q_ab_hat: tuple[float, ...]
    n_plus: int
    n_minus: int
    z_rounds_used: int
    xy_rounds_total: int
    xy_rounds_kept: int


@dataclass(frozen=True)
class ResourceLedger:
    """Rounds and pre-shared secret bits consumed by one protocol run."""

    n_rounds: int
    preshared_key_bits: float
    second_type_rounds: int
    announced_z_rounds: int
    key_rounds: int


_F_SIGNS = np.array([1, 0, -1, 0], dtype=np.int8)  # f(kappa) by kappa mod 4


def f_sign(kappa_tilde: int | np.ndarray) -> int | np.ndarray:
    """Sign carried by a parity round with ``kappa_tilde`` Y measurers.

    0 for odd counts (the round is discarded), +1 when the count is a
    multiple of four and -1 otherwise.  An int gives an int, an array of
    counts an array of signs.
    """
    kappa = np.asarray(kappa_tilde)
    if kappa.min(initial=0) < 0:
        raise ValueError("kappa_tilde must be non-negative")
    signs = _F_SIGNS[kappa % 4]
    return int(signs) if signs.ndim == 0 else signs


# ---------------------------------------------------------------------------
# Round sampling
# ---------------------------------------------------------------------------

# Largest batch of positions a draw holds at once, so the transients of a
# run's draws stay bounded whatever its length.
DRAW_BATCH = 1 << 16
BATCH_BYTES = 64 * DRAW_BATCH  # what one batch of drawn rows holds at most, with room to spare


def _packed_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` independent fair bits, eight to each random byte, in ``np.unpackbits`` order."""
    return np.frombuffer(rng.bytes(-(-count // 8)), dtype=np.uint8)


def _uniform_bits(rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
    """Independent fair bits (uint8 0/1) of the given shape, eight to each random byte."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    return np.unpackbits(_packed_bits(rng, size), count=size).reshape(shape)


def _bits_at(packed: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The bits of ``packed`` at the bit positions ``index``, read without unpacking the rest."""
    return (packed[index >> 3] >> (~index & 7).astype(np.uint8)) & 1


def _bernoulli_positions(length: int, p: float, rng: np.random.Generator):
    """Sorted positions of an i.i.d. Bernoulli(p) subset of range(length), in batches.

    The gaps between chosen positions are geometric: 1 + floor(E / r)
    with E standard exponential and r = -ln(1 - p) has P(gap > g) =
    (1 - p)^g exactly.  Each batch draws about as many gaps as the rest
    of the range is expected to need, at most ``DRAW_BATCH``, so a call
    costs O(p length) draws; gaps that run past the end are discarded.
    """
    if p <= 0.0:
        return
    rate = math.inf if p >= 1.0 else -math.log1p(-p)
    last = -1
    while last < length - 1:
        rest = length - 1 - last
        expected = p * rest
        size = min(DRAW_BATCH, int(expected + 5.0 * math.sqrt(expected)) + 16)
        gaps = rng.standard_exponential(size)
        # a gap of rest + 1 already ends the range; clipping first keeps every quotient finite
        np.minimum(gaps, (rest + 1) * rate, out=gaps)
        gaps /= rate
        positions = gaps.astype(np.int64)  # floor: the gaps are non-negative
        positions += 1
        np.cumsum(positions, out=positions)
        positions += last
        inside = int(np.searchsorted(positions, length))
        if inside:
            yield positions[:inside]
        if inside < size:
            return
        last = int(positions[-1])


def _uniform_subset(population: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions of a uniformly random ``size``-subset of range(population).

    A Bernoulli subset of m positions is, given m, a uniform m-subset; its
    rate is set five standard deviations above size/population, and
    removing m - size of its positions at random leaves a uniform
    ``size``-subset.  A draw with m < size is drawn again.  The cost is
    O(size), with no array over the whole population.
    """
    if size == 0:
        return np.empty(0, dtype=np.int64)
    rate = min(1.0, (size + 5.0 * math.sqrt(size) + 1.0) / population)
    while True:
        positions = np.concatenate([np.empty(0, dtype=np.int64),
                                    *_bernoulli_positions(population, rate, rng)])
        if positions.size >= size:
            surplus = rng.choice(positions.size, positions.size - size, replace=False, shuffle=False)
            return np.delete(positions, surplus)


def _bob_flips(state: GhzDiagonalState | WeightClassState, branch: np.ndarray,
               rng: np.random.Generator):
    """Each Bob's bit of j (bool per row), Bob 1 first, for rows of branch j or of a state's Bob weight.

    A ``GhzDiagonalState`` gives the bits of ``branch``, Bob 1 the top
    one.  For a ``WeightClassState`` ``branch`` holds the Bob weight w,
    and the flipped Bobs are a uniform w-subset, by selection sampling:
    Bob t joins with probability (Bobs still needed)/(Bobs left), which
    gives each subset of that weight probability 1/C(N-1, w); a row that
    needs every Bob left always takes the next one.  The last Bob joins
    exactly when one is still needed, so it draws nothing.  The weights in
    ``branch`` are used up.
    """
    n = state.n_parties
    if isinstance(state, WeightClassState):
        needed = branch  # counted down in place: a copy of a large batch is a fresh memory mapping each time
        for t in range(n - 2):
            chosen = rng.random(branch.size) * (n - 1 - t) < needed
            yield chosen
            needed -= chosen
        yield needed > 0
    else:
        for bob in range(1, n):
            yield ((branch >> (n - 1 - bob)) & 1).astype(bool)


def _row_bitmap(rows: np.ndarray, count: int) -> np.ndarray:
    """The sorted distinct ``rows`` of range(``count``) as a packed bitmap of ceil(count/8) bytes,
    in ``np.unpackbits`` order, so ``_bits_at`` tests a row with one byte read."""
    bitmap = np.zeros(-(-count // 8), dtype=np.uint8)
    for start in range(0, rows.size, DRAW_BATCH):  # the int64 transients stay per slice
        chunk = rows[start : start + DRAW_BATCH]
        np.bitwise_or.at(bitmap, chunk >> 3, np.right_shift(128, chunk & 7).astype(np.uint8))
    return bitmap


def _z_draws(state: GhzDiagonalState | WeightClassState, count: int, rng: np.random.Generator,
             alice: np.ndarray, wanted: np.ndarray | None = None):
    """The Bobs' bits of the drawn Z rounds, the rounds that do not copy Alice's bit, batch by batch.

    Yields pairs of sorted drawn rows and their Bobs' bits, shape (N-1,
    rows), Bob 1 first.  ``wanted``, a ``_row_bitmap``, keeps the drawn rows
    it marks, and None every drawn row; every draw below is made whatever
    it holds.  A row that is not drawn gives each Bob Alice's bit.
    ``alice`` holds Alice's ``count`` bits packed (``_packed_bits``),
    drawn from ``rng`` before this call.

    A round draws a branch j and Alice's bit; |j, sigma> gives the Bobs the
    bits of j when Alice reads 0 and those of ~j when she reads 1.  The
    state's class masses (per branch j, or per Bob weight w) are split
    into a part uniform over all branches and residual classes
    (``ghz.uniform_split``).  The drawn rows are a Bernoulli process of
    rate 1 - R_0, and each belongs to the uniform part or to a residual
    class c >= 1 in proportion to their masses, by one uniform per row,
    drawn only when the residual tail is not zero.  A residual row gives
    the Bobs Alice's bit XOR the bits of its class (``_bob_flips``).  A
    uniform-part row gives each Bob a fair bit, whatever Alice's, drawn
    as one packed (N-1, rows) block; with ``wanted`` set, the bits are
    read only at the hit columns, Bob b's bit of column c being bit
    b * rows + c of the block.
    """
    n = state.n_parties
    uniform_mass, masses = uniform_split(state)
    tail_mass = masses[1:].sum()
    drawn_mass = uniform_mass + tail_mass
    if drawn_mass == 0.0:
        return
    # part 0 is the uniform part, part c >= 1 the residual of branch c or of Bob weight c
    parts = np.concatenate(([uniform_mass], masses[1:])) / drawn_mass
    bounds = np.cumsum(parts)  # a uniform in [bounds[c - 1], bounds[c]) draws part c
    last = bounds.searchsorted(bounds[-1])  # the last part of positive mass
    block_rows = max(1, BATCH_BYTES // (2 * (n - 1)))  # the unpacked fair bits of a block stay within BATCH_BYTES / 2
    read_cols = max(1, BATCH_BYTES // (64 * (n - 1)))  # the int64 bit indices of one read stay within BATCH_BYTES / 8
    bobs = np.arange(n - 1)[:, None]
    for drawn in _bernoulli_positions(count, drawn_mass / (masses[0] + drawn_mass), rng):
        hit = np.ones(drawn.size, dtype=bool) if wanted is None else _bits_at(wanted, drawn).view(bool)
        if tail_mass == 0.0:
            uniform_rows = drawn
        else:
            part = bounds.searchsorted(rng.random(drawn.size), side="right")
            np.minimum(part, last, out=part)  # rounding may land past the last bound
            residual = part > 0
            uniform_rows = drawn[~residual]
            if residual.any():
                rows_hit = hit[residual]
                rows = drawn[residual][rows_hit]
                alice_bits = _bits_at(alice, rows)
                bits = np.empty((n - 1, rows.size), dtype=np.uint8)
                for bob, flip in enumerate(_bob_flips(state, part[residual], rng)):
                    bits[bob] = alice_bits ^ flip[rows_hit]
                yield rows, bits
                del bits  # the next batch's bits are not built while these are held
            hit = hit[~residual]
        for start in range(0, uniform_rows.size, block_rows):
            block = uniform_rows[start : start + block_rows]
            packed = _packed_bits(rng, (n - 1) * block.size)
            if wanted is None:
                yield block, np.unpackbits(packed, count=(n - 1) * block.size).reshape(n - 1, block.size)
                continue
            columns = np.flatnonzero(hit[start : start + block.size])
            for first in range(0, columns.size, read_cols):
                at = columns[first : first + read_cols]
                yield block[at], _bits_at(packed, bobs * block.size + at)


def sample_z_bits(state: GhzDiagonalState | WeightClassState, count: int,
                  rng: np.random.Generator, alice: np.ndarray) -> np.ndarray:
    """Z-basis outcome bits of ``count`` rounds, shape (count, N); bit 0 is the +1 outcome.

    ``alice`` holds Alice's ``count`` bits packed (``_packed_bits``), drawn
    from ``rng`` before this call; ``_z_draws`` gives the Bobs' bits of the
    drawn rows, and every other row copies Alice's bit to the Bobs.  The
    result is the transpose of a party-major array.
    """
    bits = np.empty((state.n_parties, count), dtype=np.uint8)  # one contiguous row per party
    bits[0] = np.unpackbits(alice, count=count)
    bits[1:] = bits[0]
    for rows, bob_bits in _z_draws(state, count, rng, alice):
        bits[1:, rows] = bob_bits
    return bits.T


def _z_disagreements(state: GhzDiagonalState | WeightClassState, count: int, rng: np.random.Generator,
                     alice: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Over the Z rounds at the sorted ``rows``: how many times each Bob's bit differs from
    Alice's, Bob 1 first, and in how many rounds any Bob's does.  Only drawn rows can differ."""
    per_bob = np.zeros(state.n_parties - 1, dtype=np.int64)
    any_bob = 0
    for drawn, differs in _z_draws(state, count, rng, alice, _row_bitmap(rows, count)):
        differs ^= _bits_at(alice, drawn)
        per_bob += differs.sum(axis=1, dtype=np.int64)  # no bool copy, as count_nonzero would make
        any_bob += int(np.count_nonzero(differs.any(axis=0)))
        del differs  # dropped before the next batch is drawn
    return per_bob, any_bob


def _y_counts(bases_by_party: np.ndarray) -> np.ndarray:
    """kappa_tilde per round, summed along the party axis in the smallest dtype that holds N."""
    return bases_by_party.sum(axis=0, dtype=np.min_scalar_type(bases_by_party.shape[0]))


def _xy_signs(state: GhzDiagonalState | WeightClassState, by_party: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """The component draw of parity rounds with party-major bases ``by_party`` (0 = X, 1 = Y):
    per round 1 where sigma (-1)^{|j AND y|} is -1, else 0 (uint8).

    Each round draws its component |j, sigma> with one uniform against the
    cumulative coefficients: j = 0 first, then every other branch (or Bob
    weight) with sigma = +, then with sigma = -.  The bits of j are drawn
    only where sigma is not a fair coin given j (see the module docstring).
    """
    plus, minus = (np.maximum(c, 0.0) for c in diagonal_coefficients(state))
    branches = plus.size - 1
    zero_mass = plus[0] + minus[0]
    # component c is branch c % branches + 1, with sigma = + below c = branches and - from there on
    tail = np.concatenate((plus[1:], minus[1:]))
    bounds = np.cumsum(tail)
    last = bounds.searchsorted(bounds[-1])  # the last component of positive mass
    skewed = np.concatenate([plus[1:] != minus[1:]] * 2)  # components whose sigma is not a fair coin given j
    count = by_party.shape[1]
    uniform = rng.random(count)
    uniform *= zero_mass + bounds[-1]  # the coefficients may sum to 1 +- 1e-9
    sign_is_minus = (uniform >= plus[0]).view(np.uint8)  # sigma = - of the j = 0 rows
    for start in range(0, count, DRAW_BATCH):
        rows = np.flatnonzero(uniform[start : start + DRAW_BATCH] >= zero_mass)
        rows += start
        component = np.searchsorted(bounds, uniform[rows] - zero_mass, side="right")
        np.minimum(component, last, out=component)  # rounding may land past the last bound
        sign_is_minus[rows] = component >= branches
        draw = skewed[component]
        if draw.any():
            rows = rows[draw]
            overlap = np.zeros(rows.size, dtype=np.uint8)  # parity of |j AND y|
            for bob, flip in enumerate(_bob_flips(state, component[draw] % branches + 1, rng), start=1):
                overlap ^= flip & by_party[bob, rows]
            sign_is_minus[rows] ^= overlap
    return sign_is_minus  # the uniforms, 8 B per round, are freed on return


def sample_xy_bits(state: GhzDiagonalState | WeightClassState, bases: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Outcome bits for parity rounds with given bases (0 = X, 1 = Y), shape (count, N).

    The component draw (``_xy_signs``) comes first, then the outcome bits;
    the module docstring gives the outcomes of a component.  ``bases`` is
    best a view of a party-major array; the result is the transpose of one.
    """
    by_party = np.asarray(bases, dtype=np.uint8).T
    product_is_minus = _xy_signs(state, by_party, rng)
    kappa = _y_counts(by_party)
    product_is_minus ^= (kappa & 2) != 0  # f(kappa) = -1 for even kappa
    bits = _uniform_bits(rng, by_party.shape)
    product_is_minus ^= np.bitwise_xor.reduce(bits, axis=0)  # where the last bit must flip
    product_is_minus &= (kappa & 1) == 0  # with kappa odd every bit stays fair
    bits[-1] ^= product_is_minus
    return bits.T


# ---------------------------------------------------------------------------
# Accounting and the full run
# ---------------------------------------------------------------------------

def _streams(seed: int, count: int = 5) -> list[np.random.Generator]:
    """A run's first ``count`` seeded streams, each a function of the seed and its index only:
    the schedule (``_schedule``), the Z rounds (Alice's packed bits, then ``_z_draws``), the
    parity rounds' bases, component draw and outcome bits, the announced subset, and the flip
    mask then the hash's diagonals."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _schedule(config: ProtocolConfig, rng: np.random.Generator):
    """The parity rounds' positions among the ``n_rounds`` rounds, in sorted blocks, from child 0."""
    return _bernoulli_positions(config.n_rounds, config.p_estimation, rng)


def preshared_key_accounting(config: ProtocolConfig, second_type_rounds: int) -> ResourceLedger:
    """Ledger of secret-bit and round consumption for one run.

    Marking the second-type rounds costs L*h(p) pre-shared bits (the
    marker string compresses to that); parameter estimation consumes the
    parity rounds plus an equally sized announced subset of Z rounds.
    """
    announced = config.announced_z_rounds
    if announced is None:
        announced = second_type_rounds
    announced = min(announced, config.n_rounds - second_type_rounds)
    return ResourceLedger(
        n_rounds=config.n_rounds,
        preshared_key_bits=config.n_rounds * binary_entropy(config.p_estimation),
        second_type_rounds=second_type_rounds,
        announced_z_rounds=announced,
        key_rounds=config.n_rounds - second_type_rounds - announced,
    )


def toeplitz_hash(bits: np.ndarray, out_len: int, rng: np.random.Generator) -> np.ndarray:
    """Two-universal hash: multiply by a random Toeplitz matrix over GF(2), via one FFT product.

    The FFTs read float64 inputs, the spectra are multiplied in place, and
    each temporary is dropped once it has been used, so the worst case
    holds ``HASH_BIT_BYTES`` per key bit.
    """
    n = np.size(bits)
    if out_len < 0 or out_len > n:
        raise ValueError(f"output length {out_len} outside [0, {n}]")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    diagonals = rng.integers(0, 2, size=n + out_len - 1, dtype=np.int64)
    # circular wrap-around only reaches entries below the window once size >= n + out_len - 1
    size = 1 << (n + out_len - 2).bit_length()
    product = np.fft.rfft(diagonals.astype(np.float64), size)
    del diagonals
    product *= np.fft.rfft(np.asarray(bits, dtype=np.float64), size)
    full = np.fft.irfft(product, size)
    del product
    window = full[n - 1 : n - 1 + out_len]
    rounded = np.rint(window)
    window -= rounded
    if np.abs(window).max() >= 0.25:
        raise ArithmeticError("FFT rounding error too large for an exact Toeplitz hash")
    return np.fmod(rounded, 2.0, out=rounded).astype(np.uint8)


@dataclass(frozen=True)
class ProtocolResult:
    config: ProtocolConfig
    estimate: EstimationResult
    ledger: ResourceLedger
    rate_report: RateReport
    key_length_estimate: float
    discard_fraction: float
    hashed_key: np.ndarray | None
    run: ProtocolRun              # the sampled run; write_transcript prints its rounds, drawn again

    @property
    def key_bits(self) -> np.ndarray:
        """Alice's key-round bits under the flip mask."""
        return self.run.flipped_key[0]

    @property
    def flip_mask(self) -> np.ndarray:
        return self.run.flipped_key[1]

    def summary_json(self) -> str:
        return json.dumps(
            {
                "n_parties": self.config.n_parties,
                "n_rounds": self.config.n_rounds,
                "p_estimation": self.config.p_estimation,
                "seed": self.config.seed,
                "estimates": {
                    "q_z": self.estimate.q_z_hat,
                    "q_x": self.estimate.q_x_hat,
                    "q_ab": list(self.estimate.q_ab_hat),
                    "n_plus": self.estimate.n_plus,
                    "n_minus": self.estimate.n_minus,
                    "z_rounds_used": self.estimate.z_rounds_used,
                    "xy_rounds_total": self.estimate.xy_rounds_total,
                    "xy_rounds_kept": self.estimate.xy_rounds_kept,
                },
                "ledger": asdict(self.ledger),
                "secret_fraction": self.rate_report.r_inf,
                "secret_fraction_clamped": self.rate_report.r_clamped,
                "key_length_estimate": self.key_length_estimate,
                "discard_fraction": self.discard_fraction,
                "hashed_key_bits": None if self.hashed_key is None else len(self.hashed_key),
            },
            indent=2,
        )


class ProtocolRun:
    """The sampled rounds of one protocol execution, reduced to the counts its estimates read.

    A run holds Alice's Z bits packed (``z_alice``), the announced Z
    rounds' sorted positions among the ``z_count`` Z rounds
    (``announced_rows``), how often each Bob's bit differs from Alice's
    on them (``bob_disagreements``, Bob 1 first) and in how many of them
    any Bob's does (``any_disagreements``), and over the parity rounds
    with an even Y count (``kept``) those whose sign sigma (-1)^{|j AND y|}
    is + (``n_plus``) or - (``n_minus``).  With kappa even the outcome
    product is sigma f(kappa) (-1)^{|j AND y|}, so ``n_minus`` counts the
    kept rounds whose product differs from f(kappa); the outcome bits are
    not drawn.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        schedule_rng, z_rng, xy_rng, subset_rng, self._post_rng = _streams(config.seed)
        xy_count = sum(positions.size for positions in _schedule(config, schedule_rng))
        self.z_count = config.n_rounds - xy_count
        self.ledger = preshared_key_accounting(config, second_type_rounds=xy_count)
        self.announced_rows = _uniform_subset(self.z_count, self.ledger.announced_z_rounds, subset_rng)
        self.z_alice = _packed_bits(z_rng, self.z_count)
        self.bob_disagreements, self.any_disagreements = _z_disagreements(
            config.state, self.z_count, z_rng, self.z_alice, self.announced_rows)
        bases = _uniform_bits(xy_rng, (config.n_parties, xy_count))
        sign_is_minus = _xy_signs(config.state, bases, xy_rng)
        kept = (_y_counts(bases) & 1) == 0
        self.kept = int(np.count_nonzero(kept))
        self.n_minus = int(np.count_nonzero(sign_is_minus[kept]))
        self.n_plus = self.kept - self.n_minus

    @functools.cached_property
    def flipped_key(self) -> tuple[np.ndarray, np.ndarray]:
        """Alice's key-round bits under the classical flip mask, and the mask, built on first read.

        The mask is ``post_rng``'s first draw, so a hash of the key reads it first.
        """
        key = np.delete(np.unpackbits(self.z_alice, count=self.z_count), self.announced_rows)
        mask = _uniform_bits(self._post_rng, key.size)
        return key ^ mask, mask


def run_protocol(config: ProtocolConfig, hash_key: bool = False) -> ProtocolResult:
    """Execute a full protocol run and account for the resulting key.

    Error correction and privacy amplification enter as information
    accounting: the secret fraction of the measured error rates prices
    h(max Q_AB) bits of correction information per key bit and the
    corresponding amplification subtraction.  With ``hash_key`` the
    corrected string is additionally compressed through a seeded
    Toeplitz hash to the estimated length, whose bytes count against the
    byte budget before anything is sampled.  ``write_transcript`` prints
    the rounds of ``result.run``, drawing them again from its streams.
    """
    config.check_budget(hash_key)
    run = ProtocolRun(config)
    if run.z_count == 0:
        raise ValueError("no Z rounds were scheduled; lower p_estimation or raise n_rounds")
    ledger = run.ledger
    announced = ledger.announced_z_rounds
    if announced == 0:
        raise ValueError("no announced Z rounds")
    if run.kept == 0:
        raise ValueError("no parity rounds with an even Y count")
    xy_count = ledger.second_type_rounds
    estimate = EstimationResult(
        q_z_hat=run.any_disagreements / announced,
        q_x_hat=0.5 * (1.0 - (run.n_plus - run.n_minus) / run.kept),
        q_ab_hat=tuple((run.bob_disagreements / announced).tolist()),
        n_plus=run.n_plus,
        n_minus=run.n_minus,
        z_rounds_used=announced,
        xy_rounds_total=xy_count,
        xy_rounds_kept=run.kept,
    )
    report = secret_fraction(
        RateInput(
            q_z=estimate.q_z_hat,
            q_x=estimate.q_x_hat,
            q_ab=estimate.q_ab_hat,
            n_parties=config.n_parties,
        )
    )
    key_length = ledger.key_rounds * report.r_clamped
    hashed = None
    if hash_key:
        hashed = toeplitz_hash(run.flipped_key[0], int(math.floor(key_length)), run._post_rng)
    return ProtocolResult(
        config=config,
        estimate=estimate,
        ledger=ledger,
        rate_report=report,
        key_length_estimate=key_length,
        discard_fraction=1.0 - run.kept / xy_count,
        hashed_key=hashed,
        run=run,
    )


# Rounds written per block: the writer's buffers hold one block, whatever L is:
# a pointer per piece, one or two pieces per round and eight parties, and their join.
TRANSCRIPT_BLOCK_ROUNDS = 1 << 12


def _transcript_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte pieces of the ``RoundRecord.to_json`` lines of N parties, per chunk of up to eight.

    A chunk's pieces are indexed by its parties' bits as ``_packed_chunks``
    packs them.  A Z line joins its chunks' Z pieces, the first of which
    holds the line's head and the last its tail; an XY line joins its
    chunks' basis pieces, their outcome pieces and the tail of its
    kappa_tilde.  The chunks between the first and the last share one set
    of tables, so at most three sets are built.  Returns the pieces and the
    offsets that turn a Z line's codes, and an XY line's codes followed by
    its kappa_tilde, into indices of them, as columns.
    """
    z_head = b'{"type": "Z", "bases": "' + b"Z" * n + b'", "outcomes": ['
    z_tail = b'], "kappa_tilde": 0, "kept": true}\n'
    chunks = [(start == 0, n - start <= 8) for start in range(0, n, 8)]
    pieces, offsets = [], {}
    for start, (first, last) in zip(range(0, n, 8), chunks):
        if (first, last) in offsets:
            continue
        width = min(8, n - start)
        sep = b"" if first else b", "
        xy_head = b'{"type": "XY", "bases": "' if first else b""
        xy_mid = b'", "outcomes": [' if last else b""
        # product varies its last factor fastest, so reversed, party k is bit k of the index
        outcomes = [sep + b", ".join(o[::-1]) for o in product((b"1", b"-1"), repeat=width)]
        bases = [xy_head + bytes(b[::-1]) + xy_mid for b in product(b"XY", repeat=width)]
        z = [(z_head if first else b"") + o + (z_tail if last else b"") for o in outcomes]
        offsets[first, last] = (len(pieces), len(pieces) + 2**width, len(pieces) + 2 * 2**width)
        pieces += z + bases + outcomes
    z_off = [offsets[key][0] for key in chunks]
    xy_off = [offsets[key][1] for key in chunks] + [offsets[key][2] for key in chunks] + [len(pieces)]
    pieces += [b'], "kappa_tilde": %d, "kept": %s}\n' % (kappa, b"false" if kappa % 2 else b"true")
               for kappa in range(n + 1)]
    table = np.empty(len(pieces), dtype=object)
    table[:] = pieces
    return table, np.array(z_off)[:, None], np.array(xy_off)[:, None]


def _packed_chunks(rows: np.ndarray) -> np.ndarray:
    """Party-major bits, one row per party, packed eight parties to a byte.

    Party 8c + k is bit k of row c, the order of ``np.packbits`` with
    ``bitorder="little"``; eight shifts over whole rows cost less than
    packing each round's few bits on its own.
    """
    n = rows.shape[0]
    codes = np.zeros(((n + 7) // 8, rows.shape[1]), dtype=np.uint8)
    for k in range(min(8, n)):
        codes[: (n - k + 7) // 8] |= rows[k::8] << k
    return codes


def write_transcript(path: str, run: ProtocolRun) -> None:
    """Write one JSON round record per line, in the format of ``RoundRecord.to_json``.

    Each block of ``TRANSCRIPT_BLOCK_ROUNDS`` rounds packs its bits per
    chunk of eight parties, places the pieces of ``_transcript_tables``
    they index in round order, ceil(N/8) per Z round and 2 ceil(N/8) + 1
    per XY round, and is written as their join.  The budget is checked with
    the transcript's bytes first; the schedule, every Z round's bits and the
    parity rounds' bases and outcome bits are drawn again from the run's streams.
    """
    config = run.config
    config.check_budget(transcript=True)
    schedule_rng, z_rng, xy_rng = _streams(config.seed, 3)
    schedule = np.zeros(config.n_rounds, dtype=bool)
    for positions in _schedule(config, schedule_rng):
        schedule[positions] = True
    table, z_off, xy_off = _transcript_tables(config.n_parties)
    z_cols, xy_cols = np.arange(z_off.size)[:, None], np.arange(xy_off.size)[:, None]
    # party-major rows, so a block is a column slice
    z_bits = sample_z_bits(config.state, run.z_count, z_rng, _packed_bits(z_rng, run.z_count)).T
    xy_bases = _uniform_bits(xy_rng, (config.n_parties, run.ledger.second_type_rounds))
    xy_bits = sample_xy_bits(config.state, xy_bases.T, xy_rng).T
    z_pos = xy_pos = 0
    with open(path, "wb") as fh:
        for start in range(0, schedule.size, TRANSCRIPT_BLOCK_ROUNDS):
            is_xy = schedule[start : start + TRANSCRIPT_BLOCK_ROUNDS]
            xy_end = xy_pos + int(np.count_nonzero(is_xy))
            z_end = z_pos + is_xy.size - (xy_end - xy_pos)
            bases = xy_bases[:, xy_pos:xy_end]
            xy_codes = np.concatenate([_packed_chunks(bases), _packed_chunks(xy_bits[:, xy_pos:xy_end]),
                                       bases.sum(axis=0, keepdims=True)], dtype=np.intp)
            width = np.where(is_xy, xy_off.size, z_off.size)
            ends = np.cumsum(width)
            first = ends - width
            pieces = np.empty(ends[-1], dtype=object)
            pieces[first[~is_xy] + z_cols] = table[_packed_chunks(z_bits[:, z_pos:z_end]) + z_off]
            pieces[first[is_xy] + xy_cols] = table[xy_codes + xy_off]
            fh.write(b"".join(pieces.tolist()))
            xy_pos, z_pos = xy_end, z_end


CONFIG_KEYS = {"n_parties", "n_rounds", "p_estimation", "seed", "state", "announced_z_rounds"}
STATE_KEYS = {"depolarized": {"q"}, "pure_ghz": set(), "ghz_diagonal": {"lambda_plus", "lambda_minus"}}


def _json_number(value, key: str, integer: bool = False) -> int | float:
    """A JSON number as a float, or with ``integer`` as an int (1e6 is taken, 3.7 is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, not {value!r}")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(value)


def protocol_config_from_json(obj: dict | str) -> ProtocolConfig:
    """Build a config from its JSON form (see README for the schema)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("a protocol config must be a JSON object")
    unknown = sorted(set(obj) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    state_spec = obj["state"]
    if not isinstance(state_spec, dict):
        raise ValueError(f"state must be a JSON object with a model, not {state_spec!r}")
    n = _json_number(obj["n_parties"], "n_parties", integer=True)
    model = state_spec.get("model", "ghz_diagonal")
    if model not in STATE_KEYS:
        raise ValueError(f"unknown state model {model!r}")
    unknown = sorted(set(state_spec) - STATE_KEYS[model] - {"model"})
    if unknown:
        raise ValueError(f"unknown key(s) for state model {model}: {', '.join(unknown)}")
    if model == "depolarized":
        state = depolarized_state(n, _json_number(state_spec["q"], "state.q"))
    elif model == "pure_ghz":
        state = depolarized_state(n, 0.0)
    else:
        lam_plus, lam_minus = (np.asarray(state_spec[key]) for key in ("lambda_plus", "lambda_minus"))
        if lam_plus.dtype.kind not in "iuf" or lam_minus.dtype.kind not in "iuf":
            raise ValueError("lambda_plus and lambda_minus must be arrays of numbers")
        state = GhzDiagonalState(n, lam_plus, lam_minus)
    announced = obj.get("announced_z_rounds")
    return ProtocolConfig(
        n_parties=n,
        n_rounds=_json_number(obj["n_rounds"], "n_rounds", integer=True),
        state=state,
        p_estimation=_json_number(obj.get("p_estimation", ProtocolConfig.p_estimation), "p_estimation"),
        seed=_json_number(obj.get("seed", ProtocolConfig.seed), "seed", integer=True),
        announced_z_rounds=None if announced is None else _json_number(announced, "announced_z_rounds", integer=True),
    )
