"""Slotted Monte Carlo simulator of the energy-harvesting random access network.

Source-destination pairs are dropped as a Poisson process on a square that
wraps around (minimum-image torus), so every receiver sees a statistically
edge-free interference field.  Each slot: energy arrives, nodes holding at
least N units fire with the configured update pattern, and a packet is
delivered when its SINR under independent Rayleigh fades clears the decoding
threshold and an independent decode coin with success probability 1 - eps
comes up good.  Ages reset to one on delivery and grow by one otherwise.

The simulator makes none of the analytical independence approximations,
which is what makes it the validation oracle for every closed form: it
conditions on the exact positions and the exact set of links active in each
slot.  Given those, only the fades are left to draw, and link i decodes with
probability

    (1 - eps) exp(-theta noise / L_ii) prod_{j active, j != i} 1 / (1 + theta L_ji / L_ii),

where L_ji is the path loss from source j to receiver i.  ``run`` draws one
uniform per attempt against that probability; the per-slot reference engine
in ``tests/test_sim.py`` draws explicit fades instead.  ``run`` works in two
phases over chunks of slots.  Phase A scans the buffers of every link of
every realization at once, several slots per table gather, since buffers
never read decoding outcomes.  Phase B decodes each realization's attempts,
then folds the ages, attempts and inter-attempt gaps of every link in from
link-major lists of attempts and successes.  Identical (seed, configuration)
inputs give bit-identical reports.  Each realization has a seed sequence
keyed on (seed, index): its topology comes from a ``Philox`` stream keyed
on that sequence, and its arrivals, activations and decode coins from
three ``SFC64`` substreams seeded from its children.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aoi import NetworkConfig, PhyConfig
from .energy_chain import EnergyChainConfig
from .errors import SaturatedAccess, require_finite, require_integer

__all__ = [
    "BernoulliArrivals",
    "BinomialArrivals",
    "TwoStateMarkovArrivals",
    "BernoulliUpdates",
    "PeriodicUpdates",
    "SimConfig",
    "Topology",
    "SimReport",
    "require_torus",
    "sample_topology",
    "run",
]

_CELLS = 1 << 17  # most slot x link cells per phase A chunk
_TABLE = 1 << 18  # most entries of the phase A level table
_GAIN_CAP = 1024.0  # exp(-1024) is 0.0, so a larger log-gain decides nothing more


def _require_probabilities(owner: str, **fields: float) -> None:
    """Reject fields outside [0, 1], NaN included."""
    bad = [name for name, value in fields.items() if not 0.0 <= value <= 1.0]
    if bad:
        raise ValueError(f"{owner} fields must be probabilities in [0, 1]: {', '.join(bad)}")


@dataclass(frozen=True)
class BernoulliArrivals:
    """One energy unit per slot with probability xi."""

    xi: float

    def __post_init__(self):
        _require_probabilities("BernoulliArrivals", xi=self.xi)

    @property
    def mean_rate(self) -> float:
        return self.xi


@dataclass(frozen=True)
class BinomialArrivals:
    """Up to e_max units per slot, each arriving independently w.p. p."""

    e_max: int
    p: float

    def __post_init__(self):
        require_integer("BinomialArrivals", e_max=self.e_max)
        if self.e_max < 1:
            raise ValueError(f"BinomialArrivals e_max must be >= 1, got {self.e_max}")
        _require_probabilities("BinomialArrivals", p=self.p)

    @property
    def mean_rate(self) -> float:
        return self.e_max * self.p


@dataclass(frozen=True)
class TwoStateMarkovArrivals:
    """Bernoulli arrivals whose rate rides a two-state Markov chain.

    States start from the stationary split p_bad_to_good/(p_gb + p_bg) so
    the long-run rate equals ``mean_rate`` from slot one.
    """

    xi_good: float
    xi_bad: float
    p_good_to_bad: float
    p_bad_to_good: float

    def __post_init__(self):
        _require_probabilities("TwoStateMarkovArrivals", xi_good=self.xi_good, xi_bad=self.xi_bad,
                               p_good_to_bad=self.p_good_to_bad, p_bad_to_good=self.p_bad_to_good)
        if self.p_good_to_bad + self.p_bad_to_good == 0.0:
            raise ValueError("TwoStateMarkovArrivals needs p_good_to_bad or p_bad_to_good above 0:"
                             " a chain that never switches has no stationary split")

    @property
    def mean_rate(self) -> float:
        return (
            self.p_bad_to_good * self.xi_good + self.p_good_to_bad * self.xi_bad
        ) / (self.p_good_to_bad + self.p_bad_to_good)


@dataclass(frozen=True)
class BernoulliUpdates:
    """Fire with probability eta whenever the buffer allows it."""

    eta: float

    def __post_init__(self):
        _require_probabilities("BernoulliUpdates", eta=self.eta)


@dataclass(frozen=True)
class PeriodicUpdates:
    """Fire only on the per-node phase slot of every period (if affordable).

    Period 1 attempts every affordable slot and is therefore equal in law to
    Bernoulli updating with eta = 1.
    """

    period: int

    def __post_init__(self):
        require_integer("PeriodicUpdates", period=self.period)
        if self.period < 1:
            raise ValueError(f"PeriodicUpdates period must be >= 1, got {self.period}")


ArrivalPattern = BernoulliArrivals | BinomialArrivals | TwoStateMarkovArrivals
UpdatePattern = BernoulliUpdates | PeriodicUpdates


@dataclass(frozen=True)
class Topology:
    """Fixed source/receiver positions on a wrap-around square of given side."""

    sources: np.ndarray
    receivers: np.ndarray
    side: float

    def __post_init__(self):
        src = np.atleast_2d(np.asarray(self.sources, dtype=float))
        dst = np.atleast_2d(np.asarray(self.receivers, dtype=float))
        if src.shape != dst.shape or src.shape[1] != 2:
            raise ValueError("sources and receivers must be matching (n, 2) arrays")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "receivers", dst)

    @property
    def n_links(self) -> int:
        return self.sources.shape[0]

    def torus_distances(self) -> np.ndarray:
        """(n, n) minimum-image distances from source i to receiver j."""
        delta = np.abs(self.sources[:, None, :] - self.receivers[None, :, :])
        delta = np.minimum(delta, self.side - delta)
        return np.hypot(delta[..., 0], delta[..., 1])


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run shape.

    Links live on a wrap-around square of the given side.  warmup None
    picks 10 max(N/xi, 1/eta) slots, several multiples of the slowest
    natural timescale, capped at half the horizon; xi is the mean rate of
    the arrival pattern in use, and 1/eta the mean update period.
    """

    slots: int
    realizations: int
    seed: int
    side: float
    warmup: int | None = None
    arrivals: ArrivalPattern | None = None
    updates: UpdatePattern | None = None

    def __post_init__(self):
        require_integer("SimConfig", slots=self.slots, realizations=self.realizations,
                        seed=self.seed, warmup=self.warmup)
        if self.slots <= 0 or self.realizations <= 0:
            raise ValueError("slots and realizations must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.warmup is not None and not 0 <= self.warmup < self.slots:
            raise ValueError("warmup must lie inside the horizon")
        require_finite("SimConfig", side=self.side)
        if self.side <= 0.0:
            raise ValueError("side must be positive")


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo estimates.

    network_aoi averages the per-link time-average age over the links of
    each realization, then over realizations; ci_halfwidth is the 95%
    normal interval across realization means.  empirical_mu pools
    successes over attempts, while empirical_inv_mu averages per-link
    attempts/successes (the quantity the reciprocal-moment formula
    predicts).  occupancy is the post-warmup buffer-level frequency over
    all nodes and slots.  links holds the link count of each realization,
    and activity the share of links active in a measured slot.
    """

    network_aoi: float
    ci_halfwidth: float
    empirical_mu: float
    empirical_inv_mu: float
    empirical_interval_mean: float
    empirical_interval_second: float
    per_link_aoi: np.ndarray
    occupancy: np.ndarray
    realization_means: np.ndarray
    slots_measured: int
    links: np.ndarray
    activity: float


def require_torus(density: float, side: float, r: float) -> None:
    """Refuse, with a ValueError, a torus that cannot hold links of this density and length.

    The expected link count density side^2 must be at least one, and r
    must stay below side / 2: a longer link wraps onto a shorter one.
    """
    if density * side**2 < 1.0:
        raise ValueError("expected node count below one; enlarge side or density")
    if not r < side / 2.0:
        raise ValueError(f"link length r = {r} must be below half the torus side {side}:"
                         " a longer link wraps onto a shorter one; enlarge side")


def sample_topology(
    density: float,
    side: float,
    r: float,
    rng: np.random.Generator,
) -> Topology:
    """Poisson(density side^2) sources, each receiver at distance r, wrapped.

    The torus must pass :func:`require_torus`.  A draw of zero links is
    redrawn; the expected count is at least one, so a draw comes up empty
    with probability at most 1/e.
    """
    require_torus(density, side, r)
    n = 0
    while n == 0:
        n = int(rng.poisson(density * side**2))
    sources = rng.random((n, 2)) * side
    angles = rng.random(n) * 2.0 * math.pi
    offsets = np.column_stack((np.cos(angles), np.sin(angles))) * r
    receivers = np.mod(sources + offsets, side)
    return Topology(sources=sources, receivers=receivers, side=side)


def _markov_arrivals(pattern: TwoStateMarkovArrivals, good: np.ndarray,
                     u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A chunk of Markov arrivals: (arrivals, the states after the chunk).

    ``good`` holds each link's state before the chunk and ``u`` the
    (slots, 2, links) uniforms.  In each slot a link arrives when
    u[0] < its state's rate, then leaves its state when u[1] < that
    state's switch probability.  The two switch tests leave the state as
    it is (neither passes), swap it (both pass) or set it (one passes: to
    good when only the bad state's test passes).  So the state before a
    slot is the value set by the last setting slot, or the carried state,
    XOR the parity of the swaps since.
    """
    to_bad = u[:, 1] < pattern.p_good_to_bad
    to_good = u[:, 1] < pattern.p_bad_to_good
    # row 0 sets the carried state; row t + 1 is slot t's move
    sets = np.concatenate((np.ones_like(good)[None], to_bad ^ to_good))
    value = np.concatenate((good[None], to_good))
    parity = np.logical_xor.accumulate(np.concatenate((np.zeros_like(good)[None], to_bad & to_good)))
    last = np.maximum.accumulate(np.where(sets, np.arange(len(sets))[:, None], 0))
    state = (np.take_along_axis(value, last, axis=0)
             ^ np.take_along_axis(parity, last, axis=0) ^ parity)
    arr = u[:, 0] < np.where(state[:-1], pattern.xi_good, pattern.xi_bad)
    return arr, state[-1]


def _default_warmup(n_units: int, arrivals: ArrivalPattern, updates: UpdatePattern, slots: int) -> int:
    """10 max(N / mean arrival rate, 1 / eta) slots, at most half the horizon."""
    eta_eff = updates.eta if isinstance(updates, BernoulliUpdates) else 1.0 / updates.period
    rate = arrivals.mean_rate
    # with no arrivals or no updates the chain never settles: half the horizon
    settle = 10.0 * max(n_units / rate, 1.0 / eta_eff) if rate > 0.0 and eta_eff > 0.0 else math.inf
    return math.ceil(min(settle, slots // 2))


class _Realization:
    """One realization: its links, a substream per draw kind, and its decoder.

    Arrivals, activations and decode coins each have their own ``SFC64``
    substream, seeded from a child of the realization's seed sequence and
    consumed in slot order, so the way the slots are chunked never shifts a
    stream.  The arrivals substream first draws the periodic phases, then
    the Markov start states.  ``tests/test_sim.py`` holds the per-slot
    reference engine, with explicit fades, that this one is checked against.
    """

    def __init__(self, ridx: int, sim: SimConfig, phy: PhyConfig, net: NetworkConfig,
                 arrivals: ArrivalPattern, updates: UpdatePattern, topology: Topology | None):
        seq = np.random.SeedSequence(entropy=sim.seed, spawn_key=(ridx,))
        rng = np.random.Generator(np.random.Philox(key=seq.generate_state(2, np.uint64)))
        if topology is None:
            topology = sample_topology(net.density, sim.side, phy.r, rng)
        self.arr_rng, self.act_rng, self.coin_rng = (
            np.random.Generator(np.random.SFC64(child)) for child in seq.spawn(3))
        self.n = topology.n_links
        self.eps = phy.eps
        self.phase = self.markov_good = None
        if isinstance(updates, PeriodicUpdates):
            self.phase = self.arr_rng.integers(0, updates.period, size=self.n)
        if isinstance(arrivals, TwoStateMarkovArrivals):
            # start in the stationary split, so the rate is mean_rate from slot one
            p_good = arrivals.p_bad_to_good / (arrivals.p_good_to_bad + arrivals.p_bad_to_good)
            self.markov_good = self.arr_rng.random(self.n) < p_good
        # a source on a receiver, or one under 1 m away at a huge alpha: infinite path loss
        with np.errstate(divide="ignore", over="ignore"):
            pathloss = topology.torus_distances() ** -phy.alpha
        # -log P(link i decodes) = c_i + sum of G[j, i] over the other active j,
        # with G[j, i] = log1p(theta L_ji / L_ii).  G is kept in whole units of
        # a power of two so small that every column sum is an integer below
        # 2^53: all partial sums of the product in decode are then exact, and
        # no blocking or thread count of the BLAS can change a bit.  The
        # rounding moves -log P by at most n quantum / 2 (2e-9 at 144 links).
        own = pathloss.diagonal()
        if not own.all():
            raise SaturatedAccess(
                f"path loss r^-alpha = {phy.r}^-{phy.alpha} underflows a float: links never decode"
            )
        gain = np.minimum(np.log1p(phy.theta * pathloss / own), _GAIN_CAP)
        np.fill_diagonal(gain, 0.0)
        self.quantum = 2.0 ** (math.ceil(math.log2(max(self.n, 1) * _GAIN_CAP)) - 53)
        self.gain = np.rint(gain / self.quantum)  # [source j, receiver i]
        noise = 0.0 if math.isinf(phy.tx_snr) else 1.0 / phy.tx_snr
        self.noise_term = phy.theta * noise / own  # c_i

    def decode(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phase B: the slots and links of the attempts in one chunk that succeed.

        Each attempt, in (slot, link) order, draws one uniform against its
        success probability given the links active in its slot.
        """
        flat = np.flatnonzero(active)
        slot, link = np.divmod(flat, self.n)
        neg_log_p = (active.astype(np.float64) @ self.gain).ravel()[flat] * self.quantum
        neg_log_p += self.noise_term[link]
        ok = self.coin_rng.random(flat.size) < (1.0 - self.eps) * np.exp(-neg_log_p)
        return slot[ok], link[ok]


def _link_events(mask: np.ndarray, t0: int, carried: np.ndarray):
    """The marked cells of a (slots, links) mask whose first row is slot t0, link by link.

    Returns the event count of each link; the slots of the events in
    link-major order; the slot of the event before each on its link
    (``carried`` of the link for its first event); the mask of the links
    with events; and the index of the last event of each of those links.
    """
    rows, width = mask.shape
    counts = np.count_nonzero(mask, axis=0)
    slot = np.flatnonzero(mask.T) - np.repeat(np.arange(width) * rows - t0, counts)
    seen = counts > 0
    last = np.cumsum(counts)[seen] - 1
    prev = np.empty_like(slot)
    prev[1:] = slot[:-1]
    prev[last - counts[seen] + 1] = carried[seen]
    return counts, slot, prev, seen, last


class _Tally:
    """Per-link tallies over the measured slots, carried from chunk to chunk.

    All tallies are integers, so the way the slots are chunked never
    changes a sum.
    """

    def __init__(self, width: int):
        self.aoi_sum, self.attempts, self.successes = (np.zeros(width, dtype=np.int64) for _ in range(3))
        self.last_success = np.zeros(width, dtype=np.int64)  # so ages start at 1
        self.last_attempt = np.full(width, -1, dtype=np.int64)  # last measured attempt
        self.gaps = (0, 0, 0)  # count, sum and sum of squares of inter-attempt gaps

    def absorb(self, t0: int, active: np.ndarray, success: np.ndarray, warmup: int) -> None:
        """Phase B: fold in the (slots, links) attempt and success masks of the chunk from slot t0.

        It works on link-major event lists.  A link's age in slot t is
        t + 1 - L(t), where L(t) is its last success up to t (0 before any).
        L steps up by s - s' at a success s that follows s', which lowers
        the age in every measured slot from s on by that step.  The
        inter-attempt gaps are the differences of successive measured
        attempt slots.
        """
        rows, width = active.shape
        end = t0 + rows
        start = min(max(t0, warmup), end)  # first measured slot
        counts, slot, prev, seen, last = _link_events(success, t0, self.last_success)
        steps = (slot - prev) * (end - np.maximum(slot, start))
        lowered = np.zeros(width, dtype=np.int64)
        lowered[seen] = np.add.reduceat(steps, last - counts[seen] + 1)
        self.aoi_sum += (start + 1 + end) * (end - start) // 2 - (end - start) * self.last_success - lowered
        self.successes += np.count_nonzero(success[start - t0:], axis=0)
        self.last_success[seen] = slot[last]
        counts, slot, prev, seen, last = _link_events(active[start - t0:], start, self.last_attempt)
        self.attempts += counts
        gaps = (slot - prev)[prev >= 0]
        stats = (gaps.size, gaps.sum(), (gaps * gaps).sum())
        self.gaps = tuple(a + int(b) for a, b in zip(self.gaps, stats))
        self.last_attempt[seen] = slot[last]


def _level_table(chain: EnergyChainConfig, top: int) -> tuple[int, np.ndarray]:
    """The next-level table of phase A for blocks of k slots: (k, table).

    A slot's symbol is gate (top + 1) + arrivals, one of S = 2 (top + 1); a
    block's word spells its k symbols in base S, first slot lowest.
    table[j, word (B + 1) + level] is the level after slot j of the block
    from that level.  k is the largest value whose table holds at most
    _TABLE entries, or 1.
    """
    symbols, depth = 2 * (top + 1), chain.B + 1
    k = 1
    while symbols ** (k + 1) * depth * (k + 1) <= _TABLE:
        k += 1
    lv = np.arange(depth)
    gate, arrivals = np.divmod(np.arange(symbols), top + 1)
    fire = (lv >= chain.N) & (gate[:, None] == 1)
    one = np.minimum(lv - chain.N * fire + arrivals[:, None], chain.B)  # [symbol, level]
    words = np.arange(symbols**k)[:, None]
    level = np.broadcast_to(lv, (symbols**k, depth))
    table = np.empty((k, symbols**k, depth), dtype=np.min_scalar_type(chain.B))
    for j in range(k):
        level = table[j] = one[words // symbols**j % symbols, level]
    return k, table.reshape(k, -1)


def _buffer_scan(reals: list[_Realization], slots: int, chain: EnergyChainConfig,
                 arrivals: ArrivalPattern, updates: UpdatePattern):
    """Phase A: yields (first slot, post-slot levels, activations) chunk by chunk.

    Buffers never read decoding outcomes, so one loop over the slots runs
    on a flat vector holding every link of every realization.  Its body is
    a single gather from a table of the next k levels indexed by (block
    word, level), see _level_table.  A chunk holds _CELLS // width slots,
    at least one, where width is the number of links in all.
    """
    width = sum(r.n for r in reals)
    rows_max = max(1, _CELLS // width)

    def flat(draw, axis=1):
        return np.concatenate([draw(r) for r in reals], axis=axis)

    top = arrivals.e_max if isinstance(arrivals, BinomialArrivals) else 1
    k, table = _level_table(chain, top)
    symbols = 2 * (top + 1)
    index = np.empty(width, dtype=np.intp)
    good = flat(lambda r: r.markov_good, axis=0) if isinstance(arrivals, TwoStateMarkovArrivals) else None
    phase = flat(lambda r: r.phase, axis=0) if isinstance(updates, PeriodicUpdates) else None
    levels = np.zeros((1, width), dtype=table.dtype)  # row 0: the level before the chunk
    for t0 in range(0, slots, rows_max):
        rows = min(rows_max, slots - t0)
        if isinstance(arrivals, BernoulliArrivals):
            arr = flat(lambda r: r.arr_rng.random((rows, r.n)) < arrivals.xi)
        elif isinstance(arrivals, BinomialArrivals):
            arr = flat(lambda r: r.arr_rng.binomial(arrivals.e_max, arrivals.p, size=(rows, r.n)))
        else:
            u = flat(lambda r: r.arr_rng.random((rows, 2, r.n)), axis=2)
            arr, good = _markov_arrivals(arrivals, good, u)
        if phase is not None:
            gate = (t0 + np.arange(rows)[:, None] + phase) % updates.period == 0
        else:
            gate = flat(lambda r: r.act_rng.random((rows, r.n)) < updates.eta)
        blocks = -(-rows // k)
        # the padded rows past the chunk read symbol 0 and are dropped
        symbol = np.zeros((blocks * k, width), dtype=np.min_scalar_type(symbols - 1))
        np.multiply(gate, top + 1, out=symbol[:rows], casting="unsafe")
        np.add(symbol[:rows], arr, out=symbol[:rows], casting="unsafe")
        symbol = symbol.reshape(blocks, k, width)
        word = symbol[:, -1].astype(np.intp)
        for j in range(k - 2, -1, -1):
            word *= symbols
            word += symbol[:, j]
        word *= chain.B + 1
        levels = np.concatenate((levels[-1:], np.empty((blocks * k, width), dtype=table.dtype)))
        for b in range(blocks):
            np.add(word[b], levels[b * k], out=index)
            # every index is in range; "clip" spares the buffered copy of the default check
            table.take(index, axis=1, out=levels[b * k + 1:(b + 1) * k + 1], mode="clip")
        levels = levels[:rows + 1]
        yield t0, levels[1:], (levels[:-1] >= chain.N) & gate


def run(sim: SimConfig, phy: PhyConfig, net: NetworkConfig,
        topology: Topology | None = None) -> SimReport:
    """Monte Carlo estimate of the network average AoI and its companions.

    Realizations are independent (fresh topology and fading) and own
    deterministic substreams, so the report is reproducible bit for bit for
    a given (seed, config), and the first k realization means do not depend
    on how many more follow.  Passing ``topology`` pins the node layout for
    every realization (useful for single-link and sensitivity studies);
    only the temporal randomness is redrawn.
    """
    arrivals = sim.arrivals if sim.arrivals is not None else BernoulliArrivals(net.xi)
    updates = sim.updates if sim.updates is not None else BernoulliUpdates(net.eta)
    chain = net.chain
    warmup = sim.warmup if sim.warmup is not None else _default_warmup(chain.N, arrivals, updates, sim.slots)
    reals = [_Realization(ridx, sim, phy, net, arrivals, updates, topology)
             for ridx in range(sim.realizations)]
    links = np.array([r.n for r in reals])
    bounds = np.cumsum(links) - links
    occupancy = np.zeros(chain.B + 1, dtype=np.int64)
    tally = _Tally(int(links.sum()))
    for t0, levels, active in _buffer_scan(reals, sim.slots, chain, arrivals, updates):
        occupancy += np.bincount(levels[max(0, warmup - t0):].ravel(), minlength=chain.B + 1)
        success = np.zeros_like(active)
        for r, lo in zip(reals, bounds):
            slot, link = r.decode(active[:, lo:lo + r.n])
            success[slot, lo + link] = True
        tally.absorb(t0, active, success, warmup)

    measured = sim.slots - warmup
    per_link = tally.aoi_sum / measured
    means = np.array([per_link[lo:lo + r.n].mean() for r, lo in zip(reals, bounds)])
    attempts, successes = tally.attempts, tally.successes
    delivered = successes > 0
    inv_mu = float(np.mean(attempts[delivered] / successes[delivered])) if delivered.any() else math.inf
    count, total, squares = tally.gaps
    ci = 1.96 * float(means.std(ddof=1)) / math.sqrt(len(means)) if len(means) > 1 else 0.0
    return SimReport(
        network_aoi=float(means.mean()),
        ci_halfwidth=ci,
        empirical_mu=int(successes.sum()) / int(attempts.sum()) if attempts.any() else math.nan,
        empirical_inv_mu=inv_mu,
        empirical_interval_mean=total / count if count else math.nan,
        empirical_interval_second=squares / count if count else math.nan,
        per_link_aoi=per_link,
        occupancy=occupancy / occupancy.sum(),
        realization_means=means,
        slots_measured=measured,
        links=links,
        activity=int(attempts.sum()) / (measured * int(links.sum())),
    )
