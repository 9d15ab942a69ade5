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
uniform per attempt against that probability; ``LinkSimulation.step`` keeps
explicit fades as the independent per-slot reference.  ``run`` works in two
phases over chunks of slots.  Phase A scans the buffers of every link of
every realization at once, since buffers never read decoding outcomes;
phase B then decodes each realization's attempts and folds in ages,
attempts and inter-attempt gaps.  Identical (seed, configuration) inputs
give bit-identical reports; each realization owns counter-based substreams
keyed on (seed, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aoi import NetworkConfig, PhyConfig
from .energy_chain import EnergyChainConfig
from .errors import require_finite

__all__ = [
    "BernoulliArrivals",
    "BinomialArrivals",
    "TwoStateMarkovArrivals",
    "BernoulliUpdates",
    "PeriodicUpdates",
    "SimConfig",
    "Topology",
    "SimReport",
    "LinkSimulation",
    "sample_topology",
    "run",
]

_CHUNK = 4096  # most slots per phase A chunk
_CELLS = 1 << 17  # most slot x link cells per phase A chunk
_GAIN_CAP = 1024.0  # exp(-1024) is 0.0, so a larger log-gain decides nothing more


@dataclass(frozen=True)
class BernoulliArrivals:
    """One energy unit per slot with probability xi."""

    xi: float

    @property
    def mean_rate(self) -> float:
        return self.xi


@dataclass(frozen=True)
class BinomialArrivals:
    """Up to e_max units per slot, each arriving independently w.p. p."""

    e_max: int
    p: float

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

    @property
    def mean_rate(self) -> float:
        return (
            self.p_bad_to_good * self.xi_good + self.p_good_to_bad * self.xi_bad
        ) / (self.p_good_to_bad + self.p_bad_to_good)


@dataclass(frozen=True)
class BernoulliUpdates:
    """Fire with probability eta whenever the buffer allows it."""

    eta: float


@dataclass(frozen=True)
class PeriodicUpdates:
    """Fire only on the per-node phase slot of every period (if affordable).

    Period 1 attempts every affordable slot and is therefore equal in law to
    Bernoulli updating with eta = 1.
    """

    period: int


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
        if self.slots <= 0 or self.realizations <= 0:
            raise ValueError("slots and realizations must be positive")
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


def sample_topology(
    density: float,
    side: float,
    r: float,
    rng: np.random.Generator,
) -> Topology:
    """Poisson(density side^2) sources, each receiver at distance r, wrapped.

    A draw of zero links is redrawn.  The expected count is at least one,
    so a draw comes up empty with probability at most 1/e.
    """
    if density * side**2 < 1.0:
        raise ValueError("expected node count below one; enlarge side or density")
    n = 0
    while n == 0:
        n = int(rng.poisson(density * side**2))
    sources = rng.random((n, 2)) * side
    angles = rng.random(n) * 2.0 * math.pi
    offsets = np.column_stack((np.cos(angles), np.sin(angles))) * r
    receivers = np.mod(sources + offsets, side)
    return Topology(sources=sources, receivers=receivers, side=side)


def _markov_step(pattern: TwoStateMarkovArrivals, good: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One slot of Markov arrivals from the uniforms u[0], u[1]; advances ``good`` in place."""
    arr = u[0] < np.where(good, pattern.xi_good, pattern.xi_bad)
    good ^= u[1] < np.where(good, pattern.p_good_to_bad, pattern.p_bad_to_good)
    return arr


class LinkSimulation:
    """Per-slot reference engine for one realization over a fixed topology.

    Public state: ``kappa`` (buffer levels), ``aoi`` (current ages),
    ``slot`` (next slot index).  ``step()`` advances one slot and returns
    the active indices, the success mask, and the arrival counts, so the
    per-slot semantics are directly testable.  ``run`` does not step it:
    the batched engine takes its link constants and starting state from
    here and is checked against ``step()`` in distribution.
    """

    def __init__(self, topology: Topology, phy: PhyConfig, chain: EnergyChainConfig,
                 arrivals: ArrivalPattern, updates: UpdatePattern, rng: np.random.Generator):
        self.rng = rng
        self.n = topology.n_links
        self.N, self.B = chain.N, chain.B
        self.theta, self.eps = phy.theta, phy.eps
        self.noise = 0.0 if math.isinf(phy.tx_snr) else 1.0 / phy.tx_snr
        with np.errstate(divide="ignore"):  # a source on a receiver: infinite path loss
            self.pathloss = topology.torus_distances() ** (-phy.alpha)
        self.arrivals, self.updates = arrivals, updates
        self.kappa = np.zeros(self.n, dtype=np.int64)  # buffers start empty
        self.aoi = np.zeros(self.n, dtype=np.int64)
        self.slot = 0
        self.phase = self.markov_good = None
        if isinstance(updates, PeriodicUpdates):
            self.phase = rng.integers(0, updates.period, size=self.n)
        if isinstance(arrivals, TwoStateMarkovArrivals):
            # start in the stationary split, so the rate is mean_rate from slot one
            p_good = arrivals.p_bad_to_good / (arrivals.p_good_to_bad + arrivals.p_bad_to_good)
            self.markov_good = rng.random(self.n) < p_good

    def step(self):
        """Advance one slot; returns (active_idx, success_mask, arrivals).

        Activation requires kappa >= N at the slot start; the same slot's
        arrival is banked afterwards, and anything beyond B is discarded.
        """
        arrivals = self.arrivals
        if isinstance(arrivals, BernoulliArrivals):
            arr = self.rng.random(self.n) < arrivals.xi
        elif isinstance(arrivals, BinomialArrivals):
            arr = self.rng.binomial(arrivals.e_max, arrivals.p, size=self.n)
        else:
            arr = _markov_step(arrivals, self.markov_good, self.rng.random((2, self.n)))
        arr = arr.astype(np.int64)
        can = self.kappa >= self.N
        if self.phase is not None:
            active = can & ((self.slot + self.phase) % self.updates.period == 0)
        else:
            active = can & (self.rng.random(self.n) < self.updates.eta)
        idx = np.flatnonzero(active)
        success = np.zeros(self.n, dtype=bool)
        if idx.size:
            fade = self.rng.standard_exponential((idx.size, idx.size))
            power = fade * self.pathloss[np.ix_(idx, idx)]
            sig = power.diagonal().copy()
            interference = power.sum(axis=0) - sig
            ok = sig > self.theta * (interference + self.noise)
            if self.eps > 0.0:
                ok &= self.rng.random(idx.size) >= self.eps
            success[idx[ok]] = True
        self.aoi += 1
        self.aoi[success] = 1
        self.kappa = np.minimum(self.kappa - self.N * active + arr, self.B)
        self.slot += 1
        return idx, success, arr


def _default_warmup(n_units: int, arrivals: ArrivalPattern, updates: UpdatePattern, slots: int) -> int:
    """10 max(N / mean arrival rate, 1 / eta) slots, at most half the horizon."""
    eta_eff = updates.eta if isinstance(updates, BernoulliUpdates) else 1.0 / updates.period
    rate = arrivals.mean_rate
    settle = 10.0 * max(n_units / rate if rate > 0.0 else math.inf, 1.0 / eta_eff)
    return math.ceil(min(settle, slots // 2))


class _Realization:
    """One realization: its links, a substream per draw kind, and its tallies.

    Arrivals, activations and decode coins each have their own substream,
    consumed in slot order, so the way the slots are chunked never shifts a
    stream.  All tallies are integers, so chunking never changes a sum
    either.
    """

    def __init__(self, ridx: int, sim: SimConfig, phy: PhyConfig, net: NetworkConfig,
                 arrivals: ArrivalPattern, updates: UpdatePattern, topology: Topology | None):
        seq = np.random.SeedSequence(entropy=sim.seed, spawn_key=(ridx,))
        rng = np.random.Generator(np.random.Philox(key=seq.generate_state(2, np.uint64)))
        if topology is None:
            topology = sample_topology(net.density, sim.side, phy.r, rng)
        self.arr_rng, self.act_rng, self.coin_rng = (
            np.random.Generator(np.random.Philox(child)) for child in seq.spawn(3))
        # the periodic phase and the Markov start come from the arrivals substream
        self.link = LinkSimulation(topology, phy, net.chain, arrivals, updates, self.arr_rng)
        n = self.n = topology.n_links
        self.aoi_sum, self.attempts, self.successes = (np.zeros(n, dtype=np.int64) for _ in range(3))
        self.last_success = np.zeros(n, dtype=np.int64)  # so ages start at 1
        self.last_attempt = np.full(n, -1, dtype=np.int64)  # last measured attempt
        self.gaps = (0, 0, 0)  # count, sum and sum of squares of inter-attempt gaps
        # -log P(link i decodes) = c_i + sum of G[j, i] over the other active j,
        # with G[j, i] = log1p(theta L_ji / L_ii).  G is kept in whole units of
        # a power of two so small that every column sum is an integer below
        # 2^53: all partial sums of the product in absorb are then exact, and
        # no blocking or thread count of the BLAS can change a bit.  The
        # rounding moves -log P by at most n quantum / 2 (2e-9 at 144 links).
        theta, pathloss = self.link.theta, self.link.pathloss
        own = pathloss.diagonal()
        gain = np.minimum(np.log1p(theta * pathloss / own), _GAIN_CAP)
        np.fill_diagonal(gain, 0.0)
        self.quantum = 2.0 ** (math.ceil(math.log2(max(n, 1) * _GAIN_CAP)) - 53)
        self.gain = np.rint(gain / self.quantum)  # [source j, receiver i]
        self.noise_term = theta * self.link.noise / own  # c_i

    def absorb(self, t0: int, active: np.ndarray, warmup: int) -> None:
        """Phase B: decode one chunk's attempts, then fold ages, attempts and gaps in.

        Each attempt, in (slot, link) order, draws one uniform against its
        success probability given the links active in its slot.
        """
        rows = active.shape[0]
        slot, link = np.nonzero(active)
        neg_log_p = (active.astype(np.float64) @ self.gain)[slot, link] * self.quantum
        neg_log_p += self.noise_term[link]
        ok = self.coin_rng.random(link.size) < (1.0 - self.link.eps) * np.exp(-neg_log_p)
        success = np.zeros_like(active)
        success[slot[ok], link[ok]] = True
        post = max(0, warmup - t0)  # first measured row
        t = t0 + np.arange(rows)[:, None]
        measured = active[post:]
        # row k: the last success (or 0) and the last measured attempt (or -1) before row k
        last = np.maximum.accumulate(np.vstack((self.last_success, np.where(success, t, 0))))
        tried = np.maximum.accumulate(np.vstack((self.last_attempt, np.where(measured, t[post:], -1))))
        self.last_success, self.last_attempt = last[-1].copy(), tried[-1].copy()
        self.aoi_sum += (t[post:] + 1).sum() - last[post + 1:].sum(axis=0)  # age: t - last + 1
        self.attempts += measured.sum(axis=0)
        self.successes += success[post:].sum(axis=0)
        gaps = (t[post:] - tried[:-1])[measured & (tried[:-1] >= 0)]
        stats = (gaps.size, gaps.sum(), (gaps * gaps).sum())
        self.gaps = tuple(a + int(b) for a, b in zip(self.gaps, stats))


def _buffer_scan(reals: list[_Realization], slots: int, chain: EnergyChainConfig,
                 arrivals: ArrivalPattern, updates: UpdatePattern):
    """Phase A: yields (first slot, post-slot levels, activations) chunk by chunk.

    Buffers never read decoding outcomes, so one loop over the slots runs
    on a flat vector holding every link of every realization.  Its body is
    a single gather from a table of next levels indexed by (gate,
    arrivals, level).  Chunks hold at most _CELLS slot x link cells.
    """
    width = sum(r.n for r in reals)
    rows_max = max(1, min(_CHUNK, _CELLS // max(width, 1)))

    def flat(draw, axis=1):
        return np.concatenate([draw(r) for r in reals], axis=axis)

    top = arrivals.e_max if isinstance(arrivals, BinomialArrivals) else 1
    lv = np.arange(chain.B + 1)
    fire = (lv >= chain.N) & (np.arange(2)[:, None, None] == 1)
    table = np.minimum(lv - chain.N * fire + np.arange(top + 1)[:, None], chain.B).ravel()
    level = np.zeros(width, dtype=np.intp)
    index = np.empty(width, dtype=np.intp)
    good = flat(lambda r: r.link.markov_good, axis=0) if isinstance(arrivals, TwoStateMarkovArrivals) else None
    phase = flat(lambda r: r.link.phase, axis=0) if isinstance(updates, PeriodicUpdates) else None
    for t0 in range(0, slots, rows_max):
        rows = min(rows_max, slots - t0)
        if isinstance(arrivals, BernoulliArrivals):
            arr = flat(lambda r: r.arr_rng.random((rows, r.n)) < arrivals.xi)
        elif isinstance(arrivals, BinomialArrivals):
            arr = flat(lambda r: r.arr_rng.binomial(arrivals.e_max, arrivals.p, size=(rows, r.n)))
        else:
            u = flat(lambda r: r.arr_rng.random((rows, 2, r.n)), axis=2)
            arr = np.empty((rows, width), dtype=bool)
            for t in range(rows):
                arr[t] = _markov_step(arrivals, good, u[t])
        if phase is not None:
            gate = (t0 + np.arange(rows)[:, None] + phase) % updates.period == 0
        else:
            gate = flat(lambda r: r.act_rng.random((rows, r.n)) < updates.eta)
        code = (gate.astype(np.int32) * (top + 1) + arr) * (chain.B + 1)
        levels = np.empty((rows + 1, width), dtype=np.intp)  # row 0: the level before t0
        levels[0] = level
        for t in range(rows):
            np.add(code[t], levels[t], out=index)
            table.take(index, out=levels[t + 1])
        level = levels[-1].copy()
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
    bounds = np.cumsum([0] + [r.n for r in reals])
    occupancy = np.zeros(chain.B + 1, dtype=np.int64)
    for t0, levels, active in _buffer_scan(reals, sim.slots, chain, arrivals, updates):
        occupancy += np.bincount(levels[max(0, warmup - t0):].ravel(), minlength=chain.B + 1)
        for r, lo, hi in zip(reals, bounds[:-1], bounds[1:]):
            r.absorb(t0, active[:, lo:hi], warmup)

    measured = sim.slots - warmup
    per_link = [r.aoi_sum / measured for r in reals]
    means = np.array([p.mean() for p in per_link])
    attempts = np.concatenate([r.attempts for r in reals])
    successes = np.concatenate([r.successes for r in reals])
    delivered = successes > 0
    inv_mu = float(np.mean(attempts[delivered] / successes[delivered])) if delivered.any() else math.inf
    count, total, squares = (sum(column) for column in zip(*(r.gaps for r in reals)))
    ci = 1.96 * float(means.std(ddof=1)) / math.sqrt(len(means)) if len(means) > 1 else 0.0
    links = np.array([r.n for r in reals])
    return SimReport(
        network_aoi=float(means.mean()),
        ci_halfwidth=ci,
        empirical_mu=int(successes.sum()) / int(attempts.sum()) if attempts.any() else math.nan,
        empirical_inv_mu=inv_mu,
        empirical_interval_mean=total / count if count else math.nan,
        empirical_interval_second=squares / count if count else math.nan,
        per_link_aoi=np.concatenate(per_link),
        occupancy=occupancy / occupancy.sum(),
        realization_means=means,
        slots_measured=measured,
        links=links,
        activity=int(sum(r.attempts.sum() for r in reals)) / (measured * int(links.sum())),
    )
