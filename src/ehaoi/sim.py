"""Slotted Monte Carlo simulator of the energy-harvesting random access network.

Source-destination pairs are dropped as a Poisson process on a square that
wraps around (minimum-image torus), so every receiver sees a statistically
edge-free interference field.  Each slot: energy arrives, nodes holding at
least N units fire with the configured update pattern, Rayleigh fades are
drawn independently per transmitter-receiver pair, and a packet is delivered
when its SINR clears the decoding threshold and an independent decode coin
with success probability 1 - eps comes up good.  Ages reset to one on
delivery and grow by one otherwise.

The simulator makes none of the analytical independence approximations,
which is what makes it the validation oracle for every closed form.
Identical (seed, configuration) inputs give bit-identical reports; each
realization owns a counter-based substream keyed on (seed, index).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .aoi import NetworkConfig, PhyConfig
from .energy_chain import EnergyChainConfig
from .errors import EmptyRealization

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

_CHUNK = 4096


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

    def plane_distances(self) -> np.ndarray:
        delta = self.sources[:, None, :] - self.receivers[None, :, :]
        return np.hypot(delta[..., 0], delta[..., 1])


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run shape.

    warmup None picks 10 max(N/xi, 1/eta) slots, several multiples of the
    slowest natural timescale.  census trims statistics collection to the
    central fraction of the area (useful with boundary="plane"; the default
    torus needs no trimming).
    """

    slots: int
    realizations: int
    seed: int
    side: float
    warmup: int | None = None
    arrivals: ArrivalPattern | None = None
    updates: UpdatePattern | None = None
    census: float = 1.0
    boundary: str = "torus"

    def __post_init__(self):
        if self.slots <= 0 or self.realizations <= 0:
            raise ValueError("slots and realizations must be positive")
        if self.warmup is not None and not 0 <= self.warmup < self.slots:
            raise ValueError("warmup must lie inside the horizon")
        if not 0.0 < self.census <= 1.0:
            raise ValueError("census must be in (0, 1]")
        if self.boundary not in ("torus", "plane"):
            raise ValueError("boundary must be 'torus' or 'plane'")
        if self.side <= 0.0:
            raise ValueError("side must be positive")


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo estimates.

    network_aoi averages the per-link time-average age over census links
    and realizations; ci_halfwidth is the 95% normal interval across
    realization means.  empirical_mu pools successes over attempts, while
    empirical_inv_mu averages per-link attempts/successes (the quantity the
    reciprocal-moment formula predicts).  occupancy is the post-warmup
    buffer-level frequency over all nodes and slots.
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


def sample_topology(
    density: float,
    side: float,
    r: float,
    rng: np.random.Generator,
    resample: bool = False,
) -> Topology:
    """Poisson(density side^2) sources, each receiver at distance r, wrapped.

    Raises EmptyRealization when the Poisson draw is zero, unless
    ``resample`` asks for redraws.
    """
    if density * side**2 < 1.0:
        raise ValueError("expected node count below one; enlarge side or density")
    for _ in range(1000):
        n = int(rng.poisson(density * side**2))
        if n > 0:
            break
        if not resample:
            raise EmptyRealization("Poisson draw produced zero links")
    else:
        raise EmptyRealization("Poisson draw produced zero links in 1000 retries")
    sources = rng.random((n, 2)) * side
    angles = rng.random(n) * 2.0 * math.pi
    offsets = np.column_stack((np.cos(angles), np.sin(angles))) * r
    receivers = np.mod(sources + offsets, side)
    return Topology(sources=sources, receivers=receivers, side=side)


class LinkSimulation:
    """Single-realization slotted engine over a fixed topology.

    Public state: ``kappa`` (buffer levels), ``aoi`` (current ages),
    ``slot`` (next slot index).  ``step()`` advances one slot and returns
    the active indices, the success mask, and the arrival counts, so the
    per-slot semantics are directly testable.
    """

    def __init__(
        self,
        topology: Topology,
        phy: PhyConfig,
        chain: EnergyChainConfig,
        arrivals: ArrivalPattern,
        updates: UpdatePattern,
        rng: np.random.Generator,
        boundary: str = "torus",
    ):
        self.topology = topology
        self.rng = rng
        self.n = topology.n_links
        self.N = chain.N
        self.B = chain.B
        self.theta = phy.theta
        self.eps = phy.eps
        self.noise = 0.0 if math.isinf(phy.tx_snr) else 1.0 / phy.tx_snr
        dist = topology.torus_distances() if boundary == "torus" else topology.plane_distances()
        self.pathloss = dist ** (-phy.alpha)
        self.arrivals = arrivals
        self.updates = updates
        self.kappa = np.zeros(self.n, dtype=np.int64)  # buffers start empty
        self.aoi = np.zeros(self.n, dtype=np.int64)
        self.slot = 0
        if isinstance(updates, PeriodicUpdates):
            self.phase = rng.integers(0, updates.period, size=self.n)
        else:
            self.phase = None
        if isinstance(arrivals, TwoStateMarkovArrivals):
            p_good = arrivals.p_bad_to_good / (arrivals.p_good_to_bad + arrivals.p_bad_to_good)
            self.markov_good = rng.random(self.n) < p_good
        else:
            self.markov_good = None
        self._arr_buf = np.empty((0, self.n), dtype=np.int64)
        self._act_buf = np.empty((0, self.n))
        self._cursor = 0

    def _refill(self):
        rows = _CHUNK
        arrivals = self.arrivals
        if isinstance(arrivals, BernoulliArrivals):
            arr = (self.rng.random((rows, self.n)) < arrivals.xi).astype(np.int64)
        elif isinstance(arrivals, BinomialArrivals):
            arr = self.rng.binomial(arrivals.e_max, arrivals.p, size=(rows, self.n)).astype(np.int64)
        else:
            draw = self.rng.random((rows, self.n))
            flip = self.rng.random((rows, self.n))
            arr = np.empty((rows, self.n), dtype=np.int64)
            good = self.markov_good
            for t in range(rows):
                rate = np.where(good, arrivals.xi_good, arrivals.xi_bad)
                arr[t] = draw[t] < rate
                p_leave = np.where(good, arrivals.p_good_to_bad, arrivals.p_bad_to_good)
                good = good ^ (flip[t] < p_leave)
            self.markov_good = good
        # activation uniforms are drawn for every pattern so the stream
        # alignment (and hence seeded comparability) does not depend on it
        self._act_buf = self.rng.random((rows, self.n))
        self._arr_buf = arr
        self._cursor = 0

    def step(self):
        """Advance one slot; returns (active_idx, success_mask, arrivals).

        Activation requires kappa >= N at the slot start; the same slot's
        arrival is banked afterwards, and anything beyond B is discarded.
        """
        if self._cursor >= self._arr_buf.shape[0]:
            self._refill()
        arr = self._arr_buf[self._cursor]
        act_draw = self._act_buf[self._cursor]
        self._cursor += 1
        can = self.kappa >= self.N
        if self.phase is not None:
            active = can & ((self.slot + self.phase) % self.updates.period == 0)
        else:
            active = can & (act_draw < self.updates.eta)
        idx = np.flatnonzero(active)
        success = np.zeros(self.n, dtype=bool)
        m = idx.size
        if m:
            fade = self.rng.standard_exponential((m, m))
            power = fade * self.pathloss[np.ix_(idx, idx)]
            sig = power.diagonal().copy()
            interference = power.sum(axis=0) - sig
            ok = sig > self.theta * (interference + self.noise)
            if self.eps > 0.0:
                ok &= self.rng.random(m) >= self.eps
            success[idx[ok]] = True
        self.aoi += 1
        self.aoi[success] = 1
        self.kappa = np.minimum(self.kappa - self.N * active + arr, self.B)
        self.slot += 1
        return idx, success, arr


@dataclass
class _RealizationStats:
    aoi_mean: float
    per_link_aoi: np.ndarray
    attempts: np.ndarray
    successes: np.ndarray
    interval_sum: float
    interval_sq_sum: float
    interval_count: int
    occupancy: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _census_mask(topology: Topology, census: float) -> np.ndarray:
    if census >= 1.0:
        return np.ones(topology.n_links, dtype=bool)
    half = 0.5 * topology.side * math.sqrt(census)
    centered = np.abs(topology.receivers - 0.5 * topology.side)
    return (centered[:, 0] <= half) & (centered[:, 1] <= half)


def _default_warmup(chain: EnergyChainConfig, updates: UpdatePattern) -> int:
    eta_eff = updates.eta if isinstance(updates, BernoulliUpdates) else 1.0 / updates.period
    return int(math.ceil(10.0 * max(chain.N / chain.xi, 1.0 / eta_eff)))


def _simulate_one(ridx: int, sim: SimConfig, phy: PhyConfig, net: NetworkConfig,
                  arrivals: ArrivalPattern, updates: UpdatePattern, warmup: int,
                  topology: Topology | None = None) -> _RealizationStats:
    seq = np.random.SeedSequence(entropy=sim.seed, spawn_key=(ridx,))
    rng = np.random.Generator(np.random.Philox(key=seq.generate_state(2, np.uint64)))
    if topology is None:
        topology = sample_topology(net.density, sim.side, phy.r, rng, resample=True)
    chain = net.chain
    eng = LinkSimulation(topology, phy, chain, arrivals, updates, rng,
                         boundary=sim.boundary)
    n = eng.n
    mask = _census_mask(topology, sim.census)
    aoi_sum = np.zeros(n, dtype=np.float64)
    attempts = np.zeros(n, dtype=np.int64)
    successes = np.zeros(n, dtype=np.int64)
    last_attempt = np.full(n, -1, dtype=np.int64)
    t_sum = 0.0
    t2_sum = 0.0
    t_count = 0
    occupancy = np.zeros(chain.B + 1, dtype=np.int64)
    for t in range(sim.slots):
        idx, success, _ = eng.step()
        if t >= warmup:
            aoi_sum += eng.aoi
            occupancy += np.bincount(eng.kappa, minlength=chain.B + 1)
            if idx.size:
                attempts[idx] += 1
                successes[success] += 1
                prev = last_attempt[idx]
                seen = prev >= warmup
                if seen.any():
                    gaps = (t - prev[seen]).astype(np.float64)
                    t_sum += gaps.sum()
                    t2_sum += (gaps**2).sum()
                    t_count += gaps.size
        if idx.size:
            last_attempt[idx] = t
    measured = sim.slots - warmup
    per_link = aoi_sum[mask] / measured
    return _RealizationStats(
        aoi_mean=float(per_link.mean()),
        per_link_aoi=per_link,
        attempts=attempts[mask],
        successes=successes[mask],
        interval_sum=t_sum,
        interval_sq_sum=t2_sum,
        interval_count=t_count,
        occupancy=occupancy,
    )


def run(sim: SimConfig, phy: PhyConfig, net: NetworkConfig, threads: int = 1,
        topology: Topology | None = None) -> SimReport:
    """Monte Carlo estimate of the network average AoI and its companions.

    Realizations are independent (fresh topology and fading) and own
    deterministic substreams, so the report is reproducible bit for bit for
    a given (seed, config) regardless of ``threads``.  Passing ``topology``
    pins the node layout for every realization (useful for single-link and
    sensitivity studies); only the temporal randomness is redrawn.
    """
    arrivals = sim.arrivals if sim.arrivals is not None else BernoulliArrivals(net.xi)
    updates = sim.updates if sim.updates is not None else BernoulliUpdates(net.eta)
    chain = net.chain
    warmup = sim.warmup if sim.warmup is not None else min(_default_warmup(chain, updates), sim.slots // 2)

    def job(ridx: int) -> _RealizationStats:
        return _simulate_one(ridx, sim, phy, net, arrivals, updates, warmup, topology)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            stats = list(pool.map(job, range(sim.realizations)))
    else:
        stats = [job(ridx) for ridx in range(sim.realizations)]

    means = np.array([s.aoi_mean for s in stats])
    per_link = np.concatenate([s.per_link_aoi for s in stats])
    attempts = np.concatenate([s.attempts for s in stats])
    successes = np.concatenate([s.successes for s in stats])
    total_attempts = int(attempts.sum())
    total_successes = int(successes.sum())
    delivered = successes > 0
    inv_mu = float(np.mean(attempts[delivered] / successes[delivered])) if delivered.any() else math.inf
    t_count = sum(s.interval_count for s in stats)
    t_mean = sum(s.interval_sum for s in stats) / t_count if t_count else math.nan
    t_second = sum(s.interval_sq_sum for s in stats) / t_count if t_count else math.nan
    occupancy = np.sum([s.occupancy for s in stats], axis=0)
    ci = 1.96 * float(means.std(ddof=1)) / math.sqrt(len(means)) if len(means) > 1 else 0.0
    return SimReport(
        network_aoi=float(means.mean()),
        ci_halfwidth=ci,
        empirical_mu=total_successes / total_attempts if total_attempts else math.nan,
        empirical_inv_mu=inv_mu,
        empirical_interval_mean=t_mean,
        empirical_interval_second=t_second,
        per_link_aoi=per_link,
        occupancy=occupancy / occupancy.sum(),
        realization_means=means,
        slots_measured=sim.slots - warmup,
    )
