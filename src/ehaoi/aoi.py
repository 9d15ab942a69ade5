"""Analytical network-average age of information.

Assembles the Poisson-field moment of the reciprocal success probability,
the inter-attempt interval moments driven by the energy buffer, and the
renewal-reward age formula, together with the closed forms for the
single-transmission buffer (B = N), greedy updating (eta = 1), and the
infinite-buffer limit in both the energy-sufficient and energy-constrained
regimes.

All SNR-like quantities are linear inside this module; convert decibel
inputs with :func:`db_to_linear` at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .energy_chain import (
    EnergyChainConfig,
    SteadyState,
    char_root,
    char_root_approx,
    prob_energy_sufficient,
)
from .errors import NeverSufficient, SaturatedAccess

__all__ = [
    "PhyConfig",
    "NetworkConfig",
    "IntervalMoments",
    "db_to_linear",
    "omega",
    "inv_success_moment",
    "interval_moments",
    "network_aoi_general",
    "network_aoi_small_buffer",
    "small_buffer_split",
    "network_aoi_greedy",
    "network_aoi_large_buffer",
    "aoi_scaling_large_n",
    "zeta_rectification",
    "slotted_aloha_aoi",
    "active_probability_small_buffer",
]


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _require_finite(owner: str, **fields: float | None) -> None:
    """Reject NaN and infinite config fields; None marks an unset optional."""
    bad = [name for name, value in fields.items() if value is not None and not math.isfinite(value)]
    if bad:
        raise ValueError(f"{owner} fields must be finite: {', '.join(bad)}")


@dataclass(frozen=True)
class PhyConfig:
    """Link-level physical parameters.

    alpha   -- path loss exponent, > 2
    r       -- source-destination distance [m]
    tx_snr  -- transmit power over noise power, linear (math.inf = noise-free)
    theta   -- effective SINR decoding threshold for the configured code
    eps     -- frame error probability of the code
    target_rate / bits_per_unit -- optional coding context used by the
        optimizer and CLI when the threshold must be recomputed per N.
    """

    alpha: float
    r: float
    tx_snr: float
    theta: float
    eps: float
    target_rate: float | None = None
    bits_per_unit: int | None = None

    def __post_init__(self):
        _require_finite("PhyConfig", alpha=self.alpha, r=self.r, theta=self.theta,
                        eps=self.eps, target_rate=self.target_rate)
        if self.alpha <= 2.0:
            raise ValueError("alpha must exceed 2 for the interference moment to exist")
        # tx_snr = inf is the noise-free link; `not x > 0` also refuses NaN
        if not (self.r > 0.0 and self.tx_snr > 0.0 and self.theta > 0.0):
            raise ValueError("r, tx_snr and theta must be positive")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must be in [0, 1)")

    @classmethod
    def from_db(cls, alpha, r, snr_db, theta, eps, **kw) -> "PhyConfig":
        return cls(alpha=alpha, r=r, tx_snr=db_to_linear(snr_db), theta=theta, eps=eps, **kw)

    def with_theta(self, theta: float) -> "PhyConfig":
        return replace(self, theta=theta)

    @property
    def noise_exponent(self) -> float:
        """sigma^2 r^alpha theta / P_tx; zero for an infinite transmit SNR."""
        if math.isinf(self.tx_snr):
            return 0.0
        return self.r**self.alpha * self.theta / self.tx_snr


@dataclass(frozen=True)
class NetworkConfig:
    """Spatial and protocol parameters of the random access network."""

    density: float  # transmitter density [nodes / m^2]
    N: int
    B: int
    xi: float
    eta: float

    def __post_init__(self):
        _require_finite("NetworkConfig", density=self.density)
        if self.density < 0.0:
            raise ValueError("density must be non-negative")
        # reuse the chain validation for the protocol fields
        self.chain  # noqa: B018

    @property
    def chain(self) -> EnergyChainConfig:
        return EnergyChainConfig(N=self.N, B=self.B, xi=self.xi, eta=self.eta)


@dataclass(frozen=True)
class IntervalMoments:
    """First and second moments of the interval between transmission attempts."""

    mean: float
    second: float

    def __post_init__(self):
        if self.mean < 1.0:
            raise ValueError("attempt intervals are at least one slot")
        if self.second < self.mean**2 - 1e-9:
            raise ValueError("second moment below squared mean")


def omega(theta: float, alpha: float) -> float:
    """Interference geometry factor 2 pi^2 theta^(2/alpha) / (alpha sin(2 pi/alpha)).

    Equals pi theta^(2/alpha) / sinc(2/alpha) with the standard
    sinc(x) = sin(pi x)/(pi x); matches direct quadrature of the underlying
    path-loss integral.
    """
    if theta < 0.0:
        raise ValueError("theta must be non-negative")
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    if theta == 0.0:
        return 0.0
    return 2.0 * math.pi**2 * theta ** (2.0 / alpha) / (alpha * math.sin(2.0 * math.pi / alpha))


def inv_success_moment(phy: PhyConfig, net: NetworkConfig, p_active: float) -> float:
    """E[1/mu]: mean reciprocal transmission success probability.

    exp(lambda Omega r^2 p / (1-p)^(1-2/alpha) + noise exponent) / (1 - eps)
    where p is the per-slot activity probability of a node.
    """
    if p_active < 0.0:
        raise ValueError("p_active must be non-negative")
    if p_active > 1.0 or (p_active == 1.0 and net.density > 0.0):
        raise SaturatedAccess(f"p_active = {p_active} >= 1 saturates the channel")
    if net.density == 0.0:
        exponent = 0.0  # interference-free: only the noise exponent survives
    else:
        geom = net.density * omega(phy.theta, phy.alpha) * phy.r**2
        exponent = geom * p_active / (1.0 - p_active) ** (1.0 - 2.0 / phy.alpha)
    return math.exp(exponent + phy.noise_exponent) / (1.0 - phy.eps)


def interval_moments(ss: SteadyState, cfg: EnergyChainConfig) -> IntervalMoments:
    """Moments of the attempt interval T = accumulation time + access wait.

    Driven by the stationary buffer occupancy just after a transmission:
    levels N..2N-1 decide how many units must still be harvested (levels
    beyond the stored vector count as empty for undersized buffers).
    """
    n, xi, eta = cfg.N, cfg.xi, cfg.eta
    p_suf = prob_energy_sufficient(ss, n)
    if p_suf <= 0.0:
        raise NeverSufficient("steady state has no mass at or above level N")

    def s_at(level: int) -> float:
        return float(ss.probs[level]) if level <= ss.levels else 0.0

    acc1 = sum((n - i - xi) * s_at(n + i) for i in range(n))
    acc2 = sum((n - i) * (n - i + 1.0 - 3.0 * xi) * s_at(n + i) for i in range(n))
    accp = sum(s_at(n + i) for i in range(n))
    mean = 1.0 / eta + acc1 / (xi * p_suf)
    second = (
        (2.0 - eta) / eta**2
        + acc2 / (xi**2 * p_suf)
        + 2.0 * acc1 / (xi * eta * p_suf)
        + accp / p_suf
    )
    return IntervalMoments(mean=mean, second=second)


def network_aoi_general(ss: SteadyState, net: NetworkConfig, phy: PhyConfig) -> float:
    """Network average AoI for an arbitrary buffer size [slots].

    Renewal form E[T^2]/2E[T] + (E[1/mu] - 1) E[T] + 1/2 with the interval
    moments taken from ``ss`` and the success moment from the Poisson field.
    """
    cfg = net.chain
    p_suf = prob_energy_sufficient(ss, cfg.N)
    p_active = net.eta * p_suf
    moments = interval_moments(ss, cfg)
    inv_mu = inv_success_moment(phy, net, p_active)
    return moments.second / (2.0 * moments.mean) + (inv_mu - 1.0) * moments.mean + 0.5


def active_probability_small_buffer(n: int, xi: float, eta: float) -> float:
    """Per-slot transmit probability xi eta / (N eta + xi (1 - eta)) at B = N."""
    return xi * eta / (n * eta + xi * (1.0 - eta))


def slotted_aloha_aoi(p_active: float, net: NetworkConfig, phy: PhyConfig) -> float:
    """AoI of an energy-unconstrained slotted-ALOHA network at activity p_active."""
    return inv_success_moment(phy, net, p_active) / p_active


def small_buffer_split(net: NetworkConfig, phy: PhyConfig) -> tuple[float, float]:
    """(slotted-ALOHA part, rectification part) of the B = N closed form.

    The total AoI is their sum: an interference-limited ALOHA network at the
    recalibrated rate phi_N, corrected for the temporal energy correlation.
    """
    n, xi, eta = net.N, net.xi, net.eta
    ph = active_probability_small_buffer(n, xi, eta)
    sa = slotted_aloha_aoi(ph, net, phy)
    rectification = -(1.0 / eta + (n - 1.0) / (2.0 * xi)) * n * ph / xi + 1.0
    return sa, rectification


def network_aoi_small_buffer(net: NetworkConfig, phy: PhyConfig) -> float:
    """Closed-form network average AoI for the single-transmission buffer B = N."""
    if net.B != net.N:
        raise ValueError("small-buffer closed form holds for B == N")
    sa, rectification = small_buffer_split(net, phy)
    return sa + rectification


def network_aoi_greedy(net: NetworkConfig, phy: PhyConfig) -> float:
    """Closed-form network average AoI under greedy updating (eta = 1, any B >= N)."""
    if net.eta != 1.0:
        raise ValueError("greedy closed form holds for eta == 1")
    n, xi = net.N, net.xi
    return slotted_aloha_aoi(xi / n, net, phy) - (n - 1.0) / (2.0 * xi)


def zeta_rectification(n: int, eta: float, xi: float, z: float) -> float:
    """Temporal-correlation rectification of the infinite-buffer scarce regime.

    -z/(xi(1-z)) + z/(N eta (1-z)) + 1/eta - 1; identically zero for N = 1
    and in the eta -> 1 limit, non-negative on eta in [xi/N, 1].
    """
    if z == 1.0:
        raise ValueError("zeta is undefined at the balance point z = 1")
    return (
        -z / (xi * (1.0 - z))
        + z / (n * eta * (1.0 - z))
        + 1.0 / eta
        - 1.0
    )


def network_aoi_large_buffer(
    net: NetworkConfig, phy: PhyConfig, use_approx_root: bool = False
) -> float:
    """Infinite-buffer network average AoI, both energy regimes.

    Scarce energy (xi < N eta): ALOHA at rate xi/N plus the root-dependent
    rectification; abundant energy (N eta <= xi): ALOHA at rate eta.  The
    characteristic root is the exact bisection root unless
    ``use_approx_root`` asks for the closed-form surrogate (useful for gap
    studies against the surrogate-based expressions).
    """
    n, xi, eta = net.N, net.xi, net.eta
    if n * eta <= xi:
        return slotted_aloha_aoi(eta, net, phy)
    root = char_root_approx(n, xi, eta) if use_approx_root else char_root(n, xi, eta)
    if root == 1.0:
        # rounding placed N eta microscopically above xi: both regime
        # expressions meet at the ALOHA value there
        return slotted_aloha_aoi(eta, net, phy)
    sa = slotted_aloha_aoi(xi / n, net, phy)
    return sa - (n - 1.0) / (2.0 * xi) + zeta_rectification(n, eta, xi, root)


def aoi_scaling_large_n(net: NetworkConfig, phy: PhyConfig) -> float:
    """Large-N linear scaling law of the scarce-energy AoI.

    (N / 2 xi) (2 exp(noise exponent) / (1 - eps) - 1), with ``phy.theta``
    set to the infinite-blocklength threshold 2^R_t - 1 (interference
    vanishes at rate 1/N and is dropped here).
    """
    return (net.N / (2.0 * net.xi)) * (
        2.0 * math.exp(phy.noise_exponent) / (1.0 - phy.eps) - 1.0
    )
