"""Finite-blocklength coding layer.

Normal-approximation maximum coding rate and the effective SINR decoding
threshold: the SINR at which the achievable rate of a ``c_N = N k`` symbol
codeword equals the target rate.  The exact threshold inverts the rate
expression by bisection; the closed-form variant drops the channel
dispersion factor and upper-bounds the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import (
    NonConvergence, OutOfRegime, bisect_increasing, in_float_range, require_finite,
    require_integer,
)

__all__ = [
    "CodingConfig",
    "gaussian_q",
    "q_inverse",
    "max_coding_rate",
    "effective_threshold_exact",
    "effective_threshold_approx",
]

LOG2E = math.log2(math.e)

# The normal approximation is trusted for c_N >= 100 and eps >= 1e-6; the
# rate inversion is performed on the gamma >= 0.1 monotone branch.
MIN_BLOCKLENGTH = 100
MIN_EPS = 1e-6
GAMMA_FLOOR = 0.1
_RESIDUAL_TOL = 1e-12  # the rate at the threshold must land this close to the target

_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class CodingConfig:
    """Code parameters for one choice of energy units per packet.

    k           -- information bits carried per energy unit
    N           -- energy units per packet, so blocklength c_N = N k symbols
    target_rate -- decoding succeeds when the achievable rate exceeds this
    eps         -- frame error probability budget, in [1e-6, 0.5]
    """

    k: int
    N: int
    target_rate: float
    eps: float

    def __post_init__(self):
        require_integer("CodingConfig", k=self.k, N=self.N)
        require_finite("CodingConfig", target_rate=self.target_rate, eps=self.eps)
        if self.k < 1 or self.N < 1:
            raise ValueError("k and N must be positive integers")
        if self.blocklength < MIN_BLOCKLENGTH:
            raise ValueError(
                f"blocklength {self.blocklength} below validity floor {MIN_BLOCKLENGTH}"
            )
        if not MIN_EPS <= self.eps <= 0.5:
            raise ValueError(f"eps must be in [{MIN_EPS}, 0.5], got {self.eps}")
        if self.target_rate <= 0.0:
            raise ValueError("target_rate must be positive")

    @property
    def blocklength(self) -> int:
        return self.N * self.k


def gaussian_q(x: float) -> float:
    """Q(x) = P(Z > x) for standard normal Z."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse Gaussian Q-function, polished to ~1e-15 relative accuracy.

    Seeded from the standard library's normal quantile as -inv_cdf(p): the
    form inv_cdf(1 - p) would round away the tail at p = 1e-6.  One Newton
    step then guards the round trip Q(q_inverse(p)) == p to well below the
    1e-12 budget the thresholds rely on.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    x = -_STANDARD_NORMAL.inv_cdf(p)
    # Newton polish: d/dx Q(x) = -pdf(x)
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        x -= (p - gaussian_q(x)) / pdf
    return x


def max_coding_rate(gamma: float, blocklength: int, eps: float) -> float:
    """Normal-approximation achievable rate at SINR ``gamma`` [bit/use].

    log2(1+g) + log2(c)/2c - log2(e) Q^-1(eps) sqrt(1 - (1+g)^-2) / sqrt(c).
    """
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if blocklength < 1:
        raise ValueError("blocklength must be positive")
    dispersion = math.sqrt(max(0.0, 1.0 - 1.0 / (1.0 + gamma) ** 2))
    return (
        math.log2(1.0 + gamma)
        + math.log2(blocklength) / (2.0 * blocklength)
        - LOG2E * q_inverse(eps) / math.sqrt(blocklength) * dispersion
    )


@in_float_range
def effective_threshold_approx(cfg: CodingConfig) -> float:
    """Dispersion-free threshold 2^(R_t + log2(e) Q^-1(eps)/sqrt(c) - log2(c)/2c) - 1.

    Upper-bounds the exact threshold; the gap closes as the blocklength (or
    the operating SINR) grows.
    """
    c = cfg.blocklength
    exponent = (
        cfg.target_rate
        + LOG2E / math.sqrt(c) * q_inverse(cfg.eps)
        - math.log2(c) / (2.0 * c)
    )
    return 2.0**exponent - 1.0


@in_float_range
def effective_threshold_exact(cfg: CodingConfig) -> float:
    """Unique SINR where max_coding_rate equals the target rate.

    Bisection on [0.1, 2 x approx threshold], the branch where the rate is
    provably increasing, down to the two adjacent floats around the
    crossing.  Raises OutOfRegime when the target rate is already met
    at the bracket floor, which signals an operating point outside the
    approximation's envelope, and also when the rate at the
    threshold overflows a float (a target rate above about 512 bit/use).
    """
    c, eps, rt = cfg.blocklength, cfg.eps, cfg.target_rate
    lo = GAMMA_FLOOR
    if max_coding_rate(lo, c, eps) >= rt:
        raise OutOfRegime(
            f"target rate {rt} is reached below gamma = {lo}; threshold bracket invalid"
        )
    # 2 x approx, and an OverflowError where that passes the float range; the
    # rate there meets rt, since its dispersion factor is at most 1
    hi = math.ldexp(effective_threshold_approx(cfg), 1)
    theta = bisect_increasing(lambda g: max_coding_rate(g, c, eps) - rt, lo, hi)
    residual = max_coding_rate(theta, c, eps) - rt
    if abs(residual) > _RESIDUAL_TOL:
        raise NonConvergence(f"rate residual {residual:.3e} above {_RESIDUAL_TOL}")
    return theta
