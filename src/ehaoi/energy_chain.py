"""Discrete-time bulk-service energy buffer chain.

Each node harvests one energy unit per slot with probability ``xi``, spends
``N`` units per transmission attempt (attempted with probability ``eta``
whenever at least ``N`` units are stored), and stores at most ``B`` units.
:func:`steady_state` gives the stationary distribution of every
configuration by one exact route: global balance across each level cut,
solved downward from the top level.  The paper's closed forms for the
tractable buffer regimes, the characteristic root of the underlying
difference equation, and the pivoted Hessenberg elimination of the
balance system (the independent oracle) are kept as results the route is
checked against.  The oracle works on the transition matrix held by its
N+2 bands, lists of floats, since a level gains at most one unit and
loses N or N-1 per slot, so it too takes O(B N) time and memory.

Everything here runs on Python floats, and every sum is ``math.fsum``,
exactly rounded.  Only the large-buffer closed form imports numpy, for its
companion-matrix roots and its small complex solve.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import (
    NonConvergence, OutOfRegime, bisect_increasing, in_float_range, require_integer,
)

__all__ = [
    "EnergyChainConfig",
    "SteadyState",
    "build_transition_matrix",
    "solve_steady_numeric",
    "steady_closed_n1",
    "steady_closed_small_buffer",
    "steady_eta_one",
    "steady_closed_large_buffer",
    "steady_infinite_buffer",
    "steady_state",
    "char_root",
    "char_root_approx",
    "char_poly",
    "prob_energy_sufficient",
]

# Pre-normalization closed-form mass must land this close to 1.
_MASS_TOL = 1e-9
_RESIDUAL_TOL = 1e-12  # the oracle's balance residual ||s P - s||_inf must not exceed this


@dataclass(frozen=True)
class EnergyChainConfig:
    """Parameters of one energy buffer chain.

    N    -- energy units consumed per transmission (>= 1)
    B    -- buffer capacity in units (>= N)
    xi   -- per-slot Bernoulli arrival probability, in (0, 1]
    eta  -- per-slot update probability given enough energy, in (0, 1]
    """

    N: int
    B: int
    xi: float
    eta: float

    def __post_init__(self):
        require_integer("EnergyChainConfig", N=self.N, B=self.B)
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.B < self.N:
            raise ValueError(f"B must be >= N, got B={self.B}, N={self.N}")
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"xi must be in (0, 1], got {self.xi}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")

    @property
    def phi(self) -> float:
        """Accumulation/consumption balance helper eta / (xi (1 - eta))."""
        if self.eta >= 1.0:
            raise OutOfRegime("phi is undefined at eta = 1")
        return self.eta / (self.xi * (1.0 - self.eta))


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution over buffer levels 0..B.

    ``probs[i]`` is the long-run probability of holding i units, a tuple of
    floats made from any sequence.  For an infinite buffer ``probs`` is a
    truncation and ``tail_mass`` holds the analytically summed geometric
    remainder, so that ``sum(probs) + tail_mass == 1``; otherwise
    ``tail_mass`` is 0.  A negative or NaN entry, or a total mass off 1,
    raises ValueError.
    """

    probs: tuple[float, ...]
    tail_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))
        # written so that a NaN fails both checks
        if not all(p >= -1e-12 for p in self.probs):
            raise ValueError("stationary probabilities must be non-negative")
        total = math.fsum(self.probs) + self.tail_mass
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"stationary mass is {total!r}, expected 1")

    @property
    def levels(self) -> int:
        return len(self.probs) - 1


def _normalized(raw: Sequence[float]) -> list[float]:
    total = math.fsum(raw)
    return [v / total for v in raw]


def build_transition_matrix(cfg: EnergyChainConfig) -> list[list[float]]:
    """The row-stochastic one-slot transition matrix P by its bands.

    Returns N+2 lists of B+1 floats, ``bands[d][i] = P[i, i + d - N]``:
    band N+1 is the one-unit gain, band N holding level, and bands 0 and 1
    the attempts without and with an arrival, which lose N and N-1 units
    (at N = 1, band 1 is band N).  Levels below N can only gain energy;
    levels in [N, B-1] mix the four update/arrival outcomes; the full
    buffer discards arrivals unless the node transmits in the same slot.
    Entries that would fall outside P are 0.
    """
    n, b, xi, eta = cfg.N, cfg.B, cfg.xi, cfg.eta
    hold = [1.0 - xi] * n + [(1.0 - eta) * (1.0 - xi)] * (b - n) + [1.0 - eta]
    gain = [xi] * n + [(1.0 - eta) * xi] * (b - n) + [0.0]
    drop_n = [0.0] * n + [eta * (1.0 - xi)] * (b + 1 - n)
    drop_n1 = [0.0] * n + [eta * xi] * (b + 1 - n)
    if n == 1:  # losing N - 1 = 0 units holds the level
        return [drop_n, [h + d for h, d in zip(hold, drop_n1)], gain]
    return [drop_n, drop_n1, *([0.0] * (b + 1) for _ in range(n - 2)), hold, gain]


def solve_steady_numeric(bands: Sequence[Sequence[float]]) -> SteadyState:
    """Stationary vector of a skip-free-upward chain held by its bands.

    ``bands`` is K+2 equal-length sequences of m floats (lists, or the
    rows of a 2-D array) with ``bands[d][i] = P[i, i + d - K]`` for a
    row-stochastic m x m matrix P that moves up by at most one level and
    down by at most K levels per step, the layout of
    :func:`build_transition_matrix`; entries that would fall outside P are
    ignored.  Fewer than two bands, bands of unequal length, or a lowest
    band that lies wholly outside P (K >= m) raise ValueError.

    The balance system ``(P^T - I) s = 0`` is upper Hessenberg with K
    bands above the diagonal.  Its level-0 row, which the other rows
    determine because every column of ``P^T - I`` sums to zero, is
    replaced by the normalization ``sum s = 1``, and the system is solved
    by Gaussian elimination with partial pivoting that keeps to the
    Hessenberg shape: at step k only the carried row and balance row k+1
    hold an entry in column k.  Right of the band every entry of the
    carried row is still the normalization's 1 times the same multipliers,
    so it is held as one scalar, and each row of the triangular factor as
    its band plus that constant (0 when the balance row pivots).  Back
    substitution adds the band's products and the constant times a running
    suffix sum of the solution.  O(m K) time and memory on Python floats.

    The result is verified by the residual ||s P - s||_inf <= 1e-12, taken
    from the bands.  An exact zero pivot means the chain has more than one
    closed class, so the stationary law is not unique; that, a residual
    above 1e-12, and an entry below -1e-12 raise NonConvergence.
    """
    try:
        bands = [list(map(float, band)) for band in bands]
    except TypeError:  # a flat sequence of numbers
        bands = []
    w = len(bands)
    m = len(bands[0]) if bands else 0
    if any(len(band) != m for band in bands) or not 2 <= w <= m + 1:
        raise ValueError(
            "bands must be K+2 sequences of m floats with 0 <= K < m: bands[d][i] = P[i, i + d - K]"
        )
    below = w - 2
    # cols[k][t] = P[k + t, k + 1]: column k+1 of P from row k, which is row
    # k+1 of P^T - I from column k once its diagonal loses 1; zero past P
    cols = [[bands[below + 1 - t][k + t] if k + t < m else 0.0 for t in range(w)]
            for k in range(m)]
    for col in cols:
        col[1] -= 1.0
    U = [[]] * m  # row k of the triangular factor, columns k..k+K+1
    U_tail = [0.0] * m  # its value in every column right of that band
    rhs = [0.0] * m
    # the row still to pivot, normalization first: columns k..k+K+1 at step
    # k sit in carried[k:k + w], and every column right of them holds tail
    carried = [1.0] * (m + w)
    tail, row_rhs = 1.0, 1.0
    for k in range(m - 1):
        nxt = cols[k]
        carried[k + w - 1] = tail  # column k+K+1 enters the band
        pivot = carried[k]
        if abs(nxt[0]) > abs(pivot):
            # the balance row pivots; the carried row is eliminated against it
            U[k] = nxt
            ratio = pivot / nxt[0]
            for t in range(1, w):
                carried[k + t] -= ratio * nxt[t]
        else:
            if pivot == 0.0:
                raise NonConvergence("singular balance system: the stationary law is not unique")
            U[k] = carried[k:k + w]
            U_tail[k] = tail
            rhs[k] = row_rhs
            factor = -nxt[0] / pivot
            for t in range(1, w):
                carried[k + t] = carried[k + t] * factor + nxt[t]
            tail *= factor
            row_rhs *= factor
    if carried[m - 1] == 0.0:
        raise NonConvergence("singular balance system: the stationary law is not unique")
    U[m - 1] = [carried[m - 1]] + [0.0] * (w - 1)
    rhs[m - 1] = row_rhs
    s = [0.0] * (m + w)  # zero past the last level, so every band slice has w entries
    suffix = 0.0  # sum of s right of row k's band, s[k + w:]
    for k in range(m - 1, -1, -1):
        row = U[k]
        dot = math.fsum([row[t] * s[k + t] for t in range(1, w)])
        s[k] = (rhs[k] - dot - U_tail[k] * suffix) / row[0]
        suffix += s[k + w - 1]
    del s[m:]
    flow = [-v for v in s]  # s P - s, band by band: P[i, i + d - K] moves mass from i to i + d - K
    for d, band in enumerate(bands):
        shift = d - below
        for i in range(max(0, -shift), min(m, m - shift)):
            flow[i + shift] += s[i] * band[i]
    residual = math.nan if any(map(math.isnan, flow)) else max(map(abs, flow))
    if not residual <= _RESIDUAL_TOL or any(v < -_RESIDUAL_TOL for v in s):  # a NaN residual fails too
        raise NonConvergence(f"stationary residual {residual:.3e} above tol {_RESIDUAL_TOL:.3e}")
    # -0.0 becomes 0.0 too, so no level prints as -0
    return SteadyState(probs=_normalized([v if v > 0.0 else 0.0 for v in s]))


# ---------------------------------------------------------------------------
# Characteristic root of the interior difference equation
# ---------------------------------------------------------------------------

def char_poly(z: float, n: int, xi: float, eta: float) -> float:
    """(1-xi) eta z^{N+1} + xi eta z^N - (1-(1-xi)(1-eta)) z + xi (1-eta)."""
    return (
        (1.0 - xi) * eta * z ** (n + 1)
        + xi * eta * z**n
        - (1.0 - (1.0 - xi) * (1.0 - eta)) * z
        + xi * (1.0 - eta)
    )


def _deflated(z: float, n: int, xi: float, eta: float) -> float:
    """Quotient after exact synthetic division of char_poly by (z - 1).

    g(z) = (1-xi) eta z^N + eta (z^{N-1} + ... + z) - xi (1-eta); strictly
    increasing for z > 0, g(0) < 0, g(1) = N eta - xi, so bisection brackets
    are trivial on either side of 1.
    """
    mid = 0.0
    for j in range(1, n):
        mid += z**j
    return (1.0 - xi) * eta * z**n + eta * mid - xi * (1.0 - eta)


@in_float_range
def char_root(n: int, xi: float, eta: float) -> float:
    """Unique non-fixed positive root of the characteristic equation.

    Deflates the fixed point z = 1 exactly, then bisects the monotone
    quotient down to adjacent floats.  Returns exactly 1.0 on the balance
    line N eta == xi and exactly 0.0 at eta == 1 (greedy updating drains
    the interior modes).  The root satisfies z < 1 iff N eta > xi.  At
    xi == 1 with N == 1 and eta < 1 the quotient is the constant
    -(1 - eta), so there is no root and OutOfRegime is raised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < xi <= 1.0 or not 0.0 < eta <= 1.0:
        raise ValueError("xi and eta must be in (0, 1]")
    if n * eta == xi:
        return 1.0
    if eta == 1.0:
        return 0.0
    if n * eta > xi:
        lo, hi = 0.0, 1.0
    else:
        if xi == 1.0 and n == 1:
            raise OutOfRegime("char_root: at xi = 1 and N = 1 the deflated quotient has no root")
        lo, hi = 1.0, 2.0 if xi == 1.0 else max(2.0, 2.0 * xi * (1.0 - eta) / (eta * (1.0 - xi)))
        while _deflated(hi, n, xi, eta) < 0.0:
            hi *= 2.0
    return bisect_increasing(lambda z: _deflated(z, n, xi, eta), lo, hi)


def char_root_approx(n: int, xi: float, eta: float) -> float:
    """Closed-form root: exact for N in {1, 2}, rational surrogate for N >= 3."""
    if eta == 1.0:
        return 0.0
    if n == 1:
        return xi * (1.0 - eta) / (eta * (1.0 - xi))
    if n == 2:
        disc = eta * eta * (1.0 - 2.0 * xi) ** 2 + 4.0 * eta * xi * (1.0 - xi)
        return (math.sqrt(disc) - eta) / (2.0 * eta * (1.0 - xi))
    return xi * (1.0 - eta) / (1.0 - (1.0 - xi) * (1.0 - eta))


# ---------------------------------------------------------------------------
# Closed-form stationary distributions
# ---------------------------------------------------------------------------

def _finalize(raw: list[float]) -> SteadyState:
    total = math.fsum(raw)
    if not math.isfinite(total):
        raise FloatingPointError(f"closed-form mass {total!r} is not finite")
    if abs(total - 1.0) > _MASS_TOL:
        raise NonConvergence(
            f"closed-form mass {total!r} deviates from 1 beyond {_MASS_TOL}"
        )
    return SteadyState(probs=[v / total for v in raw])


@in_float_range
def steady_closed_n1(cfg: EnergyChainConfig) -> SteadyState:
    """Single-unit consumption, any finite buffer.

    S_0 = (eta - xi) / (eta - xi rho^B) with rho = (1-eta) xi / ((1-xi) eta)
    and S_i = rho^i S_0 / (1 - eta).  At the balance point xi == eta, where
    rho = 1 and the first form is 0/0, its limit S_0 = 1 / (1 + B/(1-eta))
    is used.
    """
    if cfg.N != 1:
        raise OutOfRegime("closed_n1 requires N == 1")
    if not (cfg.xi < 1.0 and cfg.eta < 1.0):
        raise OutOfRegime("closed_n1 requires xi < 1 and eta < 1")
    rho = (1.0 - cfg.eta) * cfg.xi / ((1.0 - cfg.xi) * cfg.eta)
    s = [0.0] * (cfg.B + 1)
    if cfg.xi == cfg.eta:  # rho is then exactly 1.0: both products round alike
        s[0] = 1.0 / (1.0 + cfg.B / (1.0 - cfg.eta))
    else:
        s[0] = (cfg.eta - cfg.xi) / (cfg.eta - cfg.xi * rho**cfg.B)
    for i in range(1, cfg.B + 1):
        s[i] = rho**i / (1.0 - cfg.eta) * s[0]
    return _finalize(s)


@in_float_range
def steady_closed_small_buffer(cfg: EnergyChainConfig) -> SteadyState:
    """Multi-unit consumption with a small buffer, N <= B <= 2N.

    Index ranges that are empty for the given (N, B) contribute nothing,
    which also covers the B = N corner where the distribution collapses to
    the three-value form eta(1-xi)/(N eta + xi(1-eta)), eta/(...), xi/(...).
    """
    n, b = cfg.N, cfg.B
    if n < 2:
        raise OutOfRegime("small-buffer closed form requires N >= 2")
    if not n <= b <= 2 * n:
        raise OutOfRegime(f"small-buffer closed form requires N <= B <= 2N, got B={b}")
    if not (cfg.xi < 1.0 and cfg.eta < 1.0):
        raise OutOfRegime("small-buffer closed form requires xi < 1 and eta < 1")
    phi = cfg.phi
    eta, xi = cfg.eta, cfg.xi
    s = [0.0] * (b + 1)
    if b < 2 * n:
        sb = 1.0 / ((1.0 - eta) * (1.0 + n * phi * (1.0 + phi) ** (b - n)))
        s[b] = sb
        for i in range(0, b - n):
            s[i] = (1.0 - eta - (1.0 + phi) ** (-i - 1)) * (1.0 + phi) ** (b - n) * phi * sb
        s[b - n] = ((1.0 - eta) * (1.0 + phi) ** (b - n) * phi - eta) * sb
        for i in range(b - n + 1, n):
            s[i] = (1.0 - eta) * (1.0 + phi) ** (b - n) * phi * sb
        for i in range(n, b):
            s[i] = (1.0 + phi) ** (b - i - 1) * phi * sb
    else:
        sb = 1.0 / ((1.0 - eta) * (1.0 + n * phi * (1.0 + phi) ** n) - n * eta * phi)
        s[b] = sb
        s[0] = (1.0 - xi) * eta / xi * ((1.0 + phi) ** (n - 1) * phi - eta / (1.0 - eta)) * sb
        for i in range(1, n):
            s[i] = (eta / xi * (1.0 + phi) ** n - eta * phi - phi * (1.0 + phi) ** (n - 1 - i)) * sb
        s[n] = phi * ((1.0 + phi) ** (n - 1) - xi) * sb
        for i in range(n + 1, b):
            s[i] = (1.0 + phi) ** (b - i - 1) * phi * sb
    return _finalize(s)


def steady_eta_one(cfg: EnergyChainConfig) -> SteadyState:
    """Greedy updating (eta = 1): (1-xi)/N, 1/N, ..., 1/N, xi/N, 0, ..., 0.

    Independent of the buffer size; every level above N is unreachable in
    steady state because the node fires as soon as it can.
    """
    if cfg.eta != 1.0:
        raise OutOfRegime("eta-one form requires eta == 1")
    s = [0.0] * (cfg.B + 1)
    s[0] = (1.0 - cfg.xi) / cfg.N
    for i in range(1, cfg.N):
        s[i] = 1.0 / cfg.N
    s[cfg.N] = cfg.xi / cfg.N
    return _finalize(s)


def _geom_ratio_factor(z: float, i: int, xi: float) -> float:
    """(1 + (xi/(1-xi) + z) (1 - z^i) / (1 - z)), with its z -> 1 limit."""
    if abs(1.0 - z) < 1e-9:
        return 1.0 + i / (1.0 - xi)
    return 1.0 + (xi / (1.0 - xi) + z) * (1.0 - z**i) / (1.0 - z)


def _interior_roots(n: int, xi: float, eta: float):
    """The N-1 roots of char_poly besides 1 and the positive root char_root.

    They are the remaining roots of the deflated quotient (see _deflated),
    taken from its companion matrix and polished by two Newton steps.
    """
    import numpy as np

    g = np.array([(1.0 - xi) * eta] + [eta] * (n - 1) + [-xi * (1.0 - eta)], dtype=complex)
    dg = np.polyder(g)
    roots = np.roots(g)
    roots = np.delete(roots, np.argmin(np.abs(roots - char_root(n, xi, eta))))
    for _ in range(2):
        roots = roots - np.polyval(g, roots) / np.polyval(dg, roots)
    return roots


@in_float_range
def steady_closed_large_buffer(cfg: EnergyChainConfig) -> SteadyState:
    """Multi-unit consumption with a large buffer, B >= 3N + 1.

    On levels N..B-1 every balance equation away from the two boundaries is
    the order-(N+1) difference equation whose characteristic polynomial is
    char_poly, so the stationary law there is a sum over all N+1 modes: the
    fixed point 1, the positive root z = char_root and the N-1 negative or
    complex roots.  A mode with |r| <= 1 is written r^(i-N) and one with
    |r| > 1 as r^(i-(B-1)), so every mode peaks at 1 inside the band and
    nothing overflows however large B is.  On the balance line N eta == xi,
    where z = 1 is a double root, the pair {1, z^(i-N)} becomes the
    confluent pair {1, i-N}.

    The N+1 mode coefficients, s_0..s_{N-1} and s_B follow from the balance
    equations at levels 0..N and B-N..B, the last of them replaced by
    normalization: a (2N+2)-square complex solve whose solution is real up
    to rounding.  The result is exact for every finite B in the regime.
    """
    import numpy as np

    n, b = cfg.N, cfg.B
    if n < 2:
        raise OutOfRegime("large-buffer closed form requires N >= 2 (N = 1 has its own form)")
    if b < 3 * n + 1:
        raise OutOfRegime(f"large-buffer closed form requires B >= 3N+1, got B={b}")
    if not (cfg.xi < 1.0 and cfg.eta < 1.0):
        raise OutOfRegime("large-buffer closed form requires xi < 1 and eta < 1")
    xi, eta = cfg.xi, cfg.eta
    z = char_root(n, xi, eta)
    m = np.arange(b - n)
    top = m - (b - n - 1)
    # char_root returns exactly 1.0 on the balance line, a double root of char_poly
    # a mode with |r| > 1 falls below the float range deep under level B - 1:
    # its power underflows to the right 0 through an overflowing r^|top|
    with np.errstate(over="ignore"):
        pair = m.astype(float) if z == 1.0 else z ** (m if z < 1.0 else top)
        cols = [np.ones(b - n), pair]
        cols += [r ** (m if abs(r) <= 1.0 else top) for r in _interior_roots(n, xi, eta)]
    modes = np.column_stack(cols).astype(complex)

    # unknowns: N+1 mode coefficients, then s_0..s_{N-1}, then s_B
    k = n + 1

    def level(i: int):
        row = np.zeros(2 * n + 2, dtype=complex)
        if i < n:
            row[k + i] = 1.0
        elif i == b:
            row[-1] = 1.0
        else:
            row[:k] = modes[i - n]
        return row

    def balance(j: int):
        # s_j minus the inflow into level j from j (stay), j-1 (one arrival),
        # j+N (attempt, no arrival) and j+N-1 (attempt and arrival)
        stay = 1.0 - xi if j < n else (1.0 - eta) * (1.0 - xi) if j < b else 1.0 - eta
        row = (1.0 - stay) * level(j)
        if j >= 1:
            row -= (xi if j - 1 < n else (1.0 - eta) * xi) * level(j - 1)
            if j + n - 1 <= b:
                row -= eta * xi * level(j + n - 1)
        if j + n <= b:
            row -= eta * (1.0 - xi) * level(j + n)
        return row

    A = np.array([balance(j) for j in (*range(n + 1), *range(b - n, b))] + [np.zeros(2 * n + 2)])
    A[-1, :k] = modes.sum(axis=0)
    A[-1, k:] = 1.0
    rhs = np.zeros(2 * n + 2)
    rhs[-1] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:  # a rate so small that the rows coincide in floats
        raise FloatingPointError(f"the mode system is singular: {exc}") from exc
    s = np.empty(b + 1)
    s[:n] = x[k:-1].real
    s[n:b] = (modes @ x[:k]).real
    s[b] = x[-1].real
    # levels whose mass is below rounding can come out as -1e-16
    return _finalize(np.maximum(s, 0.0).tolist())


def steady_infinite_buffer(cfg: EnergyChainConfig) -> SteadyState:
    """Excessively large buffer (B -> infinity), recurrent when N eta > xi.

    Returns the parametric distribution on levels 0..max(2N, min(N + d,
    100000)), where d is the depth at which z^d falls below 1e-12, with the
    geometric tail beyond folded in analytically as ``tail_mass``, so the
    total mass is exact.  At eta = 1 this is the buffer-independent greedy
    form of :func:`steady_eta_one` on levels 0..max(B, 2N).
    """
    n, xi, eta = cfg.N, cfg.xi, cfg.eta
    if n * eta <= xi:
        raise OutOfRegime(
            f"N*eta = {n * eta} <= xi = {xi}: energy never runs scarce, no steady"
            " scarcity distribution exists"
        )
    if eta == 1.0:
        # greedy limit: identical to the buffer-independent eta = 1 form
        return steady_eta_one(EnergyChainConfig(n, max(cfg.B, 2 * n), xi, eta))
    z = char_root(n, xi, eta)
    depth = math.ceil(math.log(1e-12) / math.log(z)) if z > 0.0 else 0
    top = max(2 * n, min(n + depth, 100_000))
    s = [0.0] * (top + 1)
    s0 = (1.0 - xi) * (1.0 - z) / n
    for i in range(0, n - 1):
        s[i] = _geom_ratio_factor(z, i, xi) * s0
    s[n - 1] = xi * (1.0 - eta) * (1.0 - z) / (n * eta * z)
    head = xi * (1.0 - z) / (n * eta)
    for i in range(n, top + 1):
        s[i] = head * z ** (i - n)
    tail = xi * z ** (top + 1 - n) / (n * eta)
    total = math.fsum(s) + tail
    if abs(total - 1.0) > _MASS_TOL:
        raise NonConvergence(f"infinite-buffer mass {total!r} deviates from 1")
    return SteadyState(probs=[v / total for v in s], tail_mass=tail / total)


def steady_state(cfg: EnergyChainConfig) -> SteadyState:
    """Exact stationary distribution of any configuration, from cut balance.

    In steady state the flow up across the cut between levels c and c+1
    equals the flow down across it.  Only level c moves up, with
    probability xi below N and (1-eta) xi from N on; only levels c+1..c+N
    move down, dropping N units with probability eta (1-xi) and N-1 units
    with probability eta xi.  So, starting from s_top = 1 (top = N when
    eta = 1, since every level above N is then transient, and B otherwise),

        s_c = [eta (1-xi) sum s_{max(c+1,N)..c+N}
               + eta xi sum s_{max(c+1,N)..c+N-1}] / up(c),

    with up(c) = xi for c < N and (1-eta) xi otherwise.  Every term is
    non-negative, so nothing cancels; the tail s[c:] is scaled down by
    1e-100 whenever a value passes 1e100.  O(B N) time.

    At N = 1, xi = eta = 1 every level >= 1 is absorbing and the law is not
    unique; the recursion returns the point mass on level 1.
    """
    n, xi, eta = cfg.N, cfg.xi, cfg.eta
    top = n if eta == 1.0 else cfg.B
    drop_n, drop_n1 = eta * (1.0 - xi), eta * xi
    rise = (1.0 - eta) * xi  # up(c) from level N on
    if rise == 0.0 and top > n:
        raise OutOfRegime(f"xi (1 - eta) underflows a float at xi = {xi!r}, eta = {eta!r}")
    s = [0.0] * (cfg.B + 1)
    s[top] = 1.0
    for c in range(top - 1, -1, -1):
        lo = max(c + 1, n)
        near = math.fsum(s[lo:c + n])
        # level c + N crosses the cut only by dropping N units, so only far holds it
        far = near + s[c + n] if c + n <= cfg.B else near
        down = drop_n * far + drop_n1 * near
        s[c] = down / (xi if c < n else rise)
        if s[c] > 1e100:
            if s[c] == math.inf:
                raise OutOfRegime(f"the cut recursion overflows a float at xi = {xi!r}, eta = {eta!r}")
            s[c:] = [v * 1e-100 for v in s[c:]]
    return SteadyState(probs=_normalized(s))


def prob_energy_sufficient(ss: SteadyState, n: int) -> float:
    """P(buffer >= N): the chance a node can afford one transmission."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > ss.levels:
        return float(ss.tail_mass)
    return math.fsum(ss.probs[n:]) + ss.tail_mass
