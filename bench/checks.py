"""Reference values and output checks for the benchmark.

Every expected value is computed here, apart from the program under test:

- the stationary buffer law by level-crossing (cut) equations,
- attempt-interval moments by enumerating the accumulation + wait mixture,
- decoding thresholds by root-finding on the normal-approximation rate with
  Q^-1 from ``scipy.stats.norm.isf``,
- the Poisson-field success moment and the large-buffer closed forms,
- the optimizer's truth by a grid over (eta, N).

No check compares against a stored copy of earlier output.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

LOG2E = math.log2(math.e)

# tolerances fixed by the model's accuracy, not by today's output
ANALYTIC_REL = 1e-8  # CLI analytic AoI against the reference formula
THRESHOLD_RATE_ABS = 1e-9  # rate at the CLI's exact threshold against R_t
MASS_ABS = 1e-12  # stationary mass against 1, plus the CSV's rounding (see _print_rounding)
BALANCE_ABS = 1e-10  # global balance residual of the stationary law
OPTIMIZE_REL = 0.02  # optimizer against the grid minimum (acceptance criterion 8)
SIM_AOI_REL = 0.10  # simulated AoI against the analytic AoI (criterion 6)
SIM_INTERVAL_REL = 0.01  # simulated interval moments against the mixture
ENERGY_SLACK = 0.03  # sampling slack on the energy-conservation bound

GRID_STEP = 1e-3
GRID_N_MAX = 200


# ---------------------------------------------------------------------------
# CSV access
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return header, [dict(zip(header, row)) for row in rows[1:]]


def finite_cells(rows: list[dict[str, str]], columns: list[str]) -> list[str]:
    """Every listed cell must parse as a finite float."""
    problems = []
    for i, row in enumerate(rows):
        for col in columns:
            try:
                value = float(row[col])
            except (KeyError, ValueError):
                problems.append(f"row {i}: {col}={row.get(col)!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"row {i}: {col}={value} is not finite")
    return problems


def _print_rounding(value: float) -> float:
    """Half a unit in the 12th significant digit, the CLI's CSV precision."""
    return 0.0 if value == 0.0 else 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _rel(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


# ---------------------------------------------------------------------------
# Model pieces, written from the model definition
# ---------------------------------------------------------------------------

def stationary_law(n: int, b: int, xi: float, eta: float) -> np.ndarray:
    """Stationary law of the buffer chain from the cut equations.

    Across the cut between levels c and c+1 the upward flux s_c * up(c)
    (up = xi below N, (1-eta) xi from N to B-1) equals the downward flux from
    levels c+1..c+N: a drop of N (attempt, no arrival, eta (1-xi)) crosses
    from j <= c+N and a drop of N-1 (attempt and arrival, eta xi) from
    j <= c+N-1.  Starting from the top level and recursing downward sums
    only positive terms.  At eta = 1 the levels above N are transient.
    """
    top = n if eta == 1.0 else b
    s = [0.0] * (b + 1)
    s[top] = 1.0
    drop_n, drop_n1 = eta * (1.0 - xi), eta * xi
    for c in range(top - 1, -1, -1):
        lo = max(c + 1, n)
        flux = drop_n * math.fsum(s[lo:min(c + n, top) + 1])
        flux += drop_n1 * math.fsum(s[lo:min(c + n - 1, top) + 1])
        s[c] = flux / (xi if c < n else (1.0 - eta) * xi)
        if s[c] > 1e100:
            s[c:] = [v * 1e-100 for v in s[c:]]
    law = np.array(s)
    return law / law.sum()


def balance_residual(probs: np.ndarray, n: int, b: int, xi: float, eta: float) -> float:
    """max_j |(s P)_j - s_j| for the one-slot transition law of the model."""
    p = np.asarray(probs, dtype=float)
    lev = np.arange(b + 1)
    below = lev < n
    stay = np.where(below, 1.0 - xi, np.where(lev < b, (1.0 - eta) * (1.0 - xi), 1.0 - eta))
    up = np.where(below, xi, np.where(lev < b, (1.0 - eta) * xi, 0.0))
    inflow = p * stay
    inflow[1:] += (p * up)[:-1]
    att = ~below
    inflow[lev[att] - n] += p[att] * eta * (1.0 - xi)
    inflow[lev[att] - n + 1] += p[att] * eta * xi
    return float(np.max(np.abs(inflow - p)))


def interval_moments(probs: np.ndarray, n: int, xi: float, eta: float) -> tuple[float, float]:
    """E[T], E[T^2] of the interval between attempts, by mixture enumeration.

    An attempt from level j (chosen with probability s_j / P(level >= N)),
    with or without that slot's arrival, leaves j - N + a units.  When that
    is below N, the node first harvests the missing w units (NegBin(w, xi)
    slots) and then waits Geom(eta) slots; otherwise it only waits.
    """
    p = np.asarray(probs, dtype=float)
    b = len(p) - 1
    p_suf = float(p[n:].sum())
    wait1, wait2 = 1.0 / eta, (2.0 - eta) / eta**2
    m1 = m2 = 0.0
    p_acc = 0.0
    for j in range(n, min(2 * n, b + 1)):
        for arrived, weight in ((0, 1.0 - xi), (1, xi)):
            w = n - (j - n + arrived)
            if w <= 0:
                continue
            pw = p[j] * weight / p_suf
            acc1, acc2 = w / xi, w * (w + 1.0 - xi) / xi**2
            p_acc += pw
            m1 += pw * (acc1 + wait1)
            m2 += pw * (acc2 + 2.0 * acc1 * wait1 + wait2)
    m1 += (1.0 - p_acc) * wait1
    m2 += (1.0 - p_acc) * wait2
    return m1, m2


def coding_rate(gamma: float, blocklength: int, qinv: float) -> float:
    """Normal-approximation rate with Q^-1(eps) = qinv supplied by the caller."""
    c = blocklength
    dispersion = math.sqrt(max(0.0, 1.0 - (1.0 + gamma) ** -2))
    return math.log2(1.0 + gamma) + math.log2(c) / (2.0 * c) - LOG2E * qinv * dispersion / math.sqrt(c)


def threshold(k: int, n: int, target_rate: float, eps: float) -> float:
    """SINR at which the normal-approximation rate meets the target."""
    c, qinv = k * n, float(norm.isf(eps))
    hi = 2.0 ** (target_rate + 1.0)
    while coding_rate(hi, c, qinv) < target_rate:
        hi *= 2.0
    return brentq(lambda g: coding_rate(g, c, qinv) - target_rate, 0.1, hi,
                  xtol=1e-300, rtol=8.9e-16, maxiter=500)


def omega(theta: float, alpha: float) -> float:
    return 2.0 * math.pi**2 * theta ** (2.0 / alpha) / (alpha * math.sin(2.0 * math.pi / alpha))


def inv_success(phy: dict, density: float, theta: float, p_active: float) -> float:
    """E[1/mu] of the Poisson field at per-slot activity p_active."""
    alpha, r = phy["alpha"], phy["r"]
    noise = r**alpha * theta / 10.0 ** (phy["snr_db"] / 10.0)
    load = density * omega(theta, alpha) * r * r * p_active / (1.0 - p_active) ** (1.0 - 2.0 / alpha)
    return math.exp(load + noise) / (1.0 - phy["eps"])


def phy_theta(phy: dict, n: int) -> float:
    return threshold(phy["bits_per_unit"], n, phy["target_rate"], phy["eps"])


def aoi_general(phy: dict, net: dict) -> float:
    """Renewal AoI E[T^2]/2E[T] + (E[1/mu] - 1) E[T] + 1/2 at any buffer size."""
    n, xi, eta = net["N"], net["xi"], net["eta"]
    law = stationary_law(n, net["B"], xi, eta)
    m1, m2 = interval_moments(law, n, xi, eta)
    p_active = eta * float(law[n:].sum())
    inv_mu = inv_success(phy, net["density"], phy_theta(phy, n), p_active)
    return m2 / (2.0 * m1) + (inv_mu - 1.0) * m1 + 0.5


def char_root(n: int, xi: float, eta: float) -> float:
    """Root in (0, 1) of the deflated characteristic polynomial (N eta > xi)."""
    if eta == 1.0:
        return 0.0

    def g(z: float) -> float:
        return (1.0 - xi) * eta * z**n + eta * sum(z**j for j in range(1, n)) - xi * (1.0 - eta)

    return brentq(g, 0.0, 1.0, xtol=1e-300, rtol=8.9e-16, maxiter=500)


def aoi_large_buffer(phy: dict, net: dict) -> float:
    """The paper's infinite-buffer closed forms, both energy regimes."""
    n, xi, eta, lam = net["N"], net["xi"], net["eta"], net["density"]
    theta = phy_theta(phy, n)
    if n * eta <= xi:
        return inv_success(phy, lam, theta, eta) / eta
    z = char_root(n, xi, eta)
    rate = xi / n
    zeta = -z / (xi * (1.0 - z)) + z / (n * eta * (1.0 - z)) + 1.0 / eta - 1.0
    return inv_success(phy, lam, theta, rate) / rate - (n - 1.0) / (2.0 * xi) + zeta


def _char_root_grid(n: np.ndarray, xi: float, eta: np.ndarray) -> np.ndarray:
    """Vectorised bisection for char_root over (N, eta) pairs with N eta > xi."""
    lo, hi = np.zeros_like(eta), np.ones_like(eta)
    for _ in range(60):
        z = 0.5 * (lo + hi)
        zn = z**n
        g = (1.0 - xi) * eta * zn + eta * (z - zn) / (1.0 - z) - xi * (1.0 - eta)
        below = g < 0.0
        lo = np.where(below, z, lo)
        hi = np.where(below, hi, z)
    return 0.5 * (lo + hi)


class GridTruth:
    """Minimum of the large-buffer AoI over eta in GRID_STEP steps and N = 1..200.

    Thresholds depend on the coding parameters only and the characteristic
    roots on xi only, so both are cached across the rows of a sweep.
    """

    def __init__(self, phy: dict):
        self.phy = phy
        self.thetas = np.array([phy_theta(phy, n) for n in range(1, GRID_N_MAX + 1)])
        self.etas = np.arange(1, round(1.0 / GRID_STEP) + 1) * GRID_STEP
        self._zeta: dict[float, np.ndarray] = {}

    def _zeta_for(self, xi: float) -> np.ndarray:
        if xi not in self._zeta:
            n = np.arange(1, GRID_N_MAX + 1, dtype=float)[:, None] * np.ones_like(self.etas)
            eta = np.ones((GRID_N_MAX, 1)) * self.etas
            scarce = n * eta > xi
            zeta = np.full(n.shape, np.nan)
            e = eta[scarce]
            z = np.where(e == 1.0, 0.0, _char_root_grid(n[scarce], xi, e))
            zeta[scarce] = -z / (xi * (1.0 - z)) + z / (n[scarce] * e * (1.0 - z)) + 1.0 / e - 1.0
            self._zeta[xi] = zeta
        return self._zeta[xi]

    def minimum(self, density: float, xi: float) -> float:
        phy = self.phy
        alpha, r = phy["alpha"], phy["r"]
        th = self.thetas[:, None]
        geom = density * 2.0 * math.pi**2 * th ** (2.0 / alpha) / (alpha * math.sin(2.0 * math.pi / alpha)) * r * r
        noise = r**alpha * th / 10.0 ** (phy["snr_db"] / 10.0)
        n = np.arange(1, GRID_N_MAX + 1, dtype=float)[:, None]
        eta = self.etas[None, :]
        zeta = self._zeta_for(xi)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            esr = np.exp(noise + geom * eta / (1.0 - eta) ** (1.0 - 2.0 / alpha)) / (eta * (1.0 - phy["eps"]))
            rate = xi / n
            sa = np.exp(noise + geom * rate / (1.0 - rate) ** (1.0 - 2.0 / alpha)) / (rate * (1.0 - phy["eps"]))
            ecr = np.where(rate < 1.0, sa - (n - 1.0) / (2.0 * xi) + zeta, np.inf)
        vals = np.where(n * eta <= xi, esr, ecr)
        vals = np.where(np.isfinite(vals), vals, np.inf)
        return float(vals.min())


# ---------------------------------------------------------------------------
# Checks, one per experiment kind
# ---------------------------------------------------------------------------

def check_steady_state(doc: dict, rows: list[dict[str, str]]) -> list[str]:
    """Reads only level and closed_form."""
    net = doc["params"]["net"]
    n, b, xi, eta = net["N"], net["B"], net["xi"], net["eta"]
    problems = finite_cells(rows, ["level", "closed_form"])
    if problems:
        return problems
    levels = [int(r["level"]) for r in rows]
    if levels != list(range(b + 1)):
        return [f"levels are not 0..{b}"]
    probs = np.array([float(r["closed_form"]) for r in rows])
    if probs.min() < 0.0:
        problems.append(f"negative probability {probs.min():.3e}")
    mass = math.fsum(probs)
    # 12 significant digits per row can move the printed sum by more than 1e-12
    tolerance = MASS_ABS + math.fsum(_print_rounding(v) for v in probs)
    if abs(mass - 1.0) > tolerance:
        problems.append(f"mass {mass!r} is off 1 by more than {tolerance:.3e}")
    residual = balance_residual(probs, n, b, xi, eta)
    if residual > BALANCE_ABS:
        problems.append(f"global balance residual {residual:.3e} above {BALANCE_ABS}")
    return problems


def check_threshold(doc: dict, rows: list[dict[str, str]]) -> list[str]:
    p = doc["params"]
    rt = p["target_rate"]
    problems = finite_cells(rows, ["blocklength", "eps", "exact", "approx", "abs_gap"])
    if problems:
        return problems
    by_eps: dict[float, list[tuple[int, float, float]]] = {}
    for r in rows:
        c, eps = int(r["blocklength"]), float(r["eps"])
        exact, approx = float(r["exact"]), float(r["approx"])
        rate = coding_rate(exact, c, float(norm.isf(eps)))
        if abs(rate - rt) > THRESHOLD_RATE_ABS:
            problems.append(f"c={c} eps={eps}: rate at exact threshold is {rate!r}, target {rt}")
        if approx < exact:
            problems.append(f"c={c} eps={eps}: approx {approx} below exact {exact}")
        by_eps.setdefault(eps, []).append((c, exact, approx))
    for eps, entries in by_eps.items():
        entries.sort()
        for (c0, e0, a0), (c1, e1, a1) in zip(entries, entries[1:]):
            if not (e1 < e0 and a1 < a0):
                problems.append(f"eps={eps}: thresholds do not decrease from c={c0} to c={c1}")
    return problems


def _point_net(doc: dict, sweep_name: str, value: str) -> dict:
    net = dict(doc["params"]["net"])
    net[sweep_name] = int(float(value)) if sweep_name in ("N", "B") else float(value)
    return net


def check_aoi_curve(doc: dict, rows: list[dict[str, str]]) -> list[str]:
    params = doc["params"]
    name = doc["sweep"]["name"]
    simulated = "sim" in params
    columns = [name, "analytic_aoi"] + (["sim_aoi", "sim_ci"] if simulated else [])
    problems = finite_cells(rows, columns)
    if problems:
        return problems
    if [float(r[name]) for r in rows] != [float(v) for v in doc["sweep"]["values"]]:
        return ["sweep column does not match the spec"]
    reference = {"general": aoi_general, "large_buffer": aoi_large_buffer}[params.get("formula", "general")]
    for r in rows:
        net = _point_net(doc, name, r[name])
        expected = reference(params["phy"], net)
        got = float(r["analytic_aoi"])
        if _rel(got, expected) > ANALYTIC_REL:
            problems.append(f"{name}={r[name]}: analytic_aoi {got!r} vs reference {expected!r}")
        if simulated:
            sim_aoi = float(r["sim_aoi"])
            if _rel(sim_aoi, expected) > SIM_AOI_REL:
                problems.append(f"{name}={r[name]}: sim_aoi {sim_aoi} is more than "
                                f"{SIM_AOI_REL:.0%} off the analytic {expected:.4f}")
    return problems


def check_optimize(doc: dict, rows: list[dict[str, str]], grid: GridTruth) -> list[str]:
    params = doc["params"]
    name = doc["sweep"]["name"]
    problems = finite_cells(rows, [name, "aoi_star", "eta_star", "n_star"])
    if problems:
        return problems
    xi = params["net"]["xi"]
    n_prev = 0
    for r in rows:
        density = float(r[name])
        aoi_star, eta_star, n_star = float(r["aoi_star"]), float(r["eta_star"]), int(r["n_star"])
        truth = grid.minimum(density, xi)
        if _rel(aoi_star, truth) > OPTIMIZE_REL:
            problems.append(f"density={density}: aoi_star {aoi_star} vs grid minimum {truth}")
        if r["regime"] not in ("ESR", "ECR"):
            problems.append(f"density={density}: unknown regime {r['regime']!r}")
        if r["regime"] == "ECR" and eta_star != 1.0:
            problems.append(f"density={density}: ECR row with eta_star={eta_star}")
        if n_star < n_prev:
            problems.append(f"density={density}: n_star {n_star} below {n_prev} at a lower density")
        n_prev = n_star
    return problems


SIMULATE_COLUMNS = ["network_aoi", "ci_halfwidth", "empirical_mu", "empirical_inv_mu",
                    "interval_mean", "interval_second", "slots_measured"]


def _mean_rate(arrivals: dict | None, xi: float) -> float:
    if arrivals is None or arrivals["type"] == "bernoulli":
        return xi if arrivals is None else arrivals["xi"]
    if arrivals["type"] == "binomial":
        return arrivals["e_max"] * arrivals["p"]
    good, bad = arrivals["p_bad_to_good"], arrivals["p_good_to_bad"]
    return (good * arrivals["xi_good"] + bad * arrivals["xi_bad"]) / (good + bad)


def check_simulate(doc: dict, rows: list[dict[str, str]], check_aoi: bool) -> list[str]:
    """Reference moments for Bernoulli energy and updates, properties otherwise.

    ``check_aoi`` also holds the simulated AoI to the analytic one, which
    the Poisson-field model only predicts for networks of many links.
    """
    params = doc["params"]
    net, sim = params["net"], params["sim"]
    problems = finite_cells(rows, SIMULATE_COLUMNS)
    if problems:
        return problems
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    r = {k: float(v) for k, v in rows[0].items()}
    arrivals, updates = sim.get("arrivals"), sim.get("updates")
    if not 0.0 < r["empirical_mu"] <= 1.0:
        problems.append(f"empirical_mu {r['empirical_mu']} outside (0, 1]")
    if r["empirical_inv_mu"] < 1.0:
        problems.append(f"empirical_inv_mu {r['empirical_inv_mu']} below 1")
    if r["network_aoi"] < 1.0:
        problems.append(f"network_aoi {r['network_aoi']} below 1")
    if r["interval_second"] < r["interval_mean"] ** 2:
        problems.append("interval_second below interval_mean^2")
    floor = net["N"] / _mean_rate(arrivals, net["xi"])
    if r["interval_mean"] < floor * (1.0 - ENERGY_SLACK):
        problems.append(f"interval_mean {r['interval_mean']} below the energy bound N/rate = {floor}")
    if updates is not None and updates["type"] == "periodic" and r["interval_mean"] < updates["period"]:
        problems.append(f"interval_mean {r['interval_mean']} below the period {updates['period']}")
    bernoulli = (arrivals is None or arrivals["type"] == "bernoulli") and (
        updates is None or updates["type"] == "bernoulli")
    if bernoulli:
        xi = net["xi"] if arrivals is None else arrivals["xi"]
        eta = net["eta"] if updates is None else updates["eta"]
        law = stationary_law(net["N"], net["B"], xi, eta)
        m1, m2 = interval_moments(law, net["N"], xi, eta)
        for col, expected in (("interval_mean", m1), ("interval_second", m2)):
            if _rel(r[col], expected) > SIM_INTERVAL_REL:
                problems.append(f"{col} {r[col]} is more than {SIM_INTERVAL_REL:.0%} off {expected}")
        if check_aoi:
            expected = aoi_general(params["phy"], dict(net, xi=xi, eta=eta))
            if _rel(r["network_aoi"], expected) > SIM_AOI_REL:
                problems.append(f"network_aoi {r['network_aoi']} is more than "
                                f"{SIM_AOI_REL:.0%} off the analytic {expected:.4f}")
    return problems
