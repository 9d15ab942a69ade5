"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.

Criterion 5 checks convergence to the Shannon limit where the normal
approximation actually meets it: at c_N = 1e8 the threshold still sits
3.4e-4..8.4e-4 above 2^R_t - 1, and that gap must match the leading-order
penalty 2^R_t Q^-1(eps)/sqrt(c_N) (times sqrt(1 - 2^(-2 R_t)) for the exact
threshold); the 1e-4 box is asserted at c_N = 1e10.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ehaoi.aoi import (
    NetworkConfig,
    PhyConfig,
    db_to_linear,
    interval_moments,
    network_aoi_general,
    network_aoi_greedy,
    network_aoi_large_buffer,
    network_aoi_small_buffer,
    omega,
    zeta_rectification,
)
from ehaoi.energy_chain import (
    EnergyChainConfig,
    build_transition_matrix,
    char_poly,
    char_root,
    char_root_approx,
    solve_steady_numeric,
    steady_closed_large_buffer,
    steady_closed_n1,
    steady_closed_small_buffer,
    steady_eta_one,
    steady_state,
)
from ehaoi.fbl import CodingConfig, effective_threshold_approx, effective_threshold_exact, q_inverse
from ehaoi.optimizer import optimize
from ehaoi.sim import (
    BernoulliUpdates,
    BinomialArrivals,
    PeriodicUpdates,
    SimConfig,
    Topology,
    run,
)

R_T = 0.825
K_BITS = 100


def _report(num: int, slug: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _phy(snr_db=13.0, theta=1.3, eps=1e-6, tx_snr=None):
    return PhyConfig(
        alpha=3.8, r=3.0,
        tx_snr=db_to_linear(snr_db) if tx_snr is None else tx_snr,
        theta=theta, eps=eps,
    )


def _theta(n, eps=1e-6):
    return effective_threshold_exact(CodingConfig(k=K_BITS, N=n, target_rate=R_T, eps=eps))


# ---------------------------------------------------------------------------
# 1. steady-state closed forms vs the numeric oracle
# ---------------------------------------------------------------------------

def test_criterion_01_steady_state_equivalence():
    t0 = time.monotonic()
    worst = {"n1": 0.0, "small": 0.0, "large": 0.0, "eta1": 0.0}
    worst_case = {}
    for n in (1, 2, 3, 5):
        for xi in (0.2, 0.5, 0.8):
            for eta in (0.2, 0.5, 0.8, 1.0):
                for b in sorted({n, 2 * n - 1, 2 * n, 3 * n + 1, 10 * n}):
                    if b < n:
                        continue
                    cfg = EnergyChainConfig(N=n, B=b, xi=xi, eta=eta)
                    oracle = np.asarray(solve_steady_numeric(build_transition_matrix(cfg)).probs)
                    forms = []
                    if eta == 1.0:
                        forms.append(("eta1", steady_eta_one(cfg)))
                    else:
                        if n == 1 and xi != eta:
                            forms.append(("n1", steady_closed_n1(cfg)))
                        if n >= 2 and n <= b <= 2 * n:
                            forms.append(("small", steady_closed_small_buffer(cfg)))
                        if n >= 2 and b >= 3 * n + 1:
                            forms.append(("large", steady_closed_large_buffer(cfg)))
                    for tag, ss in forms:
                        dev = float(np.max(np.abs(ss.probs - oracle)))
                        if dev > worst[tag]:
                            worst[tag] = dev
                            worst_case[tag] = (n, b, xi, eta)
    elapsed = time.monotonic() - t0
    ok_runtime = elapsed < 10.0
    failures = [tag for tag, dev in worst.items() if dev > 1e-10]
    detail = (
        f"worst dev: n1={worst['n1']:.2e} small={worst['small']:.2e} "
        f"eta1={worst['eta1']:.2e} large={worst['large']:.2e} at {worst_case.get('large')}; "
        f"runtime {elapsed:.1f}s"
    )
    ok = not failures and ok_runtime
    _report(1, "steady-state-equivalence", ok, detail)
    assert ok_runtime, f"grid runtime {elapsed:.1f}s exceeds 10s"
    assert not failures, f"closed forms beyond 1e-10 from the oracle: {failures} ({detail})"


# ---------------------------------------------------------------------------
# 2. characteristic root
# ---------------------------------------------------------------------------

def test_criterion_02_characteristic_root():
    problems = []
    worst_res = 0.0
    for n in (1, 2, 3, 5):
        for xi in (0.2, 0.5, 0.8):
            for eta in (0.2, 0.5, 0.8, 1.0):
                z = char_root(n, xi, eta)
                res = abs(char_poly(z, n, xi, eta))
                worst_res = max(worst_res, res)
                if res > 1e-12:
                    problems.append(f"residual {res:.1e} at {(n, xi, eta)}")
                sign_ok = (
                    (z < 1.0 and n * eta > xi)
                    or (z > 1.0 and n * eta < xi)
                    or (z == 1.0 and n * eta == xi)
                )
                if not sign_ok:
                    problems.append(f"sign mismatch at {(n, xi, eta)}")
    for xi in (0.2, 0.5, 0.8):
        for eta in (0.2, 0.5, 0.8):
            roots_n = [char_root(n, xi, eta) for n in (1, 2, 3, 5, 8)]
            if not all(a >= b - 1e-12 for a, b in zip(roots_n, roots_n[1:])):
                problems.append(f"not non-increasing in N at xi={xi} eta={eta}")
    for n in (2, 3):
        for xi in (0.2, 0.5, 0.8):
            roots_e = [char_root(n, xi, e) for e in (0.2, 0.4, 0.6, 0.8, 0.99)]
            if not all(a >= b - 1e-12 for a, b in zip(roots_e, roots_e[1:])):
                problems.append(f"not non-increasing in eta at N={n} xi={xi}")
        for eta in (0.2, 0.5, 0.8):
            roots_x = [char_root(n, x, eta) for x in (0.1, 0.3, 0.5, 0.7, 0.9)]
            if not all(a <= b + 1e-12 for a, b in zip(roots_x, roots_x[1:])):
                problems.append(f"not non-decreasing in xi at N={n} eta={eta}")
    approx_gap = 0.0
    for n in (1, 2):
        for xi in (0.2, 0.5, 0.8):
            for eta in (0.2, 0.5, 0.8):
                approx_gap = max(approx_gap, abs(char_root_approx(n, xi, eta) - char_root(n, xi, eta)))
    if approx_gap > 1e-12:
        problems.append(f"closed-form root not exact for N<=2: gap {approx_gap:.1e}")
    ok = not problems
    _report(2, "characteristic-root", ok,
            f"max residual {worst_res:.1e}; N<=2 closed-form gap {approx_gap:.1e}")
    assert ok, problems


# ---------------------------------------------------------------------------
# 3. formula specialization chain
# ---------------------------------------------------------------------------

def test_criterion_03_specialization_chain():
    phy = _phy(theta=1.3)
    problems = []
    worst_bn = worst_greedy = worst_inf = 0.0
    for n, xi, eta in [(1, 0.5, 0.7), (2, 0.5, 0.5), (3, 0.8, 0.3), (5, 0.3, 0.9), (2, 0.2, 1.0)]:
        net = NetworkConfig(density=0.01, N=n, B=n, xi=xi, eta=eta)
        general = network_aoi_general(steady_state(net.chain), net, phy)
        closed = network_aoi_small_buffer(net, phy)
        worst_bn = max(worst_bn, abs(general - closed) / max(1.0, abs(general)))
    if worst_bn > 1e-9:
        problems.append(f"B=N specialization off by {worst_bn:.1e}")
    for n, xi in [(1, 0.5), (2, 0.5), (3, 0.8), (5, 0.3)]:
        net = NetworkConfig(density=0.01, N=n, B=n, xi=xi, eta=1.0)
        worst_greedy = max(
            worst_greedy,
            abs(network_aoi_small_buffer(net, phy) - network_aoi_greedy(net, phy))
            / max(1.0, network_aoi_greedy(net, phy)),
        )
    if worst_greedy > 1e-9:
        problems.append(f"greedy specialization off by {worst_greedy:.1e}")
    for n, xi, eta in [(2, 0.5, 0.5), (3, 0.8, 0.3), (2, 0.5, 0.2), (3, 0.3, 0.9), (1, 0.5, 0.7), (1, 0.8, 0.3)]:
        b = 200 * n
        cfg = EnergyChainConfig(n, b, xi, eta)
        ss = steady_closed_n1(cfg) if n == 1 else solve_steady_numeric(build_transition_matrix(cfg))
        net = NetworkConfig(density=0.01, N=n, B=b, xi=xi, eta=eta)
        fin = network_aoi_general(ss, net, phy)
        inf = network_aoi_large_buffer(net, phy)
        worst_inf = max(worst_inf, abs(fin - inf) / max(1.0, abs(inf)))
    if worst_inf > 1e-6:
        problems.append(f"B=200N limit off by {worst_inf:.1e}")
    ok = not problems
    _report(3, "formula-specialization", ok,
            f"B=N gap {worst_bn:.1e}; eta=1 gap {worst_greedy:.1e}; B=200N gap {worst_inf:.1e}")
    assert ok, problems


# ---------------------------------------------------------------------------
# 4. exact micro oracle, formulas and simulation
# ---------------------------------------------------------------------------

def test_criterion_04_micro_oracle():
    cfg = EnergyChainConfig(N=1, B=1, xi=0.5, eta=1.0)
    moments = interval_moments(steady_state(cfg), cfg)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=1.0, eps=0.0)
    net = NetworkConfig(density=0.0, N=1, B=1, xi=0.5, eta=1.0)
    analytic = network_aoi_general(steady_state(cfg), net, phy)
    # physically the same interference-free setting: one isolated link
    topo = Topology(sources=np.array([[5.0, 5.0]]), receivers=np.array([[8.0, 5.0]]), side=20.0)
    sim = SimConfig(slots=1_000_000, realizations=1, seed=2024, side=20.0)
    rep = run(sim, phy, net, topology=topo)
    sim_ok = abs(rep.network_aoi - 2.0) / 2.0 < 0.005
    ok = (
        moments.mean == pytest.approx(2.0, abs=1e-12)
        and moments.second == pytest.approx(6.0, abs=1e-12)
        and analytic == pytest.approx(2.0, abs=1e-12)
        and sim_ok
    )
    _report(4, "exact-micro-oracle", ok,
            f"E[T]={moments.mean}, E[T^2]={moments.second}, formula={analytic}, "
            f"sim={rep.network_aoi:.5f} ({abs(rep.network_aoi - 2.0) / 2.0:.3%} off)")
    assert moments.mean == pytest.approx(2.0, abs=1e-12)
    assert moments.second == pytest.approx(6.0, abs=1e-12)
    assert analytic == pytest.approx(2.0, abs=1e-12)
    assert sim_ok, f"single-link simulation {rep.network_aoi} beyond 0.5% of 2.0"


# ---------------------------------------------------------------------------
# 5. finite-blocklength thresholds
# ---------------------------------------------------------------------------

def test_criterion_05_finite_blocklength():
    problems = []
    for eps in (1e-2, 1e-4, 1e-6):
        series = []
        for n in (1, 2, 5, 10):  # blocklengths 100..1000
            cfg = CodingConfig(k=K_BITS, N=n, target_rate=R_T, eps=eps)
            exact = effective_threshold_exact(cfg)
            approx = effective_threshold_approx(cfg)
            if approx < exact:
                problems.append(f"approx below exact at c={cfg.blocklength} eps={eps}")
            series.append((cfg.blocklength, exact, approx))
        gap100 = (series[0][2] - series[0][1]) / series[0][1]
        gap1000 = (series[-1][2] - series[-1][1]) / series[-1][1]
        if not gap1000 < gap100:
            problems.append(f"relative gap not shrinking for eps={eps}")
        for (c1, e1, a1), (c2, e2, a2) in zip(series, series[1:]):
            if not (e2 < e1 and a2 < a1):
                problems.append(f"thresholds not strictly decreasing between {c1} and {c2}")
    shannon = 2.0**R_T - 1.0
    # c_N = 1e8: the gap is the leading-order normal-approximation penalty.
    # theta = 2^(R_t + log2(e) Q^-1(eps)/sqrt(c) + O(log c / c)) - 1, so to first
    # order theta - (2^R_t - 1) = 2^R_t ln2 log2(e) Q^-1(eps)/sqrt(c); the exact
    # threshold also carries the dispersion sqrt(1 - (1+gamma)^-2) at the limit.
    worst_penalty = 0.0
    for eps in (1e-2, 1e-4, 1e-6):
        cfg = CodingConfig(k=K_BITS, N=1_000_000, target_rate=R_T, eps=eps)
        penalty = 2.0**R_T * q_inverse(eps) / math.sqrt(cfg.blocklength)
        for kind, theta, lead in (
            ("exact", effective_threshold_exact(cfg), penalty * math.sqrt(1.0 - 2.0 ** (-2.0 * R_T))),
            ("approx", effective_threshold_approx(cfg), penalty),
        ):
            rel = abs((theta - shannon) - lead) / lead
            worst_penalty = max(worst_penalty, rel)
            if rel > 1e-3:
                problems.append(
                    f"{kind} gap {theta - shannon:.3e} at c=1e8 eps={eps} is {rel:.1e} "
                    f"off its leading-order penalty {lead:.3e}"
                )
    # c_N = 1e10: inside the 1e-4 box around 2^R_t - 1
    shannon_gaps = []
    for eps in (1e-2, 1e-4, 1e-6):
        cfg = CodingConfig(k=K_BITS, N=10**8, target_rate=R_T, eps=eps)  # c_N = 1e10
        gex = abs(effective_threshold_exact(cfg) - shannon)
        gap = abs(effective_threshold_approx(cfg) - shannon)
        shannon_gaps.append(max(gex, gap))
    if not all(g <= 1e-4 for g in shannon_gaps):
        problems.append(
            f"|theta(c=1e10) - (2^Rt - 1)| = {max(shannon_gaps):.2e} > 1e-4"
        )
    ok = not problems
    _report(5, "finite-blocklength", ok,
            f"{'all checks ok' if ok else problems}; gap at c=1e8 vs leading-order penalty: "
            f"{worst_penalty:.1e} relative (box 1e-3); Shannon gap at c=1e10: "
            f"{max(shannon_gaps):.2e} (box 1e-4)")
    assert ok, problems


# ---------------------------------------------------------------------------
# 6. simulation vs analytics at desk scale
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_06_sim_vs_analytic_desk_scale():
    t0 = time.monotonic()
    theta = _theta(3)
    phy = _phy(snr_db=13.0, theta=theta)
    net = NetworkConfig(density=0.01, N=3, B=30, xi=0.8, eta=0.3)
    analytic = network_aoi_general(steady_state(net.chain), net, phy)
    sim = SimConfig(slots=100_000, realizations=20, seed=88, side=100.0)
    rep = run(sim, phy, net)
    rel = abs(rep.network_aoi - analytic) / analytic
    curve_small = []
    for b in range(3, 10):  # B/N in [1, 3]
        nb = NetworkConfig(density=0.01, N=3, B=b, xi=0.8, eta=0.3)
        curve_small.append(network_aoi_general(steady_state(nb.chain), nb, phy))
    curve_large = []
    for b in range(30, 61, 6):  # B/N in [10, 20]
        nb = NetworkConfig(density=0.01, N=3, B=b, xi=0.8, eta=0.3)
        curve_large.append(network_aoi_general(steady_state(nb.chain), nb, phy))
    swing_small = max(curve_small) / min(curve_small) - 1.0
    swing_large = max(curve_large) / min(curve_large) - 1.0
    elapsed = time.monotonic() - t0
    ok = rel < 0.10 and swing_small > 0.05 and swing_large < 0.02 and elapsed < 600.0
    _report(6, "sim-vs-analytic", ok,
            f"sim={rep.network_aoi:.2f}+-{rep.ci_halfwidth:.2f} vs formula={analytic:.2f} "
            f"({rel:.2%}); swing B/N<=3: {swing_small:.2%}, B/N>=10: {swing_large:.2%}; "
            f"runtime {elapsed:.0f}s")
    assert rel < 0.10
    assert swing_small > 0.05
    assert swing_large < 0.02
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 7. energy-constrained-regime structure
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_07_ecr_structure():
    problems = []
    phy = _phy(theta=1.3)
    # (a) single-unit flatness in eta with the exact root
    xi = 0.3
    ref = network_aoi_large_buffer(NetworkConfig(0.01, 1, 100, xi, 0.35), phy)
    for eta in np.linspace(xi + 0.02, 1.0, 15):
        val = network_aoi_large_buffer(NetworkConfig(0.01, 1, 100, xi, float(eta)), phy)
        if abs(val - ref) > 1e-9 * ref:
            problems.append(f"N=1 curve moves at eta={eta:.3f}")
    # (b) greedy minimum and boundary gap for N=5, xi=0.3
    n, xi = 5, 0.3
    best = network_aoi_large_buffer(NetworkConfig(0.01, n, 100, xi, 1.0), phy)
    for eta in np.linspace(xi / n + 1e-3, 1.0, 40):
        if network_aoi_large_buffer(NetworkConfig(0.01, n, 100, xi, float(eta)), phy) < best - 1e-9:
            problems.append(f"eta={eta:.3f} beats greedy")
    eta_edge = (xi / n) * (1.0 + 1e-9)
    # greedy updating has no rectification: the surrogate's boundary gap is its rectification
    gap_surrogate = zeta_rectification(n, eta_edge, xi, char_root_approx(n, xi, eta_edge))
    gap_exact_root = (
        network_aoi_large_buffer(NetworkConfig(0.01, n, 100, xi, eta_edge), phy) - best
    )
    if abs(gap_surrogate - (n / xi - 1.0)) > 1e-6:
        problems.append(f"boundary gap {gap_surrogate} != N/xi - 1")
    # (c) simulation separates eta = 1 from a low rate, outside the CIs.
    # Noise-free link budget keeps the regime (interference + scarce energy)
    # while making the eta-contrast statistically resolvable at desk scale.
    theta5 = _theta(5)
    phy_sim = PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=theta5, eps=1e-6)
    reports = {}
    for eta in (0.1, 1.0):
        net = NetworkConfig(density=0.01, N=5, B=100, xi=0.3, eta=eta)
        reports[eta] = run(SimConfig(slots=30_000, realizations=10, seed=1234, side=80.0), phy_sim, net)
    low, greedy = reports[0.1], reports[1.0]
    separated = greedy.network_aoi + greedy.ci_halfwidth < low.network_aoi - low.ci_halfwidth
    if not separated:
        problems.append("simulated eta=1 advantage not outside overlapping CIs")
    ok = not problems
    _report(7, "ecr-structure", ok,
            f"surrogate-root boundary gap={gap_surrogate:.8f} (N/xi-1={n / xi - 1:.6f}; "
            f"exact-root limit gives {gap_exact_root:.4f} ~= (N-1)/2xi={(n - 1) / (2 * xi):.4f}); "
            f"sim eta=1: {greedy.network_aoi:.2f}+-{greedy.ci_halfwidth:.2f} vs "
            f"eta=0.1: {low.network_aoi:.2f}+-{low.ci_halfwidth:.2f}")
    assert ok, problems


# ---------------------------------------------------------------------------
# 8. optimizer vs exhaustive grid
# ---------------------------------------------------------------------------

def _char_root_band(n, xi, etas):
    lo = np.zeros_like(etas)
    hi = np.ones_like(etas)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        geo = np.where(
            np.abs(mid - 1.0) < 1e-14, float(n - 1),
            mid * (mid ** (n - 1) - 1.0) / (mid - 1.0),
        )
        g = (1 - xi) * etas * mid**n + etas * geo - xi * (1 - etas)
        below = g < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _grid_truth(lam, xi, thetas, roots, alpha=3.8, r=3.0, snr=None, eps=1e-6, step=1e-3):
    """Best (aoi, eta, N) on the eta grid; ``roots`` memoizes the ECR roots by N.

    The roots depend on (N, xi) alone, so one ``roots`` dict serves every
    density at a given xi.
    """
    snr = db_to_linear(20.0) if snr is None else snr
    etas = np.arange(step, 1.0 + step / 2, step)
    best = (np.inf, math.nan, 0)
    for n in range(1, len(thetas) + 1):
        th = thetas[n - 1]
        om = omega(th, alpha)
        noise = r**alpha * th / snr
        esr = n * etas <= xi
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = np.where(
                esr,
                np.exp(noise + lam * om * r * r * etas / (1 - etas) ** (1 - 2 / alpha)) / (etas * (1 - eps)),
                np.inf,
            )
        if (~esr).any() and xi / n < 1.0:
            e = etas[~esr]
            if n not in roots:
                roots[n] = _char_root_band(n, xi, e)
            z = roots[n]
            sa = np.exp(noise + lam * om * r * r * (xi / n) / (1 - xi / n) ** (1 - 2 / alpha)) * n / (xi * (1 - eps))
            with np.errstate(divide="ignore", invalid="ignore"):
                zeta = -z / (xi * (1 - z)) + z / (n * e * (1 - z)) + 1 / e - 1
            zeta = np.where(e == 1.0, 0.0, zeta)
            vals[~esr] = sa - (n - 1) / (2 * xi) + zeta
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = (float(vals[i]), float(etas[i]), n)
    return best


def test_criterion_08_optimizer_vs_grid():
    thetas = [_theta(n) for n in range(1, 201)]
    problems = []
    results = {}
    worst_rel = 0.0
    for xi in (0.25, 0.5, 0.75, 1.0):
        stars = []
        roots = {}
        for lam in (0.001, 0.01, 0.05):
            phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=db_to_linear(20.0), theta=thetas[0],
                            eps=1e-6, target_rate=R_T, bits_per_unit=K_BITS)
            net = NetworkConfig(density=lam, N=1, B=100, xi=xi, eta=min(xi, 1.0))
            found = optimize(phy, net)
            truth = _grid_truth(lam, xi, thetas, roots)
            rel = abs(found.aoi_star - truth[0]) / truth[0]
            worst_rel = max(worst_rel, rel)
            if rel > 0.02:
                problems.append(f"xi={xi} lam={lam}: opt {found.aoi_star:.4f} vs grid {truth[0]:.4f}")
            stars.append((lam, found.n_star, found.regime))
            results[(xi, lam)] = found
        ns = [s[1] for s in stars]
        if not all(a <= b for a, b in zip(ns, ns[1:])):
            problems.append(f"n_star not non-decreasing in density at xi={xi}: {ns}")
        regimes = [s[2] for s in stars]
        if regimes[0] != "ESR" or regimes[-1] != "ECR":
            problems.append(f"regime did not flip ESR->ECR at xi={xi}: {regimes}")
    ok = not problems
    _report(8, "optimizer-vs-grid", ok,
            f"12 configs, worst |opt-grid|/grid = {worst_rel:.2e}; "
            f"n_star rows e.g. xi=0.5: {[results[(0.5, l)].n_star for l in (0.001, 0.01, 0.05)]}")
    assert ok, problems


# ---------------------------------------------------------------------------
# 9. large-N scaling law
# ---------------------------------------------------------------------------

def test_criterion_09_scaling_law():
    from ehaoi.aoi import aoi_scaling_large_n

    n, xi = 400, 0.5
    theta_n = _theta(n)
    phy = PhyConfig(alpha=3.8, r=3.0, tx_snr=float("inf"), theta=theta_n, eps=1e-6)
    net = NetworkConfig(density=0.01, N=n, B=100 * n, xi=xi, eta=1.0)
    full = network_aoi_large_buffer(net, phy)
    scaling = aoi_scaling_large_n(net, replace(phy, theta=2.0**R_T - 1.0))
    ratio = full / scaling
    ok = abs(ratio - 1.0) < 0.05
    _report(9, "scaling-law", ok, f"ratio at N=400: {ratio:.6f}")
    assert ok, f"scaling ratio {ratio} outside 5% of 1"


# ---------------------------------------------------------------------------
# 10. alternative arrival and update patterns
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_alternative_patterns():
    problems = []
    theta2 = _theta(2)
    phy = _phy(snr_db=13.0, theta=theta2)
    net = NetworkConfig(density=0.01, N=2, B=100, xi=0.5, eta=0.8)
    analytic = network_aoi_general(steady_state(net.chain), net, phy)
    rep_binom = run(
        SimConfig(slots=30_000, realizations=8, seed=55, side=80.0,
                  arrivals=BinomialArrivals(e_max=10, p=0.05)),
        phy, net,
    )
    rel = abs(rep_binom.network_aoi - analytic) / analytic
    if rel > 0.15:
        problems.append(f"binomial arrivals {rep_binom.network_aoi:.2f} vs analytic {analytic:.2f}")
    netg = NetworkConfig(density=0.01, N=2, B=100, xi=0.5, eta=1.0)
    rep_bern = run(SimConfig(slots=25_000, realizations=8, seed=66, side=80.0,
                             updates=BernoulliUpdates(1.0)), phy, netg)
    rep_perd = run(SimConfig(slots=25_000, realizations=8, seed=77, side=80.0,
                             updates=PeriodicUpdates(1)), phy, netg)
    a, b = rep_bern.realization_means, rep_perd.realization_means
    t_stat = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    if abs(t_stat) > 1.96:
        problems.append(f"periodic T=1 vs Bernoulli eta=1 Welch t = {t_stat:.2f}")
    ok = not problems
    _report(10, "alternative-patterns", ok,
            f"binomial rel gap {rel:.2%} (box 15%); periodic-vs-bernoulli Welch t={t_stat:.2f}")
    assert ok, problems
