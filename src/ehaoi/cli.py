"""Experiment runner: JSON specification in, CSV plus config sidecar out.

Each experiment kind drives one pipeline (stationary distributions,
decoding thresholds, analytic AoI curves, joint optimization or Monte
Carlo simulation).  Reruns of an identical spec produce byte-identical
CSVs; the sidecar records the fully resolved configuration, the library
version, and the seed actually used.

Exit codes: 0 ok, 2 bad-config, 3 out-of-regime, 4 non-convergence, 5 io.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .aoi import NetworkConfig, PhyConfig, network_aoi_general, network_aoi_greedy, network_aoi_large_buffer, network_aoi_small_buffer
from .energy_chain import build_transition_matrix, solve_steady_numeric, steady_state
from .errors import (
    BadConfig,
    EhAoiError,
    IterationBudgetExceeded,
    NeverSufficient,
    NonConvergence,
    NotRecurrent,
    OutOfRegime,
    SaturatedAccess,
    TargetRateTooLow,
)
from .fbl import CodingConfig, effective_threshold_approx, effective_threshold_exact
from .optimizer import optimize
from .sim import (
    BernoulliArrivals,
    BernoulliUpdates,
    BinomialArrivals,
    PeriodicUpdates,
    SimConfig,
    TwoStateMarkovArrivals,
    run,
)

KINDS = ("steady_state", "threshold", "aoi_curve", "optimize", "simulate")

_OUT_OF_REGIME = (OutOfRegime, NotRecurrent, SaturatedAccess, NeverSufficient,
                  TargetRateTooLow)
_NON_CONVERGENCE = (NonConvergence, IterationBudgetExceeded)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a kind, its parameter document, an optional sweep."""

    name: str
    kind: str
    params: dict
    sweep: tuple[str, tuple[float, ...]] | None = None
    output: str | None = None

    @classmethod
    def from_dict(cls, doc: dict, fallback_name: str = "experiment") -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise BadConfig("spec document must be a JSON object")
        kind = doc.get("kind")
        if kind not in KINDS:
            raise BadConfig(f"kind must be one of {KINDS}, got {kind!r}")
        sweep = None
        if "sweep" in doc and doc["sweep"] is not None:
            sw = doc["sweep"]
            try:
                values = tuple(float(v) for v in sw["values"])
                sweep = (str(sw["name"]), values)
            except (KeyError, TypeError, ValueError) as exc:
                raise BadConfig(f"malformed sweep section: {exc}") from exc
            if not values:
                raise BadConfig("sweep values must be non-empty")
            if any(not np.isfinite(v) for v in values):
                raise BadConfig("sweep values must be finite")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise BadConfig("params must be an object")
        return cls(
            name=str(doc.get("name", fallback_name)),
            kind=kind,
            params=params,
            sweep=sweep,
            output=doc.get("output"),
        )


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _phy_from_params(params: dict, n_units: int | None = None) -> PhyConfig:
    doc = params.get("phy")
    if doc is None:
        raise BadConfig("params.phy section is required")
    try:
        snr = float(doc["snr_db"]) if "snr_db" in doc else None
        tx_snr = 10.0 ** (snr / 10.0) if snr is not None else float(doc["tx_snr"])
        theta = doc.get("theta")
        target_rate = doc.get("target_rate")
        bits = doc.get("bits_per_unit")
        if theta is None:
            if target_rate is None or bits is None or n_units is None:
                raise BadConfig(
                    "phy.theta missing: provide it or target_rate+bits_per_unit with a net.N"
                )
            coding = CodingConfig(k=int(bits), N=int(n_units),
                                  target_rate=float(target_rate), eps=float(doc["eps"]))
            theta = effective_threshold_exact(coding)
        return PhyConfig(
            alpha=float(doc["alpha"]),
            r=float(doc["r"]),
            tx_snr=tx_snr,
            theta=float(theta),
            eps=float(doc["eps"]),
            target_rate=None if target_rate is None else float(target_rate),
            bits_per_unit=None if bits is None else int(bits),
        )
    except KeyError as exc:
        raise BadConfig(f"phy section missing key {exc}") from exc


def _net_from_params(params: dict) -> NetworkConfig:
    doc = params.get("net")
    if doc is None:
        raise BadConfig("params.net section is required")
    try:
        return NetworkConfig(
            density=float(doc["density"]),
            N=int(doc["N"]),
            B=int(doc["B"]),
            xi=float(doc["xi"]),
            eta=float(doc["eta"]),
        )
    except KeyError as exc:
        raise BadConfig(f"net section missing key {exc}") from exc


def _arrivals_from(doc: dict | None):
    if doc is None:
        return None
    kind = doc.get("type")
    if kind == "bernoulli":
        return BernoulliArrivals(xi=float(doc["xi"]))
    if kind == "binomial":
        return BinomialArrivals(e_max=int(doc["e_max"]), p=float(doc["p"]))
    if kind == "markov":
        return TwoStateMarkovArrivals(
            xi_good=float(doc["xi_good"]),
            xi_bad=float(doc["xi_bad"]),
            p_good_to_bad=float(doc["p_good_to_bad"]),
            p_bad_to_good=float(doc["p_bad_to_good"]),
        )
    raise BadConfig(f"unknown arrival pattern {kind!r}")


def _updates_from(doc: dict | None):
    if doc is None:
        return None
    kind = doc.get("type")
    if kind == "bernoulli":
        return BernoulliUpdates(eta=float(doc["eta"]))
    if kind == "periodic":
        return PeriodicUpdates(period=int(doc["period"]))
    raise BadConfig(f"unknown update pattern {kind!r}")


def _sim_from_params(params: dict, seed_override: int | None) -> SimConfig | None:
    doc = params.get("sim")
    if doc is None:
        return None
    try:
        seed = seed_override if seed_override is not None else int(doc.get("seed", 0))
        return SimConfig(
            slots=int(doc["slots"]),
            realizations=int(doc["realizations"]),
            seed=seed,
            side=float(doc["side"]),
            warmup=int(doc["warmup"]) if "warmup" in doc else None,
            arrivals=_arrivals_from(doc.get("arrivals")),
            updates=_updates_from(doc.get("updates")),
            census=float(doc.get("census", 1.0)),
            boundary=str(doc.get("boundary", "torus")),
        )
    except KeyError as exc:
        raise BadConfig(f"sim section missing key {exc}") from exc


def _set_param(net: NetworkConfig, name: str, value: float) -> NetworkConfig:
    if name not in ("density", "N", "B", "xi", "eta"):
        raise BadConfig(f"unknown sweep parameter {name!r}")
    kw = dataclasses.asdict(net)
    kw[name] = int(value) if name in ("N", "B") else value
    return NetworkConfig(**kw)


def _analytic_aoi(net: NetworkConfig, phy: PhyConfig, formula: str) -> float:
    if formula == "general":
        return network_aoi_general(steady_state(net.chain), net, phy)
    if formula == "large_buffer":
        return network_aoi_large_buffer(net, phy)
    if formula == "small_buffer":
        return network_aoi_small_buffer(net, phy)
    if formula == "greedy":
        return network_aoi_greedy(net, phy)
    raise BadConfig(f"unknown formula {formula!r}")


def _retuned_phy(params: dict, phy: PhyConfig, net: NetworkConfig, sweep_name: str) -> PhyConfig:
    # sweeping N moves the blocklength, so the threshold must follow
    if sweep_name == "N" and phy.target_rate is not None and phy.bits_per_unit is not None:
        coding = CodingConfig(k=phy.bits_per_unit, N=net.N,
                              target_rate=phy.target_rate, eps=phy.eps)
        return phy.with_theta(effective_threshold_exact(coding))
    return phy


def _run_steady_state(spec: ExperimentSpec):
    net = _net_from_params(spec.params)
    cfg = net.chain
    # the closed_form column is the exact cut recursion, numeric the dense oracle
    exact = steady_state(cfg)
    numeric = solve_steady_numeric(build_transition_matrix(cfg))
    header = ["level", "closed_form", "numeric", "abs_diff"]
    rows = [
        [i, exact.probs[i], numeric.probs[i], abs(exact.probs[i] - numeric.probs[i])]
        for i in range(cfg.B + 1)
    ]
    return header, rows, {"regime": exact.regime.value}


def _run_threshold(spec: ExperimentSpec):
    p = spec.params
    try:
        k = int(p["bits_per_unit"])
        target_rate = float(p["target_rate"])
        n_values = [int(v) for v in p.get("n_values", [1])]
        eps_values = [float(v) for v in p.get("eps_values", [p.get("eps", 1e-6)])]
    except KeyError as exc:
        raise BadConfig(f"threshold params missing {exc}") from exc
    header = ["blocklength", "eps", "exact", "approx", "abs_gap"]
    rows = []
    for n in n_values:
        for eps in eps_values:
            coding = CodingConfig(k=k, N=n, target_rate=target_rate, eps=eps)
            exact = effective_threshold_exact(coding)
            approx = effective_threshold_approx(coding)
            rows.append([coding.blocklength, eps, exact, approx, approx - exact])
    return header, rows, {}


def _run_curve(spec: ExperimentSpec, seed_override, threads):
    params = spec.params
    sweep = spec.sweep or ("B", tuple())
    name, values = sweep
    if not values:
        raise BadConfig(f"kind {spec.kind} requires a sweep section")
    base_net = _net_from_params(params)
    formula = params.get("formula", "general")
    sim_cfg = _sim_from_params(params, seed_override)
    header = [name, "analytic_aoi", "sim_aoi", "sim_ci"]
    rows = []

    def point(value: float):
        net = _set_param(base_net, name, value)
        phy = _phy_from_params(params, n_units=net.N)
        phy = _retuned_phy(params, phy, net, name)
        analytic = _analytic_aoi(net, phy, formula)
        if sim_cfg is not None:
            report = run(sim_cfg, phy, net, threads=1)
            return [value, analytic, report.network_aoi, report.ci_halfwidth]
        return [value, analytic, "", ""]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(point, values))
    else:
        rows = [point(v) for v in values]
    return header, rows, {"formula": formula, "simulated": sim_cfg is not None}


def _run_optimize(spec: ExperimentSpec, threads):
    params = spec.params
    base_net = _net_from_params(params)
    phy = _phy_from_params(params, n_units=base_net.N)
    if phy.target_rate is None or phy.bits_per_unit is None:
        raise BadConfig("optimize requires phy.target_rate and phy.bits_per_unit")
    sweep = spec.sweep or ("density", (base_net.density,))
    name, values = sweep
    header = [name, "aoi_star", "eta_star", "n_star", "regime"]

    def point(value: float):
        net = _set_param(base_net, name, value)
        best = optimize(phy, net)
        return [value, best.aoi_star, best.eta_star, best.n_star, best.regime]

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(point, values))
    else:
        rows = [point(v) for v in values]
    return header, rows, {}


def _run_simulate(spec: ExperimentSpec, seed_override, threads):
    params = spec.params
    net = _net_from_params(params)
    phy = _phy_from_params(params, n_units=net.N)
    sim_cfg = _sim_from_params(params, seed_override)
    if sim_cfg is None:
        raise BadConfig("simulate requires a params.sim section")
    report = run(sim_cfg, phy, net, threads=threads)
    header = [
        "network_aoi", "ci_halfwidth", "empirical_mu", "empirical_inv_mu",
        "interval_mean", "interval_second", "slots_measured",
    ]
    rows = [[
        report.network_aoi, report.ci_halfwidth, report.empirical_mu,
        report.empirical_inv_mu, report.empirical_interval_mean,
        report.empirical_interval_second, report.slots_measured,
    ]]
    return header, rows, {"seed": sim_cfg.seed}


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str | Path = ".",
    seed: int | None = None,
    threads: int = 1,
    quiet: bool = False,
) -> list[Path]:
    """Execute one experiment spec; returns the written file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if spec.kind == "steady_state":
        header, rows, extra = _run_steady_state(spec)
    elif spec.kind == "threshold":
        header, rows, extra = _run_threshold(spec)
    elif spec.kind == "aoi_curve":
        header, rows, extra = _run_curve(spec, seed, threads)
    elif spec.kind == "optimize":
        header, rows, extra = _run_optimize(spec, threads)
    elif spec.kind == "simulate":
        header, rows, extra = _run_simulate(spec, seed, threads)
    else:  # unreachable: from_dict validates
        raise BadConfig(f"unsupported kind {spec.kind!r}")
    csv_path = out / (spec.output or f"{spec.name}.csv")
    _write_csv(csv_path, header, rows)
    sidecar = {
        "name": spec.name,
        "kind": spec.kind,
        "library_version": __version__,
        "seed": seed if seed is not None else spec.params.get("sim", {}).get("seed"),
        "threads": threads,
        "params": spec.params,
        "sweep": None if spec.sweep is None else {"name": spec.sweep[0], "values": list(spec.sweep[1])},
        "outputs": [csv_path.name],
        **extra,
    }
    sidecar_path = csv_path.with_suffix(".config.json")
    with open(sidecar_path, "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    if not quiet:
        print(f"wrote {csv_path} and {sidecar_path}")
    return [csv_path, sidecar_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehaoi",
        description="Run age-of-information experiments from a JSON spec.",
    )
    parser.add_argument("--spec", required=True, help="path to the JSON experiment spec")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--threads", type=int, default=1, help="worker pool size")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = ExperimentSpec.from_dict(doc, fallback_name=Path(args.spec).stem)
        run_experiment(spec, out_dir=args.out, seed=args.seed,
                       threads=args.threads, quiet=args.quiet)
    except json.JSONDecodeError as exc:
        print(f"bad-config: {exc}", file=sys.stderr)
        return 2
    except (BadConfig, ValueError, KeyError, TypeError) as exc:
        print(f"bad-config: {exc}", file=sys.stderr)
        return 2
    except _OUT_OF_REGIME as exc:
        print(f"out-of-regime: {exc}", file=sys.stderr)
        return 3
    except _NON_CONVERGENCE as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 5
    except EhAoiError as exc:  # anything else library-specific
        print(f"out-of-regime: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
