"""Experiment runner: JSON specification in, CSV plus config sidecar out.

Each experiment kind drives one pipeline (stationary distributions,
decoding thresholds, analytic AoI curves, joint optimization or Monte
Carlo simulation).  Reruns of an identical spec produce byte-identical
CSVs; the sidecar records the fully resolved configuration, the library
version, and the seed actually used.

Exit codes: 0 ok, 2 bad-config, 3 out-of-regime, 4 non-convergence, 5 io.

The simulator, and with it numpy, is imported only for a spec with a
``sim`` section, so the analytic kinds start on the standard library.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import __version__
from .aoi import NetworkConfig, PhyConfig, db_to_linear, network_aoi_general, network_aoi_large_buffer
from .energy_chain import build_transition_matrix, solve_steady_numeric, steady_state
from .errors import BadConfig, EhAoiError
from .fbl import CodingConfig, effective_threshold_approx, effective_threshold_exact
from .optimizer import optimize

if TYPE_CHECKING:
    from .sim import SimConfig, SimReport


def run(sim_cfg: SimConfig, phy: PhyConfig, net: NetworkConfig) -> SimReport:
    """:func:`ehaoi.sim.run`, with the simulator imported at the first call."""
    from .sim import run as simulate

    return simulate(sim_cfg, phy, net)


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
        _known("spec document", doc, ("name", "kind", "params", "sweep", "output"))
        kind = doc.get("kind")
        if kind not in _RUNNERS:
            raise BadConfig(f"kind must be one of {tuple(_RUNNERS)}, got {kind!r}")
        _, param_keys, sweeps = _RUNNERS[kind]
        sweep = None
        if doc.get("sweep") is not None:
            if not sweeps:
                raise BadConfig(f"kind {kind} reads no 'sweep' section; remove it")
            sw = doc["sweep"]
            try:
                values = tuple(float(v) for v in sw["values"])
                sweep = (str(sw["name"]), values)
            except (KeyError, TypeError, ValueError) as exc:
                raise BadConfig(f"malformed sweep section: {exc}") from exc
            if not values:
                raise BadConfig("sweep values must be non-empty")
            if any(not math.isfinite(v) for v in values):
                raise BadConfig("sweep values must be finite")
        params = doc.get("params", {})
        _known("params", params, param_keys)
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


def _integer(key: str, value: Any) -> int:
    """``int(value)``, refusing a fractional number rather than truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise BadConfig(f"{key} must be an integer, got {value!r}")
    return int(value)


def _object(section: str, doc: Any) -> None:
    """Refuse a spec section that is not a JSON object."""
    if not isinstance(doc, dict):
        raise BadConfig(f"{section} must be a JSON object")


def _known(section: str, doc: Any, keys: tuple[str, ...]) -> None:
    """Refuse a non-object ``doc``, or a key of it outside ``keys``, which would otherwise be ignored."""
    _object(section, doc)
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise BadConfig(f"{section} has unknown key {unknown[0]!r}; known keys: {', '.join(keys)}")


_PHY_KEYS = ("alpha", "r", "snr_db", "tx_snr", "theta", "eps", "target_rate", "bits_per_unit")
_NET_KEYS = ("density", "N", "B", "xi", "eta")
_SIM_KEYS = ("slots", "realizations", "seed", "side", "warmup", "arrivals", "updates")


def _phy_from_params(params: dict, n_units: int | None = None, retune: bool = False) -> PhyConfig:
    """The phy section; ``retune`` solves theta for ``n_units`` even when one is given."""
    doc = params.get("phy")
    if doc is None:
        raise BadConfig("params.phy section is required")
    _known("phy", doc, _PHY_KEYS)
    try:
        snr = float(doc["snr_db"]) if "snr_db" in doc else None
        tx_snr = db_to_linear(snr) if snr is not None else float(doc["tx_snr"])
        theta = doc.get("theta")
        target_rate = doc.get("target_rate")
        bits = doc.get("bits_per_unit")
        coded = target_rate is not None and bits is not None and n_units is not None
        if theta is None or (retune and coded):
            if not coded:
                raise BadConfig(
                    "phy.theta missing: provide it or target_rate+bits_per_unit with a net.N"
                )
            coding = CodingConfig(k=_integer("phy.bits_per_unit", bits), N=n_units,
                                  target_rate=float(target_rate), eps=float(doc["eps"]))
            theta = effective_threshold_exact(coding)
        return PhyConfig(
            alpha=float(doc["alpha"]),
            r=float(doc["r"]),
            tx_snr=tx_snr,
            theta=float(theta),
            eps=float(doc["eps"]),
            target_rate=None if target_rate is None else float(target_rate),
            bits_per_unit=None if bits is None else _integer("phy.bits_per_unit", bits),
        )
    except KeyError as exc:
        raise BadConfig(f"phy section missing key {exc}") from exc


def _net_from_params(params: dict) -> NetworkConfig:
    doc = params.get("net")
    if doc is None:
        raise BadConfig("params.net section is required")
    _known("net", doc, _NET_KEYS)
    try:
        return NetworkConfig(
            density=float(doc["density"]),
            N=_integer("net.N", doc["N"]),
            B=_integer("net.B", doc["B"]),
            xi=float(doc["xi"]),
            eta=float(doc["eta"]),
        )
    except KeyError as exc:
        raise BadConfig(f"net section missing key {exc}") from exc


def _pattern_from(doc: dict | None, patterns: dict, key: str):
    """The pattern its ``type`` names, each field read from the key of its name."""
    if doc is None:
        return None
    _object(key, doc)
    cls = patterns.get(doc.get("type"))
    if cls is None:
        raise BadConfig(f"unknown {key} pattern {doc.get('type')!r}")
    _known(key, doc, ("type", *(f.name for f in dataclasses.fields(cls))))
    return cls(**{f.name: _integer(f"{key}.{f.name}", doc[f.name]) if f.type in (int, "int")
                  else float(doc[f.name]) for f in dataclasses.fields(cls)})


def _sim_from_params(params: dict, seed_override: int | None) -> SimConfig | None:
    doc = params.get("sim")
    if doc is None:
        return None
    _known("sim", doc, _SIM_KEYS)
    from .sim import (
        BernoulliArrivals,
        BernoulliUpdates,
        BinomialArrivals,
        PeriodicUpdates,
        SimConfig,
        TwoStateMarkovArrivals,
    )

    arrivals = {"bernoulli": BernoulliArrivals, "binomial": BinomialArrivals,
                "markov": TwoStateMarkovArrivals}
    updates = {"bernoulli": BernoulliUpdates, "periodic": PeriodicUpdates}
    try:
        seed = seed_override if seed_override is not None else _integer("sim.seed", doc.get("seed", 0))
        return SimConfig(
            slots=_integer("sim.slots", doc["slots"]),
            realizations=_integer("sim.realizations", doc["realizations"]),
            seed=seed,
            side=float(doc["side"]),
            warmup=_integer("sim.warmup", doc["warmup"]) if "warmup" in doc else None,
            arrivals=_pattern_from(doc.get("arrivals"), arrivals, "sim.arrivals"),
            updates=_pattern_from(doc.get("updates"), updates, "sim.updates"),
        )
    except KeyError as exc:
        raise BadConfig(f"sim section missing key {exc}") from exc


def _set_param(net: NetworkConfig, name: str, value: float) -> NetworkConfig:
    if name not in _NET_KEYS:
        raise BadConfig(f"unknown sweep parameter {name!r}")
    kw = dataclasses.asdict(net)
    kw[name] = _integer(f"sweep value of {name}", value) if name in ("N", "B") else value
    return NetworkConfig(**kw)


def _analytic_aoi(net: NetworkConfig, phy: PhyConfig, formula: str) -> float:
    if formula == "general":
        return network_aoi_general(steady_state(net.chain), net, phy)
    if formula == "large_buffer":
        return network_aoi_large_buffer(net, phy)
    raise BadConfig(f"formula must be 'general' or 'large_buffer', got {formula!r}")


def _run_steady_state(spec: ExperimentSpec, seed_override):
    cfg = _net_from_params(spec.params).chain
    # the closed_form column is the exact cut recursion, numeric the Hessenberg oracle
    exact = steady_state(cfg)
    numeric = solve_steady_numeric(build_transition_matrix(cfg))
    header = ["level", "closed_form", "numeric", "abs_diff"]
    rows = [
        [i, exact.probs[i], numeric.probs[i], abs(exact.probs[i] - numeric.probs[i])]
        for i in range(cfg.B + 1)
    ]
    return header, rows, {}


def _run_threshold(spec: ExperimentSpec, seed_override):
    p = spec.params
    if "eps" in p and "eps_values" in p:
        raise BadConfig("threshold params hold both 'eps' and 'eps_values'; keep one")
    try:
        k = _integer("bits_per_unit", p["bits_per_unit"])
        target_rate = float(p["target_rate"])
        n_values = [_integer("n_values", v) for v in p.get("n_values", [1])]
        eps_values = [float(v) for v in p.get("eps_values", [p.get("eps", 1e-6)])]
    except KeyError as exc:
        raise BadConfig(f"threshold params missing {exc}") from exc
    if not n_values:
        raise BadConfig("threshold n_values must be non-empty")
    if not eps_values:
        raise BadConfig("threshold eps_values must be non-empty")
    header = ["blocklength", "eps", "exact", "approx", "abs_gap"]
    rows = []
    for n in n_values:
        for eps in eps_values:
            coding = CodingConfig(k=k, N=n, target_rate=target_rate, eps=eps)
            exact = effective_threshold_exact(coding)
            approx = effective_threshold_approx(coding)
            rows.append([coding.blocklength, eps, exact, approx, approx - exact])
    return header, rows, {}


def _run_curve(spec: ExperimentSpec, seed_override):
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
    for value in values:
        net = _set_param(base_net, name, value)
        # sweeping N moves the blocklength, so the threshold must follow
        phy = _phy_from_params(params, n_units=net.N, retune=name == "N")
        analytic = _analytic_aoi(net, phy, formula)
        if sim_cfg is None:
            rows.append([value, analytic, "", ""])
        else:
            report = run(sim_cfg, phy, net)
            rows.append([value, analytic, report.network_aoi, report.ci_halfwidth])
    return header, rows, {"formula": formula, "simulated": sim_cfg is not None}


def _run_optimize(spec: ExperimentSpec, seed_override):
    params = spec.params
    base_net = _net_from_params(params)
    phy = _phy_from_params(params, n_units=base_net.N)
    if phy.target_rate is None or phy.bits_per_unit is None:
        raise BadConfig("optimize requires phy.target_rate and phy.bits_per_unit")
    sweep = spec.sweep or ("density", (base_net.density,))
    name, values = sweep
    header = [name, "aoi_star", "eta_star", "n_star", "regime"]
    rows = []
    for value in values:
        best = optimize(phy, _set_param(base_net, name, value))
        rows.append([value, best.aoi_star, best.eta_star, best.n_star, best.regime])
    return header, rows, {}


def _run_simulate(spec: ExperimentSpec, seed_override):
    params = spec.params
    net = _net_from_params(params)
    phy = _phy_from_params(params, n_units=net.N)
    sim_cfg = _sim_from_params(params, seed_override)
    if sim_cfg is None:
        raise BadConfig("simulate requires a params.sim section")
    report = run(sim_cfg, phy, net)
    header = ["network_aoi", "ci_halfwidth", "empirical_mu", "empirical_inv_mu",
              "interval_mean", "interval_second", "slots_measured"]
    row = [
        report.network_aoi, report.ci_halfwidth, report.empirical_mu,
        report.empirical_inv_mu, report.empirical_interval_mean,
        report.empirical_interval_second, report.slots_measured,
    ]
    # SimReport marks an unmeasured quantity with nan or inf; a CSV must not
    bad = [field for field, value in zip(header, row) if not math.isfinite(value)]
    if bad:
        raise BadConfig(
            f"simulate measured {', '.join(bad)} as non-finite: the measured horizon saw no "
            "attempt or no delivery; lengthen sim.slots or raise the update rate"
        )
    return header, [row], {"seed": sim_cfg.seed}


# kind -> (runner, the params keys it reads, whether it reads a sweep); each
# runner maps (spec, seed override) to (header, rows, sidecar extras)
_RUNNERS = {
    "steady_state": (_run_steady_state, ("net",), False),
    "threshold": (_run_threshold, ("bits_per_unit", "target_rate", "n_values", "eps_values", "eps"),
                  False),
    "aoi_curve": (_run_curve, ("phy", "net", "formula", "sim"), True),
    "optimize": (_run_optimize, ("phy", "net"), True),
    "simulate": (_run_simulate, ("phy", "net", "sim"), False),
}


def run_experiment(spec: ExperimentSpec, out_dir: str | Path = ".", seed: int | None = None,
                   quiet: bool = False) -> list[Path]:
    """Execute one experiment spec; returns the written file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header, rows, extra = _RUNNERS[spec.kind][0](spec, seed)
    csv_path = out / (spec.output or f"{spec.name}.csv")
    _write_csv(csv_path, header, rows)
    sidecar = {
        "name": spec.name,
        "kind": spec.kind,
        "library_version": __version__,
        "seed": seed if seed is not None else spec.params.get("sim", {}).get("seed"),
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


_NON_FINITE = object()  # what a NaN or Infinity literal in a spec parses to


def _finite_fields(pairs: list[tuple[str, Any]]) -> dict:
    for key, value in pairs:
        if value is _NON_FINITE or (isinstance(value, list) and _NON_FINITE in value):
            raise BadConfig(f"{key} must be finite")
    return dict(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehaoi",
        description="Run age-of-information experiments from a JSON spec.",
    )
    parser.add_argument("--spec", required=True, help="path to the JSON experiment spec")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the spec seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; the work is single-threaded")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=lambda _: _NON_FINITE, object_pairs_hook=_finite_fields)
        spec = ExperimentSpec.from_dict(doc, fallback_name=Path(args.spec).stem)
        run_experiment(spec, out_dir=args.out, seed=args.seed, quiet=args.quiet)
    except EhAoiError as exc:  # each type carries its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError, TypeError) as exc:
        print(f"bad-config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
