"""Command-line front end: experiment dispatch, CSV/JSON emission."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .detection import DetectorModel
from .experiments import (
    ExperimentConfig,
    calibrate_tau,
    power_scaled_tau,
    reproduce_number_tables,
    run_power_comparison,
    run_sweep,
    simulate_experiment,
)
from .metrics import PHI_PLUS, PSI_MINUS, chsh_max, fidelity_to_phi_plus, tangle
from .source import SpdcParams
from .tomography import (
    SETTINGS,
    ConvergenceError,
    ingest_counts,
    mle_reconstruct,
    monte_carlo_report,
    optimize_local_fidelity,
    simulate_counts,
    write_counts,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NO_CONVERGENCE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_dir(arg: str | None) -> Path:
    root = arg or os.environ.get("HERALDSIM_OUT") or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _rho_to_json(rho: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(rho)]


def _write_number_table(path: Path, table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n1H", "n1V", "n2H", "n2V", "probability"])
        for occ, prob in sorted(table.items()):
            writer.writerow([*occ, repr(float(prob))])


def _load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_json_dict(data)


def _named_state(name: str) -> np.ndarray:
    if name == "phi+":
        return np.outer(PHI_PLUS, PHI_PLUS.conj())
    if name == "psi-":
        return np.outer(PSI_MINUS, PSI_MINUS.conj())
    if name == "mixed":
        return np.eye(4, dtype=complex) / 4.0
    if name.startswith("werner:"):
        p = float(name.split(":", 1)[1])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"werner weight must be in [0, 1], got {p}")
        return p * np.outer(PHI_PLUS, PHI_PLUS.conj()) + (1.0 - p) * np.eye(4) / 4.0
    raise ValueError(f"unknown state {name!r} (use phi+, psi-, mixed or werner:p)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="heraldsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one heralding experiment end to end")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="preparation probability vs transmission")
    p.add_argument("--t", required=True, help="comma-separated transmissions")
    p.add_argument("--tau", type=float, default=0.3)
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--visibility", type=float, default=0.862)
    p.add_argument("--eta", type=float, default=DetectorModel().efficiency)
    p.add_argument("--out")

    p = sub.add_parser("tomo-sim", help="simulate tomography counts from a known state")
    p.add_argument("--state", default="phi+")
    p.add_argument("--events", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("reconstruct", help="MLE reconstruction from a counts CSV")
    p.add_argument("--counts", required=True)
    p.add_argument("--optimize-local", action="store_true")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("metrics", help="scalar metrics of a reconstructed state")
    p.add_argument("--counts", required=True)
    p.add_argument("--optimize-local", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("reproduce-tables", help="photon-number tables vs reference data")
    p.add_argument("--config", required=True)
    p.add_argument("--ratio", help="reference column to compare against, e.g. 50/50")
    p.add_argument("--out")

    p = sub.add_parser("calibrate", help="fit the emission amplitude to reference data")
    p.add_argument("--target-p11", type=float, default=3.06e-3)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=DetectorModel().efficiency)
    p.add_argument("--visibility", type=float, default=0.862)
    p.add_argument("--out")

    p = sub.add_parser("power-compare", help="post-selected fidelity at two pump powers")
    p.add_argument("--tau-high", type=float, required=True)
    p.add_argument("--tau-low", type=float)
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--eta", type=float, default=DetectorModel().efficiency)
    p.add_argument("--out")
    return parser


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args.out)
    result = simulate_experiment(config)
    _write_number_table(out / "number_table.csv", result.table)
    _write_json(out / "metrics.json", result.metrics)
    _write_json(out / "rho_post.json", {"rho": _rho_to_json(result.rho_post)})
    print(f"herald probability {result.herald_probability:.6e}; results in {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        ts = [float(x) for x in args.t.split(",") if x]
    except ValueError:
        raise UsageError(f"--t expects comma-separated floats, got {args.t!r}")
    if not ts:
        raise UsageError("--t list is empty")
    out = _out_dir(args.out)
    spdc = SpdcParams(tau=args.tau, max_pairs=args.pairs, visibility=args.visibility)
    detectors = DetectorModel(efficiency=args.eta)
    configs = [ExperimentConfig(t1=t, t2=t, spdc=spdc, detectors=detectors) for t in ts]
    rows = run_sweep(configs)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t1", "t2", "herald_probability", "P_direct", "P_estimator", "herald_rate_relative"]
        )
        for r in rows:
            writer.writerow([repr(float(r[k])) for k in (
                "t1", "t2", "herald_probability", "P_direct", "P_estimator",
                "herald_rate_relative")])
    emit_fig2_series(rows, out / "fig2_series.csv")
    print(f"swept {len(rows)} transmissions; results in {out}")
    return EXIT_OK


def emit_fig2_series(rows, path: Path) -> None:
    """Transmission vs heralded-preparation probability series."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["transmission", "P_estimator"])
        for r in rows:
            writer.writerow([repr(float(r["t1"])), repr(float(r["P_estimator"]))])


def emit_fig3_series(result: dict, path: Path) -> None:
    """Pump power vs post-selected fidelity series."""
    from .experiments import HIGH_POWER_W, LOW_POWER_W

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["power_w", "F_post"])
        writer.writerow([repr(LOW_POWER_W), repr(float(result["F_post_low"]))])
        writer.writerow([repr(HIGH_POWER_W), repr(float(result["F_post_high"]))])


def _cmd_tomo_sim(args) -> int:
    if args.seed is None:
        raise UsageError("tomo-sim is stochastic: --seed is required")
    rho = _named_state(args.state)
    out = _out_dir(args.out)
    table = simulate_counts(rho, SETTINGS, args.events, args.seed)
    write_counts(table, out / "counts.csv")
    print(f"simulated {args.events} events/setting; counts in {out / 'counts.csv'}")
    return EXIT_OK


def _reconstruction_payload(args, with_mc: bool) -> dict:
    table = ingest_counts(args.counts)
    result = mle_reconstruct(table)
    payload = {
        "counts_file": str(args.counts),
        "ratio": table.ratio,
        "rho": _rho_to_json(result.rho),
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
        "fidelity_phi_plus": fidelity_to_phi_plus(result.rho),
        "tangle": tangle(result.rho),
        "chsh": chsh_max(result.rho),
    }
    if args.optimize_local:
        payload["fidelity_optimized"] = optimize_local_fidelity(result.rho)[0]
    if with_mc and args.mc_samples > 0:
        functionals = {
            "tangle": tangle,
            "chsh": chsh_max,
            "fidelity_phi_plus": fidelity_to_phi_plus,
        }
        if args.optimize_local:
            functionals["fidelity_optimized"] = lambda r: optimize_local_fidelity(r)[0]
        report = monte_carlo_report(table, args.mc_samples, args.seed, functionals)
        payload["monte_carlo"] = {
            name: {
                "mean": res.mean,
                "std": res.std,
                "n_samples": res.n_samples,
                "n_failures": res.n_failures,
            }
            for name, res in report.items()
        }
    return payload


def _cmd_reconstruct(args) -> int:
    if args.mc_samples > 0 and args.seed is None:
        raise UsageError("Monte Carlo resampling is stochastic: --seed is required")
    out = _out_dir(args.out)
    payload = _reconstruction_payload(args, with_mc=True)
    _write_json(out / "reconstruction.json", payload)
    line = f"fidelity {payload['fidelity_phi_plus']:.4f}"
    if "fidelity_optimized" in payload:
        line += f" (optimized {payload['fidelity_optimized']:.4f})"
    line += f", tangle {payload['tangle']:.4f}, S {payload['chsh']:.4f}"
    print(line + f"; report in {out / 'reconstruction.json'}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    out = _out_dir(args.out)
    args.mc_samples = 0
    payload = _reconstruction_payload(args, with_mc=False)
    _write_json(out / "metrics.json", payload)
    print(f"metrics in {out / 'metrics.json'}")
    return EXIT_OK


def _cmd_reproduce_tables(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args.out)
    report = reproduce_number_tables(config, ratio=args.ratio)
    table = {tuple(int(c) for c in key): v for key, v in report["table"].items()}
    _write_number_table(out / "number_table.csv", table)
    _write_json(out / "table_report.json", report)
    flagged = [
        k for k, row in report.get("comparison", {}).items() if row.get("flagged")
    ]
    note = f"; flagged: {', '.join(flagged)}" if flagged else ""
    print(f"tables in {out}{note}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    out = _out_dir(args.out)
    report = calibrate_tau(
        target_p11=args.target_p11,
        t1=args.t,
        t2=args.t,
        detectors=DetectorModel(efficiency=args.eta),
        visibility=args.visibility,
    )
    _write_json(out / "calibration.json", report)
    print(f"tau = {report['tau']:.5f}; report in {out / 'calibration.json'}")
    return EXIT_OK


def _cmd_power_compare(args) -> int:
    out = _out_dir(args.out)
    tau_low = args.tau_low if args.tau_low is not None else power_scaled_tau(args.tau_high)
    result = run_power_comparison(
        args.tau_high, tau_low, args.t, DetectorModel(efficiency=args.eta)
    )
    _write_json(out / "power_comparison.json", result)
    emit_fig3_series(result, out / "fig3_series.csv")
    print(
        f"F_post high {result['F_post_high']:.4f} / low {result['F_post_low']:.4f}; "
        f"results in {out}"
    )
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "tomo-sim": _cmd_tomo_sim,
    "reconstruct": _cmd_reconstruct,
    "metrics": _cmd_metrics,
    "reproduce-tables": _cmd_reproduce_tables,
    "calibrate": _cmd_calibrate,
    "power-compare": _cmd_power_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
