"""Command-line front end: experiment dispatch, CSV/JSON emission."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .detection import DetectorModel
from .experiments import (
    HIGH_POWER_W,
    LOW_POWER_W,
    REFERENCE_NUMBER_PROBS,
    ExperimentConfig,
    calibrate_tau,
    power_scaled_tau,
    reproduce_number_tables,
    run_power_comparison,
    run_sweep,
    simulate_experiment,
)
from .metrics import PHI_PLUS, PSI_MINUS, state_figures
from .source import PAPER_VISIBILITY, SpdcParams
from .tomography import (
    SETTINGS,
    ConvergenceError,
    check_monte_carlo,
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
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _rho_to_json(rho: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(rho)]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_number_table(path: Path, table) -> None:
    rows = ([*occ, repr(float(prob))] for occ, prob in table.items())
    _write_csv(path, ["n1H", "n1V", "n2H", "n2V", "probability"], rows)


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


def _build_parser(names) -> _Parser:
    """The heraldsim parser with the subcommands ``names`` of ``_COMMANDS``, in table order."""
    parser = _Parser(prog="heraldsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        if name in names:
            p = sub.add_parser(name, help=command.help)
            for flag, kwargs in command.arguments:
                p.add_argument(flag, **kwargs)
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
    header = ["t1", "t2", "herald_probability", "P_direct", "P_estimator", "herald_rate_relative"]
    _write_csv(out / "sweep.csv", header, ([repr(float(r[k])) for k in header] for r in rows))
    emit_fig2_series(rows, out / "fig2_series.csv")
    print(f"swept {len(rows)} transmissions; results in {out}")
    return EXIT_OK


def emit_fig2_series(rows, path: Path) -> None:
    """Transmission vs heralded-preparation probability series."""
    series = ([repr(float(r["t1"])), repr(float(r["P_estimator"]))] for r in rows)
    _write_csv(path, ["transmission", "P_estimator"], series)


def emit_fig3_series(result: dict, path: Path) -> None:
    """Pump power vs post-selected fidelity series."""
    _write_csv(path, ["power_w", "F_post"], [
        [repr(LOW_POWER_W), repr(float(result["F_post_low"]))],
        [repr(HIGH_POWER_W), repr(float(result["F_post_high"]))],
    ])


def _cmd_tomo_sim(args) -> int:
    if args.seed is None:
        raise UsageError("tomo-sim is stochastic: --seed is required")
    rho = _named_state(args.state)
    out = _out_dir(args.out)
    table = simulate_counts(rho, SETTINGS, args.events, args.seed)
    write_counts(table, out / "counts.csv")
    print(f"simulated {args.events} events/setting; counts in {out / 'counts.csv'}")
    return EXIT_OK


def _reconstruction_payload(args) -> dict:
    table = ingest_counts(args.counts)
    result = mle_reconstruct(table, args.mc_samples, args.seed)
    # every figure of the point estimate (row 0) and of the certified resamples comes off
    # one stack, which state_figures and optimize_local_fidelity each check once
    states = np.concatenate([result.rho[None], result.samples])
    figures = dict(zip(("fidelity_phi_plus", "tangle", "chsh"), state_figures(states)))
    if args.optimize_local:
        figures["fidelity_optimized"] = optimize_local_fidelity(states)[0]
    payload = {
        "counts_file": str(args.counts),
        "ratio": table.ratio,
        "rho": _rho_to_json(result.rho),
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
        "certificate": result.certificate,
        **{name: float(values[0]) for name, values in figures.items()},
    }
    if args.mc_samples > 0:
        report = monte_carlo_report(result, {name: values[1:] for name, values in figures.items()})
        payload["monte_carlo"] = {name: asdict(res) for name, res in report.items()}
    return payload


def _cmd_reconstruct(args) -> int:
    try:
        check_monte_carlo(args.mc_samples, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = _out_dir(args.out)
    payload = _reconstruction_payload(args)
    _write_json(out / "reconstruction.json", payload)
    line = f"fidelity {payload['fidelity_phi_plus']:.4f}"
    if "fidelity_optimized" in payload:
        line += f" (optimized {payload['fidelity_optimized']:.4f})"
    line += f", tangle {payload['tangle']:.4f}, S {payload['chsh']:.4f}"
    print(line + f"; report in {out / 'reconstruction.json'}")
    return EXIT_OK


def _cmd_reproduce_tables(args) -> int:
    config = _load_config(args.config)
    out = _out_dir(args.out)
    report = reproduce_number_tables(config, ratio=args.ratio)
    _write_number_table(out / "number_table.csv", report["table"])
    # a detector can count 10 photons or more, so the counts of a JSON key are comma-separated
    table = {",".join(map(str, occ)): prob for occ, prob in report["table"].items()}
    _write_json(out / "table_report.json", {**report, "table": table})
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
        max_pairs=args.pairs,
    )
    _write_json(out / "calibration.json", report)
    print(f"tau = {report['tau']:.5f}; report in {out / 'calibration.json'}")
    return EXIT_OK


def _cmd_power_compare(args) -> int:
    out = _out_dir(args.out)
    tau_low = args.tau_low if args.tau_low is not None else power_scaled_tau(args.tau_high)
    result = run_power_comparison(
        args.tau_high, tau_low, args.t, DetectorModel(efficiency=args.eta), max_pairs=args.pairs
    )
    _write_json(out / "power_comparison.json", result)
    emit_fig3_series(result, out / "fig3_series.csv")
    print(
        f"F_post high {result['F_post_high']:.4f} / low {result['F_post_low']:.4f}; "
        f"results in {out}"
    )
    return EXIT_OK


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    arguments: tuple[tuple[str, dict], ...]  # (flag, add_argument keywords), in help order


_OUT = ("--out", {})

_COMMANDS = {
    "simulate": _Command(_cmd_simulate, "run one heralding experiment end to end", (
        ("--config", {"required": True, "help": "experiment config JSON"}),
        _OUT,
    )),
    "sweep": _Command(_cmd_sweep, "preparation probability vs transmission", (
        ("--t", {"required": True, "help": "comma-separated transmissions"}),
        ("--tau", {"type": float, "default": SpdcParams.tau}),
        ("--pairs", {"type": int, "default": SpdcParams.max_pairs}),
        ("--visibility", {"type": float, "default": PAPER_VISIBILITY}),
        ("--eta", {"type": float, "default": DetectorModel.efficiency}),
        _OUT,
    )),
    "tomo-sim": _Command(_cmd_tomo_sim, "simulate tomography counts from a known state", (
        ("--state", {"default": "phi+"}),
        ("--events", {"type": int, "required": True}),
        ("--seed", {"type": int}),
        _OUT,
    )),
    "reconstruct": _Command(_cmd_reconstruct, "MLE reconstruction from a counts CSV", (
        ("--counts", {"required": True}),
        ("--optimize-local", {"action": "store_true"}),
        ("--mc-samples", {"type": int, "default": 0}),
        ("--seed", {"type": int}),
        _OUT,
    )),
    "reproduce-tables": _Command(
        _cmd_reproduce_tables, "photon-number tables vs reference data", (
            ("--config", {"required": True}),
            ("--ratio", {"help": "reference column to compare against, e.g. 50/50"}),
            _OUT,
        )),
    "calibrate": _Command(_cmd_calibrate, "fit the emission amplitude to reference data", (
        ("--target-p11", {"type": float, "default": REFERENCE_NUMBER_PROBS["50/50"]["p11"]}),
        ("--t", {"type": float, "default": 0.5}),
        ("--eta", {"type": float, "default": DetectorModel.efficiency}),
        ("--visibility", {"type": float, "default": PAPER_VISIBILITY}),
        ("--pairs", {"type": int, "default": SpdcParams.max_pairs}),
        _OUT,
    )),
    "power-compare": _Command(_cmd_power_compare, "post-selected fidelity at two pump powers", (
        ("--tau-high", {"type": float, "required": True}),
        ("--tau-low", {"type": float}),
        ("--t", {"type": float, "default": 0.3}),
        ("--eta", {"type": float, "default": DetectorModel.efficiency}),
        ("--pairs", {"type": int, "default": SpdcParams.max_pairs}),
        _OUT,
    )),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command builds its own parser alone; anything else, help included, sees every command
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    parser = _build_parser(names)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command].run(args)
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
