"""Command-line interface.

Subcommands: synth, simulate, qst, qpt, calib-summary, report.
Exit codes: 0 success, 2 usage, 3 schema/file, 4 numerical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import builtin_calibration_path, ingest_calibration
from .circuits import parse_circuit, path_graph, serialize_circuit, validate_connectivity
from .errors import CcxlabError, UsageError
from .experiments import (
    ExperimentConfig,
    Mode,
    emit_report,
    load_report,
    run_qpt_experiment,
    run_qst_experiment,
)
from .noise import NOISELESS
from .simulator import run_density, sample_distribution
from .states import StateKind
from .synthesis import DecompositionStrategy, certify_toffoli, decompose_toffoli
from .version import __version__


def _resolve_noise_path(value: str) -> str:
    if value.startswith("builtin:"):
        return str(builtin_calibration_path(value.split(":", 1)[1]))
    return value


def _experiment_config(args, default_shots: int) -> ExperimentConfig:
    mode = Mode.NOISE_AWARE if args.noise else Mode.NOISE_FREE
    return ExperimentConfig(
        mode=mode,
        input_state=StateKind(args.state),
        strategy=DecompositionStrategy(args.strategy),
        shots_per_setting=args.shots if args.shots is not None else default_shots,
        master_seed=args.seed,
        calibration_path=_resolve_noise_path(args.noise) if args.noise else None,
        repeats=args.repeats,
        exact_probabilities=args.exact_probabilities,
        apply_readout=not args.no_readout_error,
        noise_scale=args.noise_scale,
    )


def _write_or_print(report, args) -> None:
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")
    else:
        from .experiments import report_to_dict
        print(json.dumps(report_to_dict(report), indent=2))


def _add_experiment_flags(p: argparse.ArgumentParser, default_shots: int) -> None:
    p.add_argument("--state", default="GHZ", choices=[k.value for k in StateKind])
    p.add_argument("--strategy", default="ECR_NATIVE",
                   choices=[s.value for s in DecompositionStrategy])
    p.add_argument("--shots", type=int, default=None,
                   help=f"shots per setting (default {default_shots})")
    p.add_argument("--seed", type=int, default=1, help="master seed")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--noise", metavar="CALIBRATION",
                   help="calibration JSON path or builtin:<name>; enables noise-aware mode")
    p.add_argument("--noise-scale", type=float, default=1.0,
                   help="scale all error and relaxation rates by this factor")
    p.add_argument("--exact-probabilities", action="store_true",
                   help="bypass sampling; feed exact outcome distributions")
    p.add_argument("--no-readout-error", action="store_true",
                   help="noise-aware runs read out with zero readout confusion")
    p.add_argument("--out", help="output file (default: print JSON)")
    p.add_argument("--format", default="json", choices=["json", "csv"])


def _cmd_synth(args) -> int:
    strategy = DecompositionStrategy(args.strategy)
    try:
        controls = tuple(int(q) for q in args.controls.split(","))
    except ValueError:
        raise UsageError(f"--controls takes qubit indices, got {args.controls!r}") from None
    if len(controls) != 2:
        raise UsageError("--controls takes exactly two comma-separated qubits")
    if len({*controls, args.target}) != 3 or min(*controls, args.target) < 0:
        raise UsageError("--controls and --target must be three distinct non-negative qubits")
    circuit = decompose_toffoli(strategy, controls, args.target)
    report = certify_toffoli(circuit, controls, args.target)
    violations = validate_connectivity(circuit, path_graph(circuit.num_qubits))
    summary = {
        "strategy": strategy.value,
        "controls": list(controls),
        "target": args.target,
        "equivalent": report.equivalent,
        "max_abs_error": report.max_abs_error,
        "two_qubit_gates": report.gate_count_2q,
        "depth": report.depth,
        "path_violations": len(violations),
    }
    if args.out:
        Path(args.out).write_text(serialize_circuit(circuit))
        summary["circuit_file"] = args.out
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    if args.shots < 0:
        raise UsageError("--shots must be positive, or 0 to skip sampling")
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    text = Path(args.circuit).read_text()
    circuit = parse_circuit(text)
    nm = (ingest_calibration(_resolve_noise_path(args.noise)).noise_model(circuit.num_qubits)
          if args.noise else NOISELESS)
    rho = run_density(circuit, nm)
    probs = np.real(np.diag(rho))
    out = {"backend": "density", "purity": float(np.real(np.trace(rho @ rho))),
           "populations": [float(p) for p in probs]}
    if args.shots:
        n = circuit.num_qubits
        probs = np.clip(probs, 0.0, None)
        draws = sample_distribution(probs / probs.sum(), args.shots, (args.seed,))
        # MSB-first bitstrings: the highest qubit leftmost, qubit 0 rightmost
        out["counts"] = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0}
        out["shots"] = args.shots
    print(json.dumps(out, indent=2))
    return 0


def _cmd_qst(args) -> int:
    cfg = _experiment_config(args, default_shots=19000)
    report = run_qst_experiment(cfg)
    _write_or_print(report, args)
    return 0


def _cmd_qpt(args) -> int:
    if not args.accept_job_budget:
        raise UsageError("full process tomography runs 12^3 = 1728 circuits per repeat; "
                         "pass --accept-job-budget to confirm")
    cfg = _experiment_config(args, default_shots=11000)
    report = run_qpt_experiment(cfg)
    _write_or_print(report, args)
    return 0


def _cmd_calib_summary(args) -> int:
    table = ingest_calibration(_resolve_noise_path(args.calibration))
    payload = {
        "source": table.source,
        "num_qubit_records": len(table.qubits),
        "gate_error": table.gate_error,
        "gate_duration_ns": table.gate_duration,
        "columns": table.summary(),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote summary to {args.out}")
    else:
        print(text)
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.report)
    if args.out:
        emit_report(report, args.format, args.out)
        print(f"wrote {args.format} to {args.out}")
        return 0
    lines = [
        f"kind:            {report.kind}",
        f"repeats:         {len(report.fidelities)}",
        f"mean fidelity:   {report.mean_fidelity:.5f}",
        f"std fidelity:    {report.std_fidelity:.5f}",
        f"jobs x shots:    {report.num_jobs} x {report.config.get('shots_per_setting')}"
        f" = {report.total_measurements}",
        f"tool version:    {report.tool_version}",
    ]
    if report.hardware_reference:
        for state, f in report.hardware_reference.items():
            lines.append(f"hardware ref:    {state} {f:.5f} (published single-run value)")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccxlab",
                                     description="Toffoli synthesis, simulation, tomography")
    parser.add_argument("--version", action="version", version=f"ccxlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build and certify a Toffoli decomposition")
    p.add_argument("--strategy", required=True, choices=[s.value for s in DecompositionStrategy])
    p.add_argument("--controls", default="0,1", help="comma-separated control qubits")
    p.add_argument("--target", type=int, default=2)
    p.add_argument("--out", help="write the circuit text here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("simulate", help="run a circuit file through the density simulator")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--noise", metavar="CALIBRATION")
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("qst", help="state tomography of the Toffoli output")
    _add_experiment_flags(p, default_shots=19000)
    p.set_defaults(func=_cmd_qst)

    p = sub.add_parser("qpt", help="process tomography of the Toffoli gate")
    _add_experiment_flags(p, default_shots=11000)
    p.add_argument("--accept-job-budget", action="store_true",
                   help="confirm the 1728-circuit job budget")
    p.set_defaults(func=_cmd_qpt)

    p = sub.add_parser("calib-summary", help="validate and summarize a calibration file")
    p.add_argument("calibration")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_calib_summary)

    p = sub.add_parser("report", help="inspect or convert a report file")
    p.add_argument("report")
    p.add_argument("--out")
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CcxlabError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a user file that cannot be read or written
        print(f"error[schema]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
