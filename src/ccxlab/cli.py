"""Command-line interface.

Subcommands: synth, simulate, qst, qpt, calib-summary, report. ``qst`` and
``qpt`` are one command over their kind's runner, with the same flags but
``--state``, the input that only state tomography prepares.
Each of their flags that sets an ``ExperimentConfig`` field parses into that
field's name and defaults to that field's default, read off the config, but
for ``qpt``'s shots per setting: 11000, the paper's QPT count, where the
config's 19000 is its QST count. The config gets every value as given: a
calibration stays the path or ``builtin:<name>`` the user named, and the
library checks and resolves it. ``--out`` writes the ``--format`` given, or
else CSV for a name ending in .csv and JSON for any other.
The CLI checks only what only it knows: the text of ``--controls``,
``simulate --seed`` (numpy would refuse a negative one with a plain
``ValueError``) and ``--format`` without ``--out``. Every other bad value
reaches the library, whose ``UsageError`` names it.
Exit codes: 0 success, 2 usage, 3 schema/file, 4 numerical, 141 (128 +
SIGPIPE, as a shell reports it) when stdout's reader has closed the pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .calibration import ingest_calibration
from .circuits import Circuit, parse_circuit, serialize_circuit, validate_connectivity
from .errors import CcxlabError, SchemaError, UsageError
from .experiments import (
    HARDWARE_REFERENCE_FIDELITY,
    ExperimentConfig,
    Mode,
    _CONFIG_FIELDS,
    _mean_sd,
    emit_report,
    load_report,
    report_to_dict,
    run_qpt_experiment,
    run_qst_experiment,
)
from .noise import NOISELESS
from .simulator import readout_map, run_density, sample_distribution, setting_distributions
from .states import StateKind
from .synthesis import DecompositionStrategy, certify_toffoli, decompose_toffoli
from .tomography import average_gate_fidelity
from .version import __version__


def _experiment_config(args) -> ExperimentConfig:
    """The config of the parsed flags, each named for the field it sets; a run is noise-aware
    exactly when it names a calibration."""
    return ExperimentConfig(
        mode=Mode.NOISE_FREE if args.calibration_path is None else Mode.NOISE_AWARE,
        **{name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS})


def _add_experiment_flags(p: argparse.ArgumentParser, default_shots: int) -> None:
    p.add_argument("--strategy", default=ExperimentConfig.strategy.value,
                   choices=[s.value for s in DecompositionStrategy],
                   help="Toffoli realization; only ECR_NATIVE is over the native gate set, "
                        "and the others exit 2, with or without --noise")
    p.add_argument("--shots", dest="shots_per_setting", metavar="SHOTS", type=int,
                   default=default_shots, help="shots per setting (default %(default)s)")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                   default=ExperimentConfig.master_seed, help="master seed")
    p.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
    p.add_argument("--noise", dest="calibration_path", metavar="CALIBRATION",
                   help="calibration JSON path or builtin:<name>; enables noise-aware mode")
    p.add_argument("--noise-scale", type=float, default=ExperimentConfig.noise_scale,
                   help="scale the gate errors, readout confusion and relaxation rates "
                        "by this factor")
    p.add_argument("--exact-probabilities", action="store_true",
                   help="bypass sampling; feed exact outcome distributions")
    p.add_argument("--no-readout-error", dest="apply_readout", action="store_false",
                   help="noise-aware runs read out with zero readout confusion")
    p.add_argument("--out", help="output file (default: print JSON)")
    p.add_argument("--format", choices=["json", "csv"])


def _out_format(args) -> str:
    """``--format`` when given; else CSV for an ``--out`` name ending in .csv, else JSON."""
    return args.format or ("csv" if args.out.lower().endswith(".csv") else "json")


def _cmd_synth(args) -> int:
    strategy = DecompositionStrategy(args.strategy)
    try:
        controls = tuple(int(q) for q in args.controls.split(","))
    except ValueError:
        raise UsageError(f"--controls takes qubit indices, got {args.controls!r}") from None
    circuit = decompose_toffoli(strategy, controls, args.target)
    report = certify_toffoli(circuit, controls, args.target)
    violations = validate_connectivity(circuit)
    summary = {
        "strategy": strategy.value,
        "controls": list(controls),
        "target": args.target,
        "equivalent": report.equivalent,
        "max_abs_error": report.max_abs_error,
        "two_qubit_gates": circuit.two_qubit_count(),
        "depth": circuit.depth(),
        "path_violations": len(violations),
    }
    if args.out:
        Path(args.out).write_text(serialize_circuit(circuit))
        summary["circuit_file"] = args.out
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        text = Path(args.circuit).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{args.circuit}: not UTF-8 text ({exc})") from exc
    circuit = parse_circuit(text)
    n = circuit.num_qubits
    nm = NOISELESS if args.noise is None else ingest_calibration(args.noise).noise_model(n)
    rho = run_density(circuit, nm)
    probs = np.real(np.diag(rho))
    out = {"backend": "density", "purity": float(np.real(np.trace(rho @ rho))),
           "populations": [float(p) for p in probs]}
    if args.shots:
        # measured as every run measures: readout relaxation, then readout confusion
        probs = setting_distributions(rho, readout_map([Circuit(1)], n, nm))[0]
        draws = sample_distribution(probs, args.shots, (args.seed,))
        # MSB-first bitstrings: the highest qubit leftmost, qubit 0 rightmost
        out["counts"] = {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0}
        out["shots"] = args.shots
    print(json.dumps(out, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    report = args.run(_experiment_config(args))
    if args.out:
        fmt = _out_format(args)
        emit_report(report, fmt, args.out)
        print(f"wrote {fmt} report to {args.out}")
    else:
        print(json.dumps(report_to_dict(report), indent=2))
    return 0


def _cmd_calib_summary(args) -> int:
    table = ingest_calibration(args.calibration)
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
        fmt = _out_format(args)
        emit_report(report, fmt, args.out)
        print(f"wrote {fmt} to {args.out}")
        return 0
    mean, std = _mean_sd(report.fidelities)
    shots = report.config.shots_per_setting
    lines = [
        f"kind:            {report.kind}",
        f"repeats:         {len(report.fidelities)}",
        f"mean fidelity:   {mean:.5f}",
        f"std fidelity:    {std:.5f}",
    ]
    if report.kind == "qpt":  # the average gate fidelity is affine in F: that of the mean
        lines.append(f"mean avg gate F: {average_gate_fidelity(mean, 3):.5f}")
    lines += [
        f"jobs:            {report.num_jobs} (exact probabilities, no shots drawn)"
        if report.config.exact_probabilities else
        f"jobs x shots:    {report.num_jobs} x {shots} = {report.num_jobs * shots}",
        f"tool version:    {report.tool_version}",
    ]
    state = report.config.input_state.value
    if report.kind == "qst":
        lines.append(f"hardware ref:    {state} {HARDWARE_REFERENCE_FIDELITY[state]:.5f} "
                     "(published single-run value)")
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
    p.set_defaults(parser=p, func=_cmd_synth)

    p = sub.add_parser("simulate", help="run a circuit file through the density simulator")
    p.add_argument("circuit", help="circuit text file")
    p.add_argument("--noise", metavar="CALIBRATION")
    p.add_argument("--shots", type=int, default=0,
                   help="shots to sample after readout; 0, the default, skips sampling")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(parser=p, func=_cmd_simulate)

    for name, run, default_shots, help_text in (
            ("qst", run_qst_experiment, ExperimentConfig.shots_per_setting,
             "state tomography of the Toffoli output"),
            ("qpt", run_qpt_experiment, 11000, "process tomography of the Toffoli gate")):
        p = sub.add_parser(name, help=help_text)
        if name == "qst":  # process tomography prepares its own probes
            p.add_argument("--state", dest="input_state", choices=[k.value for k in StateKind],
                           default=ExperimentConfig.input_state.value)
        _add_experiment_flags(p, default_shots)
        p.set_defaults(parser=p, func=_cmd_experiment, run=run)

    p = sub.add_parser("calib-summary", help="validate and summarize a calibration file")
    p.add_argument("calibration")
    p.add_argument("--out")
    p.set_defaults(parser=p, func=_cmd_calib_summary)

    p = sub.add_parser("report", help="inspect or convert a report file")
    p.add_argument("report")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"])
    p.set_defaults(parser=p, func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        if getattr(args, "format", None) and not args.out:
            raise UsageError("--format sets the format of --out; give --out too")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:  # stdout's reader is gone, as in `ccxlab qpt | head -1`
        # the interpreter flushes stdout again at exit; point it at devnull to keep that quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CcxlabError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a user file that cannot be read or written
        print(f"error[schema]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
