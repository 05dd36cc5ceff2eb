"""One workload process: drives ccxlab's public experiment API and reports raw records.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment; it pins itself to ``--cpu``. It prints one JSON object as the last line of its standard
output; ``run.py`` checks the records and turns them into metrics.

Roles:

* ``setup``: one experiment call, timed from the process start (``--spawn``,
  taken by the parent just before it started this process) to its return.
* ``main``: the same first call, then the measured loop. With ``--trace 1``
  the loop runs pairs of calls with the same seed, one traced and one not,
  alternating which goes first, and then one exact-probability call per input
  state follows.
* ``sample``: ``--calls`` untimed sampled calls that only add repeats to
  ``fid_bias``.

Each call records its start on the monotonic clock, so ``run.py`` can match it
with the samples of the speed monitor (``monitor.py``) that ran on the same CPU.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def machine_details(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (KeyError, TypeError) as exc:  # show_config differs between numpy versions
        blas = {"error": repr(exc)}
    blas["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
    }


def hermitian_eigvals(np, m):
    return np.linalg.eigvalsh((m + m.conj().T) / 2)


def tp_residual(np, choi) -> float:
    """Max-abs deviation of Tr_out(d * Choi) from the identity (block (m, n) = E(|m><n|))."""
    d = int(round(math.sqrt(choi.shape[0])))
    reduced = np.einsum("mpnp->mn", (choi * d).reshape(d, d, d, d))
    return float(np.max(np.abs(reduced - np.eye(d))))


def layer_report(np, tracer) -> dict:
    chois = [c for c in tracer.captured["tomography.qpt_recon_s"] if c is not None]
    projected = [h for h in tracer.captured["qmath.project_s"] if h is not None]
    clipped = []
    for h in projected:
        w = hermitian_eigvals(np, np.asarray(h, dtype=complex))
        clipped.append(float(-np.sum(w[w < 0])))
    return {
        "buckets": dict(tracer.buckets),
        "counts": dict(tracer.counts),
        "root_s": tracer.root_s,
        "functions": {k: {"calls": v[0], "self_s": v[1], "span_s": v[2]}
                      for k, v in sorted(tracer.functions.items()) if v[0]},
        "missing": tracer.missing,
        "tp_residuals": [tp_residual(np, c) for c in chois],
        "choi_min_eigs": [float(hermitian_eigvals(np, c).min()) for c in chois],
        "clipped_masses": clipped,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--child", type=int, required=True)
    p.add_argument("--role", choices=("main", "setup", "sample"), required=True)
    p.add_argument("--calls", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--cpu", type=int, required=True)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.sched_setaffinity(0, {args.cpu})

    import numpy as np
    from ccxlab import experiments
    from ccxlab.calibration import builtin_calibration_path

    from tracer import Tracer

    run_name = "run_qpt_experiment" if wl.kind == "qpt" else "run_qst_experiment"
    calibration = (str(builtin_calibration_path("brisbane_median"))
                   if wl.mode == "NOISE_AWARE" else None)
    tracer = Tracer() if args.trace else None
    records = []

    def call(phase: str, index: int, *, exact: bool = False, traced: bool = False) -> None:
        seed = int(np.random.SeedSequence([args.seed, args.child, index]).generate_state(1)[0])
        rec = {"phase": phase, "index": index, "input_state": wl.input_for(index),
               "master_seed": seed, "exact": exact,
               "repeats": 1 if exact else wl.repeats_per_call}
        try:
            cfg = experiments.ExperimentConfig(
                mode=wl.mode, input_state=rec["input_state"], strategy="ECR_NATIVE",
                shots_per_setting=args.shots, master_seed=seed,
                calibration_path=calibration, repeats=rec["repeats"],
                exact_probabilities=exact)
            # looked up per call, so a traced call runs through the wrappers;
            # the default worker count runs the repeats serially
            with tracer.installed() if traced else nullcontext():
                rec["start"] = time.monotonic()
                report = getattr(experiments, run_name)(cfg)
                rec["wall_s"] = time.monotonic() - rec["start"]
            rec["fidelities"] = list(report.fidelities)
            rec["num_jobs"] = report.num_jobs
            payload = json.loads(json.dumps(experiments.report_to_dict(report)))
            rec["roundtrip"] = experiments.report_from_dict(payload) == report
        except Exception as exc:  # a failing call is counted, the run goes on
            rec.setdefault("start", time.monotonic())
            rec.setdefault("wall_s", time.monotonic() - rec["start"])
            rec["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        records.append(rec)

    out = {}
    if args.role == "sample":
        for index in range(args.calls):
            call("extra", index)
    else:
        call("setup", 0)
        out["setup_s"] = time.monotonic() - args.spawn

    if args.role == "main":
        cycle = len(wl.inputs)
        index = 1
        loop_start = out["loop_start"] = time.monotonic()
        while True:
            if args.trace:
                order = (False, True) if index % 2 else (True, False)
                for traced in order:
                    call("traced" if traced else "untraced", index, traced=traced)
            else:
                call("warm", index)
            index += 1
            if time.monotonic() - loop_start >= args.seconds and (index - 1) % cycle == 0:
                break
        out["loop_wall_s"] = time.monotonic() - loop_start
        if tracer is not None:
            for j in range(len(wl.inputs)):
                call("exact", j, exact=True)
            out["layers"] = layer_report(np, tracer)
        out["machine"] = machine_details(np)

    out["records"] = records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
