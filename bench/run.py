"""ccxlab benchmark: tomography throughput, estimator accuracy and per-layer spans.

Usage, from the root of a checkout::

    python3 bench/run.py --workload qpt_noisy --seed 1 --seconds 12 --trace 0

Each workload runs in child processes (``worker.py``) started one after
another, with one BLAS thread each, from the sources under ``src/``. Only the
untimed sampling processes that top up ``fid_bias`` run side by side, last. With
``--trace 0`` the run reports the end-to-end metrics from untraced calls; with
``--trace 1`` it reports the per-layer metrics of a traced run (see README.md).
Every experiment call is checked; a call that raises or fails a check counts
in ``failed`` and the run goes on.

Times are reported at a reference machine speed. A speed monitor
(``monitor.py``) runs on the same CPU as each workload process. A raw time is
multiplied by ``REF_NOMINAL_S`` / (the mean kernel time the monitor measured
during that time, without its lowest and highest tenth). The raw values are
kept in the results file.

The last line of standard output is one JSON object; the full record, with the
seed behind every number, goes to
``bench/results/<workload>-seed<seed>-trace<trace>.json``.

Exit codes: 0 after a measured run (whether or not every check passed), 1 when
a workload process fails or times out, 2 on bad arguments or when the sources
to benchmark are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import GROUPS, LAYERS  # noqa: E402
from workloads import EXACT_TOL, WORKLOADS  # noqa: E402

#: a run must end within this many seconds; the processes share it
RUN_BUDGET_S = 170.0
BLAS_THREADS = "1"
#: one monitor kernel run takes this long at the reference speed
REF_NOMINAL_S = 0.001
#: monitor samples this close outside a timed interval still count for it
SAMPLE_MARGIN_S = 0.05
#: share of the monitor samples cut from each end before averaging them
TRIM = 0.1
#: processes whose first call is timed for setup_s (the median is reported)
SETUP_RUNS = 3
#: fid_bias averages at least this many sampled repeats. On qpt_noisy (per-repeat
#: sd ~1e-3 around a bias of ~0.0034) ten runs of 9 spread by ~14%; of 5, by ~18%
#: and past the 0.25 bound 15% of the time.
MIN_SAMPLED_REPEATS = 9
#: child indices of the untimed sampling processes (their seeds differ from the rest)
SAMPLER_CHILD = 100
SAMPLED_PHASES = ("setup", "warm", "untraced", "traced", "extra")

END_TO_END_UNITS = {
    "setup_s": "s",
    "repeat_p50_s": "s",
    "circuits_per_s": "1/s",
    "fid_bias": "1",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for g in GROUPS:
        if g.timer:
            units[g.timer] = "s"
        if g.counter:
            units[g.counter] = "count"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "tomography.tp_residual": "1",
        "tomography.choi_min_eig": "1",
        "qmath.clipped_mass": "1",
        "qmath.exact_fid_err": "1",
        "trace.wall_s": "s",
        "trace.overhead_frac": "1",
    })
    return units


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, child: int, role: str, shots: int, deadline: float) -> dict:
    """Run one workload process next to a speed monitor on the same CPU."""
    cpu = min(os.sched_getaffinity(0))
    env = child_env()
    monitor = subprocess.Popen(
        [sys.executable, str(BENCH / "monitor.py"), str(cpu), str(RUN_BUDGET_S)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if monitor.stdout.readline().strip() != "ready":
            raise RuntimeError("speed monitor did not start")
        spawn = time.monotonic()
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--child", str(child), "--role", role,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--shots", str(shots), "--spawn", repr(spawn), "--cpu", str(cpu)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload process {child} ({role}) exited with {proc.returncode}")
        out = json.loads(lines[-1])
        monitor.terminate()
        samples = json.loads(monitor.communicate(timeout=30)[0].strip().splitlines()[-1])
    finally:
        if monitor.poll() is None:
            monitor.kill()
        monitor.wait()
    out["spawn"] = spawn
    out["monitor"] = samples
    return out


def run_samplers(args, shots: int, calls: int, deadline: float) -> list:
    """Make ``calls`` untimed sampled calls, spread over every usable CPU.

    They add repeats to ``fid_bias`` only, and run after all timed work, so
    running them side by side changes no time.
    """
    cpus = sorted(os.sched_getaffinity(0))[:calls]
    procs = []
    try:
        for i, cpu in enumerate(cpus):
            cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--child", str(SAMPLER_CHILD + i),
                   "--role", "sample", "--calls", str(len(range(i, calls, len(cpus)))),
                   "--seconds", "0", "--trace", "0", "--shots", str(shots),
                   "--spawn", "0", "--cpu", str(cpu)]
            procs.append(subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                          stdout=subprocess.PIPE, text=True))
        outs = []
        for proc in procs:
            stdout = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))[0]
            if proc.returncode != 0 or not stdout.strip():
                raise RuntimeError(f"sampling process exited with {proc.returncode}")
            outs.append(json.loads(stdout.strip().splitlines()[-1]))
        return outs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def speed(child: dict, windows) -> float:
    """Factor taking raw seconds in ``windows`` [(start, end), ...] to the reference speed.

    The machine flips between a fast and a slow state many times a second, and
    a call pays for the share of time spent in each. A mean follows that
    share, where a median jumps between the two states once the share nears a
    half. Trimming drops samples in which the monitor itself was preempted.
    """
    samples = child["monitor"]
    inside = sorted(d for s, d in samples
                    if any(a - SAMPLE_MARGIN_S <= s <= b + SAMPLE_MARGIN_S for a, b in windows))
    inside = inside or sorted(d for _, d in samples)
    cut = int(len(inside) * TRIM)
    return REF_NOMINAL_S / statistics.fmean(inside[cut:len(inside) - cut] or inside)


def unscaled(child: dict, windows) -> float:
    return 1.0


def call_window(rec: dict) -> tuple:
    return rec["start"], rec["start"] + rec["wall_s"]


def check_records(wl, shots: int, records: list) -> tuple:
    """Mark each call ok or not; return the exact-probability fidelity per input.

    Only traced runs make exact-probability calls (one costs a full repeat,
    ~9 s on qpt_noisy). Untraced runs check sampled fidelities against the
    workload's recorded exact value, which traced runs confirm to ``EXACT_TOL``.
    """
    exact = {}
    for rec in records:
        if not rec["exact"]:
            continue
        f = rec.get("fidelities") or [float("nan")]
        rec["ok"] = ("error" not in rec and rec.get("roundtrip") is True and len(f) == 1
                     and abs(f[0] - wl.exact_reference) <= EXACT_TOL)
        exact[rec["input_state"]] = f[0]
    tol = wl.sampled_tolerance(shots)
    untraced = {r["index"]: r.get("fidelities") for r in records if r["phase"] == "untraced"}
    for rec in records:
        if rec["exact"]:
            continue
        f_exact = exact.get(rec["input_state"], wl.exact_reference)
        fids = rec.get("fidelities") or []
        rec["ok"] = ("error" not in rec and rec.get("roundtrip") is True
                     and rec.get("num_jobs") == wl.circuits_per_repeat
                     and len(fids) == rec["repeats"]
                     and all(abs(f - f_exact) <= tol for f in fids))
        if rec["phase"] == "traced":
            # tracing must not change a single bit of the result
            rec["ok"] = rec["ok"] and fids == untraced.get(rec["index"])
    return exact, tol


def median(values) -> float:
    """Median, or 0 when every call it would cover failed (the run is then not correct)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(wl, main: dict, children: list, scale=speed) -> dict:
    warm = [r for r in main["records"] if r["phase"] == "warm" and "error" not in r]
    deviations = [f - wl.exact_reference for c in children for r in c["records"]
                  if r["phase"] in SAMPLED_PHASES and "error" not in r for f in r["fidelities"]]
    loop = (main["loop_start"], main["loop_start"] + main["loop_wall_s"])
    return {
        "setup_s": median(c["setup_s"] * scale(c, [(c["spawn"], c["spawn"] + c["setup_s"])])
                          for c in children if "setup_s" in c),
        "repeat_p50_s": median(r["wall_s"] * scale(main, [call_window(r)]) / r["repeats"]
                               for r in warm),
        "circuits_per_s": sum(r["repeats"] for r in warm) * wl.circuits_per_repeat
                          / (main["loop_wall_s"] * scale(main, [loop])),
        "fid_bias": abs(statistics.fmean(deviations)) if deviations else 0.0,
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(wl, main: dict, scale=speed) -> dict:
    layers = main["layers"]
    records = main["records"]
    traced = [r for r in records if r["phase"] == "traced"]
    untraced = [r for r in records if r["phase"] == "untraced"]
    repeats = sum(r["repeats"] for r in traced)
    per_repeat = scale(main, [call_window(r) for r in traced]) / repeats
    buckets, counts = layers["buckets"], layers["counts"]
    out = {}
    for g in GROUPS:
        if g.timer:
            out[g.timer] = buckets.get(g.timer, 0.0) * per_repeat
        if g.counter:
            out[g.counter] = counts.get(g.counter, 0) / repeats
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_repeat * sum(v for name, v in buckets.items()
                                                  if name.startswith(layer + "."))
    tp, eigs, clipped = (layers["tp_residuals"], layers["choi_min_eigs"],
                         layers["clipped_masses"])
    out["tomography.tp_residual"] = statistics.fmean(tp) if tp else 0.0
    out["tomography.choi_min_eig"] = min(eigs) if eigs else 0.0
    out["qmath.clipped_mass"] = statistics.fmean(clipped) if clipped else 0.0
    exact_f = [r["fidelities"][0] for r in records if r["exact"] and r.get("fidelities")]
    out["qmath.exact_fid_err"] = max((abs(f - wl.exact_reference) for f in exact_f),
                                     default=0.0)
    out["trace.wall_s"] = layers["root_s"] * per_repeat

    def scaled_wall(recs):
        return sum(r["wall_s"] * scale(main, [call_window(r)]) for r in recs)

    out["trace.overhead_frac"] = scaled_wall(traced) / scaled_wall(untraced) - 1.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--shots", type=int, default=None,
                   help="override the workload's shots per setting (smoke tests)")
    args = p.parse_args(argv)
    # let the cleanup in run_child and run_samplers stop the processes they started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.seed < 0 or args.seconds <= 0 or (args.shots is not None and args.shots < 1):
        p.error("--seed must be >= 0; --seconds and --shots positive")
    if not (ROOT / "src" / "ccxlab" / "__init__.py").is_file():
        print(f"bench: no ccxlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    shots = args.shots or wl.shots
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        main_child = run_child(args, 0, "main", shots, deadline)
        children = [main_child]
        if not args.trace:
            children += [run_child(args, c, "setup", shots, deadline)
                         for c in range(1, SETUP_RUNS)]
            sampled = sum(r["repeats"] for c in children for r in c["records"])
            if sampled < MIN_SAMPLED_REPEATS:
                calls = math.ceil((MIN_SAMPLED_REPEATS - sampled) / wl.repeats_per_call)
                children += run_samplers(args, shots, calls, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    records = [r for c in children for r in c["records"]]
    exact, tol = check_records(wl, shots, records)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        units = per_layer_units()
        values, raw = per_layer(wl, main_child), per_layer(wl, main_child, unscaled)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(wl, main_child, children)
        raw = end_to_end(wl, main_child, children, unscaled)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "shots": shots, "sampled_tol": tol, "exact_tol": EXACT_TOL,
        "exact_fidelity": exact, "fail_frac": failed / attempted,
        "src_loc": src_loc(), "machine": main_child["machine"],
        "blas_threads": BLAS_THREADS, "ref_nominal_s": REF_NOMINAL_S,
        "raw_metrics": raw, "result": result, "children": children,
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail) + "\n")

    m = main_child["machine"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} shots={shots} "
          f"cpus={m['cpus']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas'].get('name')} {m['blas'].get('version')} "
          f"threads={BLAS_THREADS} src_loc={detail['src_loc']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (raw {raw[name]:.6g})")
    print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted} calls)")
    for rec in records:
        if not rec["ok"]:
            print(f"FAILED {rec['phase']} call {rec['index']} ({rec['input_state']}): "
                  f"{rec.get('error', rec.get('fidelities'))}", file=sys.stderr)
    print(f"# details: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
