"""Per-layer spans and counts around ccxlab's public functions, installed from outside.

A layer is one ccxlab module (see ``LAYERS``). ``Tracer.installed()`` wraps
every public function a layer module defines and puts the wrapper wherever a
caller looks the function up: every loaded ``ccxlab`` module whose global
names the original function, so ``from .simulator import run_density`` in
``experiments`` and module-internal calls in ``simulator`` and ``tomography``
are both seen. Leaving the context restores the originals.

Spans are aggregated in memory, not stored one by one. A call's self time is
its span minus the spans of the wrapped calls it makes. Self time is charged to
a bucket:

* a function listed in a ``Group`` with a timer charges that timer;
* any other function charges the timer its caller charges, so a timer covers
  the untimed helpers its functions use (the Pauli matrices a reconstruction
  builds, the gate matrices an evolution applies), whatever their layer;
* a function without a timer called where no timer is open charges
  ``<layer>.other``.

So the buckets of all layers add up to the traced wall time, with
``experiments`` holding what the experiment functions do themselves.

A group's counter counts calls made from outside the group, so a run_density
call that evolves through apply_circuit_density counts once. A function that a
later change removes or renames is listed in ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "ccxlab"
LAYERS = ("calibration", "synthesis", "states", "gates", "noise", "simulator",
          "tomography", "qmath", "experiments")


@dataclass(frozen=True)
class Group:
    layer: str
    functions: Tuple[str, ...]
    timer: Optional[str] = None
    counter: Optional[str] = None


GROUPS = (
    Group("calibration", ("ingest_calibration",), timer="calibration.ingest_s"),
    Group("synthesis", ("decompose_toffoli", "toffoli_unitary"), timer="synthesis.decompose_s"),
    Group("states", ("prepare_state",), timer="states.prepare_s", counter="states.prepare_calls"),
    Group("gates", ("gate_matrix",), counter="gates.matrix_calls"),
    Group("noise", ("depolarizing_channel", "thermal_relaxation_channel"),
          timer="noise.channel_s", counter="noise.channel_builds"),
    Group("simulator", ("run_density", "apply_circuit_density"),
          timer="simulator.evolve_s", counter="simulator.evolve_calls"),
    Group("simulator", ("apply_measurement_relaxation",), timer="simulator.readout_relax_s"),
    Group("simulator", ("run_statevector",), timer="simulator.statevector_s"),
    Group("simulator", ("sample_counts", "exact_counts"),
          timer="simulator.sample_s", counter="simulator.sample_calls"),
    Group("tomography", ("qpt_jobs", "derive_seed"), timer="tomography.seed_s"),
    Group("tomography", ("pauli_expectations",), timer="tomography.pauli_exp_s"),
    Group("tomography", ("qst_reconstruct",), timer="tomography.qst_recon_s"),
    Group("tomography", ("qpt_reconstruct_full", "qpt_reconstruct"),
          timer="tomography.qpt_recon_s"),
    Group("tomography", ("project_to_cptp",), timer="tomography.cptp_s"),
    Group("qmath", ("pauli_string_matrix",), counter="qmath.pauli_matrix_calls"),
    Group("qmath", ("project_to_density",), timer="qmath.project_s"),
    Group("qmath", ("state_fidelity",), timer="qmath.fidelity_s"),
)


def _returned_choi(args, kwargs, result):
    return getattr(result, "choi", result)


def _first_argument(args, kwargs, result):
    return args[0] if args else next(iter(kwargs.values()), None)


#: values kept from the outermost call of a group, keyed by the group's timer:
#: the Choi matrix a QPT reconstruction returns, and the matrix handed to the
#: state projection
CAPTURES: Dict[str, Callable] = {
    "tomography.qpt_recon_s": _returned_choi,
    "qmath.project_s": _first_argument,
}


class Tracer:
    """Aggregated spans and counts; install with ``installed()`` around traced calls."""

    def __init__(self):
        self.buckets: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: "layer.function" -> [calls, self seconds, span seconds]
        self.functions: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.captured: Dict[str, list] = defaultdict(list)
        self.root_s = 0.0
        self.missing: List[str] = []
        self._stack: list = []

    def _wrap(self, layer: str, name: str, fn: Callable, group: Optional[Group]) -> Callable:
        stack = self._stack
        stats = self.functions[f"{layer}.{name}"]
        capture = CAPTURES.get(group.timer) if group is not None else None
        timer = group.timer if group is not None else None
        other = f"{layer}.other"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if timer is not None:
                bucket, timed = timer, True
            elif parent is not None and parent[1]:
                bucket, timed = parent[0], True
            else:
                bucket, timed = other, False
            outermost = parent is None or group is None or parent[2] is not group
            if outermost and group is not None and group.counter:
                self.counts[group.counter] += 1
            frame = [bucket, timed, group, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][3] += span
                else:
                    self.root_s += span
                self.buckets[bucket] += span - frame[3]
                stats[0] += 1
                stats[1] += span - frame[3]
                stats[2] += span
            if capture is not None and outermost:
                self.captured[group.timer].append(capture(args, kwargs, result))
            return result

        return wrapper

    def _replacements(self) -> Dict[Callable, Callable]:
        group_of = {(g.layer, f): g for g in GROUPS for f in g.functions}
        found = set()
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                group = group_of.get((layer, name))
                if group is not None:
                    found.add((layer, name))
                replacements[obj] = self._wrap(layer, name, obj, group)
        self.missing = sorted(f"{layer}.{name}" for layer, name in group_of
                              if (layer, name) not in found)
        return replacements

    @contextmanager
    def installed(self):
        """Route every lookup of a layer's public functions through the wrappers."""
        replacements = self._replacements()
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replacements:
                        patched.append((module, name, obj))
                        setattr(module, name, replacements[obj])
            yield self
        finally:
            for module, name, obj in reversed(patched):
                setattr(module, name, obj)
