"""Per-layer span and counter recorder for the benchmark's traced runs.

The program under test is not instrumented.  :func:`install` wraps the
public functions of each layer (listed in :data:`LAYERS`) from outside,
in the calling process, and every process forked from it afterwards
(pool workers inherit the wrappers and start with empty books).

For each layer the tracer keeps inclusive seconds, self seconds (the
span minus the part its traced child spans cover) and exact counters.
A layer re-entered while already open on the same thread is not opened
twice, so nested calls of one layer are timed once.  When a process is
given a ``dump_dir``, it rewrites ``<dump_dir>/<pid>.json`` with its
cumulative books each time a root span closes; that is how a traced
``repro serve`` daemon and its pool workers hand their timings back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: layer id -> (module, qualified attribute) of the functions it times.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "circuit.ingest": (("repro.circuit.ingest", "ingest_file"),),
    "plan.compile": (("repro.plan.plan", "SimulationPlan.compile"),),
    "linalg.factor": (("repro.linalg.lu", "FactorizationCache.factor"),),
    "linalg.prime_kernel": (("repro.linalg.lu", "SparseLU.prime_kernel"),),
    "plan.rom_build": (("repro.rom.model", "build_reduced_model"),),
    "plan.bind": (
        ("repro.plan.scenario", "Scenario.bind"),
        ("repro.circuit.waveforms", "Waveform.transition_spots"),
        ("repro.circuit.waveforms", "DC.transition_spots"),
        ("repro.circuit.waveforms", "PWL.transition_spots"),
        ("repro.circuit.waveforms", "Pulse.transition_spots"),
    ),
    "plan.sweep": (("repro.plan.session", "Session.sweep"),),
    "linalg.basis_build": (
        ("repro.linalg.block_krylov", "build_bases_block"),
    ),
    "linalg.evaluate": (("repro.linalg.krylov", "KrylovBasis.evaluate_many"),),
    "dist.march": (("repro.dist.block_runner", "BlockNodeRunner.run"),),
    "linalg.solve_many": (("repro.linalg.lu", "SparseLU.solve_many"),),
    "core.superpose": (("repro.core.superposition", "superpose"),),
    "rom.input_matrix": (("repro.rom.model", "ReducedModel.input_matrix"),),
    "rom.answer": (("repro.rom.model", "ReducedModel.answer"),),
    "dist.pool_run": (("repro.dist.executors", "MultiprocessExecutor.run"),),
    "dist.shm_attach": (("repro.dist.shm", "from_shared"),),
}


class Tracer:
    """Span/counter books of one process (thread-safe accumulation)."""

    #: layers whose per-call durations are kept, not only their sums
    keep_durations = frozenset({"plan.sweep"})

    def __init__(self, dump_dir: str | None = None):
        self.dump_dir = dump_dir
        self.clear()

    def clear(self) -> None:
        """Forget every span and counter (also run in forked children)."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def is_open(self, layer: str) -> bool:
        """Whether ``layer`` has an open span on the calling thread."""
        return any(frame[0] == layer for frame in self._stack())

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += int(n)

    def call(self, layer: str, fn, args, kwargs, counter=None):
        """Run ``fn`` inside a span of ``layer``; ``counter`` takes the
        layer's counts from the result before a root span is dumped."""
        stack = self._stack()
        if self.is_open(layer):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]  # layer, seconds covered by child spans
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            if counter is None:
                return fn(*args, **kwargs)
            before, after = counter
            state = before(args) if before is not None else None
            result = fn(*args, **kwargs)
            after(self, args, result, state)
            return result
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            with self._lock:
                self.seconds[layer] += dur
                self.self_seconds[layer] += dur - frame[1]
                self.calls[layer] += 1
                if layer in self.keep_durations:
                    self.durations[layer].append(dur)
            if stack:
                stack[-1][1] += dur
            elif self.dump_dir is not None:
                self.dump()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "durations": {k: list(v) for k, v in self.durations.items()},
            }

    def dump(self) -> None:
        path = os.path.join(self.dump_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.snapshot(), f)
        os.replace(tmp, path)


def merge(books: list[dict]) -> dict:
    """Sum the books of several processes into one."""
    out = {"seconds": defaultdict(float), "self_seconds": defaultdict(float),
           "calls": defaultdict(int), "counts": defaultdict(int),
           "durations": defaultdict(list)}
    for book in books:
        for key in ("seconds", "self_seconds", "calls", "counts"):
            for name, value in book.get(key, {}).items():
                out[key][name] += value
        for name, values in book.get("durations", {}).items():
            out["durations"][name].extend(values)
    return {k: dict(v) for k, v in out.items()}


def read_dumps(dump_dir: str) -> dict[int, dict]:
    """pid -> books of every process that dumped into ``dump_dir``."""
    books = {}
    for name in sorted(os.listdir(dump_dir)):
        if name.endswith(".json"):
            with open(os.path.join(dump_dir, name)) as f:
                books[int(name[:-5])] = json.load(f)
    return books


# -- counters taken at layer boundaries ----------------------------------------
# layer -> (before(args) or None, after(tracer, args, result, before))


def _solve_many_cols(tracer, args, result, before):
    rhs = args[1]
    tracer.count("linalg.solve_many_cols",
                 rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1)


def _substitution_pairs(tracer, args, result, before):
    tracer.count("core.substitution_pairs",
                 sum(r.stats.n_solves_total for r in result))


def _shm_bytes(tracer, args, result, before):
    if result is not args[0]:  # the states arrived through a segment
        tracer.count("dist.shm_bytes", result.states.nbytes)


def _factor_misses(tracer, args, result, before):
    tracer.count("linalg.factor_misses", args[0].misses - before)


COUNTERS = {
    "linalg.solve_many": (None, _solve_many_cols),
    "dist.march": (None, _substitution_pairs),
    "dist.shm_attach": (None, _shm_bytes),
    "linalg.factor": (lambda args: args[0].misses, _factor_misses),
}


def _wrap(tracer: Tracer, layer: str, fn, guard=None):
    counter = COUNTERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if guard is not None and not guard():
            return fn(*args, **kwargs)
        return tracer.call(layer, fn, args, kwargs, counter)
    return wrapper


def install(dump_dir: str | None = None) -> Tracer:
    """Wrap every layer in :data:`LAYERS`; return the process's tracer.

    Module-level functions are also replaced in every loaded ``repro``
    module that imported them by name, so callers that bound the name
    at import time reach the wrapper too.  Waveform ``transition_spots``
    is timed only inside a sweep: that is scenario validation, while the
    same calls at compile time belong to compile.
    """
    # Import every module whose by-name imports must be rebound.
    for mod in ("repro.cli", "repro.serve.daemon", "repro.plan.session",
                "repro.rom", "repro.dist.executors",
                "repro.dist.block_runner"):
        importlib.import_module(mod)
    tracer = Tracer(dump_dir)
    os.register_at_fork(after_in_child=tracer.clear)
    in_sweep = functools.partial(tracer.is_open, "plan.sweep")
    for layer, targets in LAYERS.items():
        for module_name, qualname in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                fn = owner.__dict__[attr]
                guard = in_sweep if attr == "transition_spots" else None
                setattr(owner, attr, _wrap(tracer, layer, fn, guard))
                continue
            fn = getattr(module, attr)
            wrapper = _wrap(tracer, layer, fn)
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapper)
    return tracer
