"""The benchmark's three workloads.

Each workload is a function ``(ctx) -> Outcome``.  Untraced runs
(``ctx.trace == 0``) measure the end-to-end metrics: ``K_SETUPS``
set-ups, then timed operations for as long as the next one still fits
in ``ctx.seconds`` of operation wall time.  Traced runs measure the per-layer metrics: one
untraced set-up and ``TRACE_OPS`` operations, then the same again with
:mod:`tracer` installed, so the layer counters are exact and the
difference between the two halves is the tracing overhead.

Inputs come from ``ctx.seed`` only; the grids themselves are fixed
designs (the pg1t suite case and one synthesized ibmpg deck), so every
seed exercises the same circuit with different load patterns.
Correctness is checked after the timed window on a seeded sample of
each run's operations.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing

#: Set-ups per untraced run; ``setup_s`` is their median.
K_SETUPS = 3
#: Operations timed in each half of a traced run.
TRACE_OPS = {"pg1t-sweep": 2, "pg1t-rom": 10, "ibmpg-serve": 3}
#: Load-pattern spread of every scenario (factors in [0.5, 1.5]).
SPREAD = 0.5
#: Scenarios per ``Session.sweep`` call on the in-process workloads.
SWEEP_WIDTH = {"pg1t-sweep": 8, "pg1t-rom": 100}
#: Answers kept alive on pg1t-rom: a 1000-scenario study streamed in
#: sweeps of 100.  A single 1000-scenario sweep takes ~23 s on a 2-core
#: VM, so it gave one sample per run and a 14% run-to-run spread.
ROM_HELD = 1000
#: ROM answers checked against full order per run (each costs a
#: full-order run).
ROM_CHECKS = 3
#: Max node-voltage error allowed against fixed-step TR at the case's
#: h_tr.  The measured gap is ~2.4e-4 V, and it is TR's own error at
#: 10 ps: against a 1 ps golden the MATEX answers are within 2.4e-5 V.
TR_MAX_ERR_V = 1e-3
#: Worker processes of the served plan (the host's 2 cores).
SERVE_PROCESSES = 2


@dataclass
class Outcome:
    """What a workload measured and checked."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    samples: dict = field(default_factory=dict)   # name -> sample count
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)    # (name, ok, detail)
    counters: dict = field(default_factory=dict)  # exact, seed-determined
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: int
    out_dir: Path
    root: Path


def op_seed(seed: int, i: int) -> int:
    """Seed of operation ``i``; ``-1`` seeds the set-up scenario and
    ``-2`` the choice of answers to check."""
    return int(np.random.SeedSequence([seed, i + 2]).generate_state(1)[0])


class _Budget:
    """Timed-window bookkeeping: stops before an operation that would
    overrun the window, so a run measures at most ``seconds`` (and
    always at least one operation)."""

    def __init__(self, seconds: float):
        self.seconds, self.spent, self.n = seconds, 0.0, 0

    def add(self, wall: float) -> None:
        self.spent += wall
        self.n += 1

    def more(self, until: float | None = None) -> bool:
        until = self.seconds if until is None else until
        return self.n == 0 or self.spent * (1 + 1 / self.n) <= until


def digest(states) -> str:
    return hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_metrics(books: dict, e2e_seconds: float) -> dict:
    """Per-layer seconds, counts and self-time shares from tracer books."""
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}_s"] = (books["seconds"].get(layer, 0.0), "s")
        out[f"{layer}.self_share"] = (
            books["self_seconds"].get(layer, 0.0) / e2e_seconds, "ratio")
    for name in ("linalg.evaluate", "linalg.solve_many"):
        out[f"{name}_calls"] = (books["calls"].get(name, 0), "count")
    for name in ("linalg.factor_misses", "linalg.solve_many_cols",
                 "core.substitution_pairs"):
        out[name] = (books["counts"].get(name, 0), "count")
    out["dist.shm_bytes"] = (books["counts"].get("dist.shm_bytes", 0), "B")
    return out


# -- in-process workloads: pg1t-sweep and pg1t-rom -------------------------------


class _InProcess:
    """Compile pg1t once per set-up; time ``Session.sweep`` calls."""

    def __init__(self, ctx: Context, out: Outcome):
        from repro.pdn import load_pattern_scenarios
        from repro.pdn.suite import build_case

        self.ctx, self.out = ctx, out
        self.rom = ctx.workload == "pg1t-rom"
        self.width = SWEEP_WIDTH[ctx.workload]
        self.rng = np.random.default_rng(op_seed(ctx.seed, -2))
        system, self.case = build_case("pg1t")
        self._patterns = lambda n, s: load_pattern_scenarios(
            system, n=n, seed=s, spread=SPREAD)
        self.setup_scenario = self._patterns(1, op_seed(ctx.seed, -1))[0]
        self.samples = []  # (scenario, DistributedResult) checked later

    def setup(self):
        """Compile and answer the set-up scenario; returns its wall."""
        from repro.core import SolverOptions
        from repro.linalg.lu import FACTORIZATION_CACHE
        from repro.pdn.suite import build_case
        from repro.plan import Session, SimulationPlan
        from repro.rom import RomConfig

        system, case = build_case(self.case.name)  # inputs: not timed
        FACTORIZATION_CACHE.clear()
        t0 = time.perf_counter()
        compiled = SimulationPlan(
            system, SolverOptions(), t_end=case.t_end
        ).compile(rom=RomConfig() if self.rom else None)
        session = Session(compiled)
        (first,) = session.sweep([self.setup_scenario])
        wall = time.perf_counter() - t0
        self.out.attempted += 1
        self.system, self.compiled, self.session = system, compiled, session
        self.setup_answer = first
        return wall

    def ops(self, n_ops: int | None):
        """Timed sweeps: ``n_ops`` of them, or until the time budget."""
        walls = []
        held = []  # the latest ROM_HELD answers (pg1t-rom)
        budget = _Budget(self.ctx.seconds)
        i = 0
        while (i < n_ops) if n_ops is not None else budget.more():
            scenarios = self._patterns(self.width, op_seed(self.ctx.seed, i))
            self.out.attempted += 1
            t0 = time.perf_counter()
            try:
                results = self.session.sweep(scenarios)
            except Exception:
                traceback.print_exc()
                self.out.failed += 1
                budget.add(time.perf_counter() - t0)
                i += 1
                continue
            walls.append(time.perf_counter() - t0)
            budget.add(walls[-1])
            j = int(self.rng.integers(self.width))
            self.samples.append((scenarios[j], results[j]))
            if i == 0:
                self.first_op_counters(results)
            if self.rom:
                held = (held + results)[-ROM_HELD:]
            del results
            i += 1
        return walls

    def first_op_counters(self, results):
        c = self.out.counters
        if self.rom:
            c["op0.rom_accepted"] = sum(not r.rom_fallback for r in results)
        else:
            c["op0.substitution_pairs"] = sum(
                s.n_solves_total for r in results for s in r.node_stats)

    def close(self):
        self.session.close()
        self.session = None

    # -- correctness, outside the timed window -----------------------------

    def verify(self):
        from repro.analysis.errors import error_metrics
        from repro.baselines.trapezoidal import simulate_trapezoidal

        out, case = self.out, self.case
        gts = np.asarray(self.compiled.global_points)
        samples = self.samples
        if self.rom and len(samples) > ROM_CHECKS:
            picks = self.rng.choice(len(samples), ROM_CHECKS, replace=False)
            samples = [samples[k] for k in sorted(picks)]
        for sc, res in samples:
            states = res.result.states
            if not self.rom:
                ref = simulate_trapezoidal(
                    sc.bind(self.system), case.h_tr, case.t_end,
                    record_times=gts)
                err = error_metrics(res.result, ref, times=gts)["max"]
                ok = out.check(
                    f"{sc.name} vs TR(h={case.h_tr:g})",
                    err <= TR_MAX_ERR_V,
                    f"max node error {err:.3e} V (limit {TR_MAX_ERR_V:g})")
            else:
                (full,) = self.session.sweep([sc], rom=False)
                full = full.result.states
                if res.rom_fallback:
                    ok = out.check(f"{sc.name} fallback bitwise",
                                   states.tobytes() == full.tobytes())
                else:
                    model = self.compiled.rom
                    ans = model.answer(model.input_matrix(sc, None))
                    err = float(np.abs(states - full).max())
                    ok = out.check(
                        f"{sc.name} within certified bound",
                        err <= ans.bound_abs
                        and ans.bound_rel == res.rom_bound
                        and ans.states.tobytes() == states.tobytes(),
                        f"error {err:.3e} <= bound_abs {ans.bound_abs:.3e}")
            if not ok:
                out.failed += 1


def _inprocess(ctx: Context) -> Outcome:
    out = Outcome()
    wl = _InProcess(ctx, out)
    out.info["case"] = {"name": wl.case.name,
                        "scenarios_per_op": wl.width}
    if not ctx.trace:
        setups, digests = [], set()
        for i in range(K_SETUPS):
            if i:
                wl.close()
            setups.append(wl.setup())
            digests.add(digest(wl.setup_answer.result.states))
        if not out.check("set-up answer identical across set-ups",
                         len(digests) == 1, f"{len(digests)} distinct"):
            out.failed += 1
        walls = wl.ops(None)
        rss = _peak_rss_mib()
        wl.verify()
        wl.close()
        ms = [w / wl.width * 1e3 for w in walls]
        out.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ms_per_scenario": (statistics.median(ms), "ms"),
            "job_ms_p50": (statistics.median(walls) * 1e3, "ms"),
            "peak_rss_mib": (rss, "MiB"),
        }
        out.samples = {"setup_s": len(setups), "ms_per_scenario": len(ms),
                       "job_ms_p50": len(walls), "peak_rss_mib": 1}
        out.info["op_walls_s"] = walls
        out.info["setup_walls_s"] = setups
        return out

    n_ops = TRACE_OPS[ctx.workload]
    wl.setup()  # warm-up: the process's one-off costs, in neither half
    wl.close()
    u_setup = wl.setup()
    u_walls = wl.ops(n_ops)
    wl.close()
    tr = tracing.install()
    t_setup = wl.setup()
    acc0, fb0 = wl.session.rom_accepted, wl.session.rom_fallbacks
    t_walls = wl.ops(n_ops)
    books = tr.snapshot()
    accepted = wl.session.rom_accepted - acc0
    fallbacks = wl.session.rom_fallbacks - fb0
    wl.verify()
    wl.close()
    traced = t_setup + sum(t_walls)
    untraced = u_setup + sum(u_walls)
    m = _layer_metrics(books, traced)
    m["rom.accepted"] = (accepted, "count")
    m["rom.fallback_rate"] = (
        fallbacks / (accepted + fallbacks) if accepted + fallbacks else 0.0,
        "ratio")
    m.update(_trace_overhead(traced, untraced, t_setup, u_setup,
                             statistics.median(t_walls) / wl.width,
                             statistics.median(u_walls) / wl.width))
    m["dist.retries"] = (0, "count")
    m["serve.service_s"] = (0.0, "s")
    m["serve.overhead_ms"] = (0.0, "ms")
    out.metrics = m
    return out


def _trace_overhead(traced, untraced, t_setup, u_setup, t_op, u_op):
    return {
        "trace.e2e_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_setup_s": (t_setup - u_setup, "s"),
        "trace.overhead_ms_per_scenario": ((t_op - u_op) * 1e3, "ms"),
    }


# -- ibmpg-serve: a synthesized deck behind `repro serve --processes 2` ----------

#: The deck's fixed design: 140x140 mesh, 8 pads, 400 loads in 10 bump
#: shapes on a 40-point clock grid (library default seeds).
DECK_GRID = dict(rows=140, cols=140, n_pads=8)
DECK_LOADS = dict(n_sources=400, n_shapes=10, time_grid_points=40)


def _proc_children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _vm_hwm_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _shm_names() -> set[str]:
    base = Path("/dev/shm")
    return {p.name for p in base.glob("repro*")} if base.is_dir() else set()


class _Daemon:
    """One `repro serve` lifecycle: spawn, first answer, jobs, drain."""

    def __init__(self, ctx: Context, deck: Path, tag: str,
                 trace_dir: Path | None):
        self.ctx = ctx
        sock = f".perfbench/{ctx.out_dir.name}/{tag}.sock"
        self.sock = sock
        self.log_path = ctx.out_dir / f"daemon-{tag}.log"
        serve_args = ["serve", "--netlist", os.path.relpath(deck, ctx.root),
                      "--socket", sock,
                      "--processes", str(SERVE_PROCESSES)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name(
                "serve_traced.py")), str(trace_dir), *serve_args]
        env = dict(os.environ)
        src = str(ctx.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self._log = open(self.log_path, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=env,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.client = None

    def connect(self, timeout: float = 150.0):
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"listening; see {self.log_path}")
            try:
                self.client = ServeClient(self.sock, timeout=170.0)
                return
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def run(self, spec: dict) -> tuple[float, dict]:
        t0 = time.perf_counter()
        resp = self.client.run(scenario=spec, check=False)
        return time.perf_counter() - t0, resp

    def peak_rss_mib(self) -> float:
        pid = self.proc.pid
        return _vm_hwm_mib(pid) + sum(
            _vm_hwm_mib(k) for k in _proc_children(pid))

    def drain(self) -> int:
        """Shut down through the ``shutdown`` op; returns the exit code."""
        self.client.shutdown()
        self.client.close()
        self.client = None
        return self.proc.wait(timeout=120)

    def kill(self) -> None:
        """Error path: stop the daemon and its workers, and wait."""
        if self.client is not None:
            self.client.close()
        if self.proc.poll() is None:
            kids = _proc_children(self.proc.pid)
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                for pid in kids:
                    try:
                        os.kill(pid, 9)
                    except OSError:
                        pass
                self.proc.kill()
                self.proc.wait()
        self._log.close()

    def log_text(self) -> str:
        return self.log_path.read_text()


def _ibmpg_serve(ctx: Context) -> Outcome:
    from repro.circuit.ingest import ingest_file
    from repro.pdn import load_pattern_scenarios
    from repro.pdn.grid import PdnConfig
    from repro.pdn.ibmpg import synthesize_ibmpg
    from repro.pdn.workloads import WorkloadSpec
    from repro.plan.scenario import scenario_from_spec

    out = Outcome()
    deck = ctx.out_dir / "ibmpg.spice"
    synthesize_ibmpg(deck, PdnConfig(**DECK_GRID), WorkloadSpec(**DECK_LOADS))
    ingested = ingest_file(deck)
    system = ingested.system

    def spec(i: int) -> dict:
        (sc,) = load_pattern_scenarios(system, n=1, seed=op_seed(ctx.seed, i),
                                       spread=SPREAD)
        return {"name": "setup" if i < 0 else f"job{i}",
                "scale": {str(c): f for c, f in sc.scales}}

    setup_spec = spec(-1)
    out.info["deck"] = {"unknowns": int(system.G.shape[0]),
                        "inputs": int(system.n_inputs),
                        "bytes": deck.stat().st_size}
    shm_before = _shm_names()
    lifecycles = []   # per-daemon records
    job_i = 0
    answered = []     # (spec, digest) of every warm job

    def lifecycle(tag, traced, until):
        """One daemon: set-up job, then warm jobs until ``until()``."""
        nonlocal job_i
        trace_dir = None
        if traced:
            trace_dir = ctx.out_dir / f"trace-{tag}"
            trace_dir.mkdir()
        d = _Daemon(ctx, deck, tag, trace_dir)
        rec = {"tag": tag, "traced": traced, "jobs": []}
        try:
            d.connect()
            _, resp = d.run(setup_spec)
            rec["setup_s"] = time.perf_counter() - d.t0
            out.attempted += 1
            if not out.check(f"{tag} set-up job answered", resp.get("ok"),
                             resp.get("error", "")):
                out.failed += 1
            rec["setup_digest"] = resp.get("digest")
            while not until(rec):
                s = spec(job_i)
                job_i += 1
                wall, resp = d.run(s)
                budget.add(wall)
                out.attempted += 1
                if not resp.get("ok"):
                    out.failed += 1
                    out.check(f"{s['name']} answered", False,
                              f"{resp.get('kind')}: {resp.get('error')}")
                    continue
                rec["jobs"].append(wall)
                answered.append((s, resp["digest"]))
            st = d.client.status()
            sup = st["plans"]["default"].get("supervision", {})
            rec["retries"] = sup.get("retries", 0)
            rec["status"] = st
            rec["peak_rss_mib"] = d.peak_rss_mib()
            rc = d.drain()
        finally:
            d.kill()
        rec["log"] = d.log_text()
        rec["log_path"] = str(d.log_path.relative_to(ctx.root))
        if not out.check(f"{tag} drained with exit 0", rc == 0, f"rc={rc}"):
            out.failed += 1
        leaked = sorted(_shm_names() - shm_before)
        if not out.check(f"{tag} left no repro* shm segment", not leaked,
                         ", ".join(leaked)):
            out.failed += 1
        if trace_dir is not None:
            rec["books"] = tracing.read_dumps(str(trace_dir))
            rec["daemon_pid"] = d.proc.pid
        lifecycles.append(rec)
        return rec

    budget = _Budget(ctx.seconds)
    if not ctx.trace:
        # The window is spread over the daemons so each serves jobs.
        for k in range(K_SETUPS):
            until = ctx.seconds * (k + 1) / K_SETUPS
            lifecycle(f"d{k}", False,
                      lambda rec, until=until: not budget.more(until))
        jobs = [w for rec in lifecycles for w in rec["jobs"]]
        setups = [rec["setup_s"] for rec in lifecycles]
        out.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            # One scenario per job: the warm window's wall per answer.
            "ms_per_scenario": (statistics.fmean(jobs) * 1e3, "ms"),
            "job_ms_p50": (statistics.median(jobs) * 1e3, "ms"),
            "peak_rss_mib": (max(r["peak_rss_mib"] for r in lifecycles),
                             "MiB"),
        }
        out.samples = {"setup_s": len(setups), "ms_per_scenario": len(jobs),
                       "job_ms_p50": len(jobs),
                       "peak_rss_mib": len(lifecycles)}
        out.info["job_walls_s"] = jobs
        out.info["setup_walls_s"] = setups
    else:
        n_ops = TRACE_OPS[ctx.workload]
        u = lifecycle("untraced", False, lambda rec: len(rec["jobs"]) >= n_ops)
        t = lifecycle("traced", True, lambda rec: len(rec["jobs"]) >= n_ops)
        books = tracing.merge(list(t["books"].values()))
        traced = t["setup_s"] + sum(t["jobs"])
        untraced = u["setup_s"] + sum(u["jobs"])
        m = _layer_metrics(books, traced)
        service = t["books"][t["daemon_pid"]]["durations"]["plan.sweep"][1:]
        m["serve.service_s"] = (statistics.median(service), "s")
        m["serve.overhead_ms"] = (statistics.median(
            (c - s) * 1e3 for c, s in zip(t["jobs"], service)), "ms")
        m["dist.retries"] = (t["retries"], "count")
        m["rom.accepted"] = (0, "count")
        m["rom.fallback_rate"] = (0.0, "ratio")
        m.update(_trace_overhead(traced, untraced, t["setup_s"], u["setup_s"],
                                 statistics.median(t["jobs"]),
                                 statistics.median(u["jobs"])))
        out.metrics = m
        out.info["processes"] = {
            str(pid): ("daemon" if pid == t["daemon_pid"] else "worker")
            for pid in t["books"]}

    out.counters["retries"] = sum(r["retries"] for r in lifecycles)
    if not out.check("no supervision retries", out.counters["retries"] == 0,
                     f"{out.counters['retries']} retries"):
        out.failed += 1
    digests = {r["setup_digest"] for r in lifecycles}
    if not out.check("set-up digest identical across daemons",
                     len(digests) == 1, f"{len(digests)} distinct"):
        out.failed += 1
    out.info["daemons"] = [
        {k: v for k, v in r.items() if k not in ("books",)}
        for r in lifecycles]
    for r in lifecycles:
        n = r["log"].count("Exception ignored")
        print(f"daemon log {r['log_path']}: {n} 'Exception ignored' "
              f"report(s) (kept as written)")

    # Correctness: the transport contract is bitwise, so every served
    # digest equals the in-process Session.run digest of its scenario.
    from repro.core import SolverOptions
    from repro.plan import Session, SimulationPlan

    compiled = SimulationPlan(system, SolverOptions(),
                              t_end=ingested.stats.tran_stop).compile()
    rng = np.random.default_rng(op_seed(ctx.seed, -2))
    checked = [(setup_spec, lifecycles[0]["setup_digest"])]
    if answered:
        checked.append(answered[rng.integers(len(answered))])
    with Session(compiled) as session:
        for s, served in checked:
            local = digest(session.run(
                scenario_from_spec(s, system)).result.states)
            if not out.check(f"{s['name']} digest == in-process",
                             served == local):
                out.failed += 1
    return out


WORKLOADS = {
    "pg1t-sweep": _inprocess,
    "pg1t-rom": _inprocess,
    "ibmpg-serve": _ibmpg_serve,
}
