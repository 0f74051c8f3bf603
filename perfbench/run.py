"""multsum benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.

Workloads (inputs generated from --seed, see workloads.py):
  profile_sweep    ten dyadic-checkpoint profiles to 1e7 in one process, one
                   thread: block evaluation plus the partial-sum scan.
  mc_seeds         lab.random_walk_mc over 6 seeds x 2 damping exponents to
                   5e6 with MULTSUM_THREADS = nproc: the only thread-pool user.
  cli_experiments  closed loop, one client: twelve short CLI commands, each a
                   fresh `python -m multsum.cli` process; mostly start-up,
                   characters, window searches, series and pretentious.
BENCHMARK.json lists only the first two.  cli_experiments stays runnable and
is part of every traced run, but its walls are mostly interpreter start-up
and swing by about 20% between 30-s runs on a shared 2-vCPU host, more than
a bound can absorb; start-up still shows in every workload's setup_s.

End-to-end metrics (--trace 0), each on every workload:
  setup_s      median time from spawning the workload's process to its first
               timed op (cli_experiments: spawn to exit of
               `python -c "import multsum.cli"`), over set-up spawns spread
               through the run.
  values_per_s f(n) values per second: sum over ops of their values divided
               by the sum of each op's median wall over passes.  A CLI
               command's values are the range its arguments ask for (0 for
               window, zero-scan and distance commands).
  op_p50_s     median op wall over all samples (a profile, one random_walk_mc
               call, or one CLI command from spawn to exit).
  peak_rss_mb  median over passes of the peak RSS of the workload's process
               (cli_experiments: the largest command process of a pass).
The report lines before the result also give op_p90_s, the highest
percentile with ten samples beyond it, sample counts, and fail_frac: an op
fails when it raised, exited nonzero or its output failed verification
(verify.py).  These are printed, not bounded: a run has too few samples for
a steady tail, and fail_frac is 0 when the program is correct.

--trace 1 runs one untraced and one traced pass of every workload (the
per-layer set spans all three) and prints the per-layer metrics; spans are
written to .perfbench_out/.  The last stdout line is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import verify  # noqa: E402
from workloads import OPS, PROFILE_SPECS, SIZES, WORKLOADS  # noqa: E402

PY = sys.executable
CLI_COMMANDS = ("witness-rotation", "sf-pair", "zero-scan", "distance", "series-check",
                "mean-value", "concentration", "profile")
MODULES = ("arith", "accum", "multfun", "characters", "lab", "pretentious", "series")
def _layer(name: str) -> tuple[str, str, str]:
    """(name, unit, better) of a per-layer metric, from its name's suffix."""
    if name.endswith("_calls") or name == "multfun.blocks":
        return name, "count", "lower"
    if name.endswith("_bytes"):
        return name, "bytes", "lower"
    if name.startswith("trace_overhead_frac."):
        return name, "ratio", "lower"
    if name.endswith(("_frac", "_ratio", "_speedup")):
        return name, "ratio", "higher"
    return name, "s", "lower"


# the per-layer metrics a traced run prints, in this order (BENCHMARK.json's per_layer)
PER_LAYER = [_layer(name) for name in (
    "arith.primes_upto_s", "arith.primes_upto_calls", "arith.squarefree_block_s",
    "accum.compensated_cumsum_s", "accum.compensated_cumsum_calls",
    *[f"multfun.{k}_s.{label}" for k in ("eval", "profile", "scan") for label in PROFILE_SPECS],
    "multfun.blocks",
    "characters.character_by_index_s", "characters.first_nonzero_sigma_s",
    "lab.random_walk_mc_s", "lab.seed_profile_s", "lab.pool_busy_frac", "lab.pool_speedup",
    "lab.growth_profile_s", "lab.factorize_big_calls", "lab.factorize_big_s",
    "lab.is_squarefree_big_calls", "lab.window_accept_ratio",
    "pretentious.distance_s", "pretentious.delange_mean_s",
    "series.dirichlet_partial_s", "series.l_chi_s", "series.zeta_s",
    "cli.import_s", "cli.import_sympy_s", "cli.import_numpy_s",
    *[f"cli.handler_s.{c}" for c in CLI_COMMANDS],
    *[f"cli.overhead_s.{c}" for c in CLI_COMMANDS],
    "cli.record_bytes",
    *[f"{m}.self_s" for m in MODULES],
    *[f"trace_overhead_frac.{w}" for w in WORKLOADS],
)]
SETUP_PROBES = 2  # set-up-only spawns after each timed pass
CHILD_TIMEOUT_S = 150


class Child(NamedTuple):
    """A finished child process: exit code, spawn time, wall to exit, peak RSS."""

    rc: int
    t0: float
    wall: float
    maxrss_mb: float
    log: str


def threads_for(workload: str) -> int:
    """MULTSUM_THREADS of a workload: nproc for the thread-pool workload, else 1."""
    return (os.cpu_count() or 1) if workload == "mc_seeds" else 1


def spawn(argv: list[str], env: dict, cwd: str, log_path: str) -> Child:
    """Run argv to completion; wait4 gives that one child's own peak RSS."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Child(proc.returncode, t0, wall, usage.ru_maxrss / 1024, log_path)


def _tail(path: str, n: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-n:])


def quantile(xs: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload: str, seed: int, scale: str):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.refs = verify.load_refs(scale)
        self.tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self.n_files = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def path(self, stem: str) -> str:
        self.n_files += 1
        return os.path.join(self.tmp, f"{self.n_files:04d}-{stem}")

    def env(self, threads: int) -> dict:
        return dict(os.environ, PYTHONPATH=SRC, MULTSUM_THREADS=str(threads))

    def tally(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    # -- in-process workloads ------------------------------------------------

    def worker_pass(self, workload: str, ops: list[dict], mode: str, threads: int):
        """One pass in a fresh worker; returns (child, worker output or None)."""
        job, out = self.path("job.json"), self.path("out.json")
        with open(job, "w") as fh:
            json.dump({"workload": workload, "ops": ops, "mode": mode}, fh)
        child = spawn([PY, os.path.join(HERE, "worker.py"), job, out],
                      self.env(threads), self.tmp, self.path("worker.log"))
        if child.rc != 0 or not os.path.exists(out):
            self.problems.append(f"{workload} worker exited {child.rc}: {_tail(child.log)}")
            return child, None
        with open(out) as fh:
            return child, json.load(fh)

    def check_pass(self, workload: str, ops: list[dict], res: dict | None) -> list[tuple]:
        """Verify a pass; returns (label, values, seconds) of each op that passed."""
        check = verify.check_profile if workload == "profile_sweep" else verify.check_mc
        done = []
        for i, op in enumerate(ops):
            rec = res["ops"][i] if res and i < len(res["ops"]) else None
            if rec is None:
                probs = [f"{op['label']}: no result"]
            elif not rec["ok"]:
                probs = [f"{op['label']}: {rec['error']}"]
            else:
                probs = check(op, rec["result"], self.refs)
            if self.tally(probs):
                done.append((op["label"], op["values"], rec["t"]))
        return done

    def setup_probe(self, wl: str, ops: list[dict], threads: int) -> float | None:
        """Spawn-to-first-op seconds of a worker that stops there (cli: spawn to
        exit of an import-only process)."""
        if wl == "cli_experiments":
            child = spawn([PY, "-c", "import multsum.cli"], self.env(1), self.tmp,
                          self.path("import.log"))
            return child.wall if child.rc == 0 else None
        child, res = self.worker_pass(wl, ops, "setup", threads)
        return None if res is None else res["first_op_at"] - child.t0

    # -- CLI workload ----------------------------------------------------------

    def cli_pass(self, ops: list[dict], traced: bool) -> list[dict]:
        out = []
        for op in ops:
            prefix = self.path(op["label"])
            if traced:
                argv = [PY, os.path.join(HERE, "clitrace.py"), prefix + ".spans", "--"]
            else:
                argv = [PY, "-m", "multsum.cli"]
            child = spawn(argv + op["argv"] + ["--out", prefix], self.env(1), self.tmp,
                          prefix + ".log")
            record, nbytes = None, 0
            if child.rc == 0 and os.path.exists(prefix + ".json"):
                with open(prefix + ".json") as fh:
                    record = json.load(fh)
                nbytes = os.path.getsize(prefix + ".json") + os.path.getsize(prefix + ".csv")
            probs = verify.check_cli(op, child.rc, record, self.refs)
            if child.rc != 0:
                probs.append(_tail(child.log))
            ok = self.tally(probs)
            spans = None
            if traced and os.path.exists(prefix + ".spans"):
                with open(prefix + ".spans") as fh:
                    spans = json.load(fh)
            out.append({"op": op, "ok": ok, "wall": child.wall, "rss": child.maxrss_mb,
                        "handler": record["wall_time_s"] if record else None,
                        "bytes": nbytes, "spans": spans})
        return out

    def measure(self, seconds: float) -> dict:
        """Timed passes until `seconds` have gone, each followed by set-up probes."""
        wl = self.workload
        ops = OPS[wl](self.seed, self.scale)
        threads = threads_for(wl)
        setups, rss, samples = [], [], []
        start = time.perf_counter()
        while not rss or time.perf_counter() - start < seconds:
            if wl == "cli_experiments":
                recs = self.cli_pass(ops, traced=False)
                samples.extend((r["op"]["label"], r["op"]["values"], r["wall"])
                               for r in recs if r["ok"])
                rss.append(max(r["rss"] for r in recs))
            else:
                child, res = self.worker_pass(wl, ops, "timed", threads)
                samples.extend(self.check_pass(wl, ops, res))
                rss.append(child.maxrss_mb)
                if res is not None:
                    setups.append(res["first_op_at"] - child.t0)
            setups += [self.setup_probe(wl, ops, threads) for _ in range(SETUP_PROBES)]
        return {"setups": [x for x in setups if x is not None], "rss": rss, "samples": samples}

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))  # only if no other run is using it
        except OSError:
            pass


def end_to_end(m: dict) -> tuple[dict, list[str]]:
    """Metrics and their report lines from setups, RSS and (label, values, s) samples."""
    by_label: dict[str, list[float]] = {}
    values: dict[str, int] = {}
    for label, v, t in m["samples"]:
        by_label.setdefault(label, []).append(t)
        values[label] = v
    times = [t for _, _, t in m["samples"]]
    passes = max(len(ts) for ts in by_label.values())
    metrics = {
        "setup_s": (statistics.median(m["setups"]), "s",
                    f"median of {len(m['setups'])} spawns"),
        "values_per_s": (sum(values.values()) / sum(statistics.median(ts) for ts in by_label.values()),
                         "1/s", f"{sum(values.values())} values over {len(by_label)} ops, "
                         f"each op's median of {passes} passes"),
        "op_p50_s": (statistics.median(times), "s", f"{len(times)} samples"),
        "peak_rss_mb": (statistics.median(m["rss"]), "MB", f"median of {len(m['rss'])} passes"),
    }
    lines = [f"{k:<13} {v:>14.6g} {u:<4} ({note})" for k, (v, u, note) in metrics.items()]
    # tail latency is reported, not bounded: too few samples for a steady p90
    p90 = quantile(times, 90)
    lines.append(f"op_p90_s      {p90:>14.6g} s    ({len(times)} samples, "
                 f"{sum(t > p90 for t in times)} beyond)")
    if len(times) > 10:
        q = int(100 * (1 - 10 / len(times)))
        lines.append(f"op_p{q}_s      {quantile(times, q):>14.6g} s    (highest percentile "
                     f"with 10 samples beyond)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def import_times(run: Run) -> dict[str, float]:
    """Cumulative import seconds of multsum, sympy and numpy from -X importtime."""
    want = {"multsum": "cli.import_s", "sympy": "cli.import_sympy_s",
            "numpy": "cli.import_numpy_s"}
    samples: dict[str, list[float]] = {k: [] for k in want.values()}
    for _ in range(3):
        log = run.path("importtime.log")
        child = spawn([PY, "-X", "importtime", "-c", "import multsum"], run.env(1),
                      run.tmp, log)
        if child.rc != 0:
            raise SystemExit(f"error: cannot import multsum: {_tail(log)}")
        with open(log) as fh:
            for line in fh:
                if not line.startswith("import time:") or "|" not in line:
                    continue
                _, cumulative, name = line.split("|")
                if name.strip() in want and cumulative.strip().isdigit():
                    samples[want[name.strip()]].append(int(cumulative) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items() if v}


def traced_run(run: Run) -> tuple[dict, list[str], dict]:
    """One untraced and one traced pass of every workload; per-layer metrics."""
    exports: list[dict] = []
    per: dict[str, float] = {}
    overhead: dict[str, float] = {}
    cli_latency: list[str] = []
    order = [run.workload] + [w for w in WORKLOADS if w != run.workload]
    for wl in order:
        ops = OPS[wl](run.seed, run.scale)
        if wl == "cli_experiments":
            plain = run.cli_pass(ops, traced=False)
            traced = run.cli_pass(ops, traced=True)
            exports += [r["spans"] for r in traced if r["spans"]]
            overhead[wl] = statistics.median(
                t["wall"] / p["wall"] for p, t in zip(plain, traced)) - 1
            by_cmd: dict[str, list[dict]] = {}
            for r in plain:
                by_cmd.setdefault(r["op"]["argv"][0], []).append(r)
            for cmd, rs in by_cmd.items():
                handler = [r["handler"] for r in rs if r["handler"] is not None]
                walls = [r["wall"] for r in rs if r["handler"] is not None]
                if handler:
                    per[f"cli.handler_s.{cmd}"] = statistics.mean(handler)
                    per[f"cli.overhead_s.{cmd}"] = statistics.mean(walls) - statistics.mean(handler)
            per["cli.record_bytes"] = statistics.mean(r["bytes"] for r in plain)
            walls = [r["wall"] for r in plain if r["ok"]]
            if walls:
                cli_latency.append(
                    f"cli command wall: p50 {statistics.median(walls):.4g} s, p90 "
                    f"{quantile(walls, 90):.4g} s ({len(walls)} commands, one untraced pass)")
            continue
        threads = threads_for(wl)
        _, plain = run.worker_pass(wl, ops, "timed", threads)
        _, traced = run.worker_pass(wl, ops, "traced", threads)
        run.check_pass(wl, ops, plain)
        run.check_pass(wl, ops, traced)
        if plain is None or traced is None:
            continue
        exports.append(traced["trace"])
        t_plain = {r["label"]: r["t"] for r in plain["ops"]}
        t_traced = {r["label"]: r["t"] for r in traced["ops"]}
        overhead[wl] = statistics.median(t_traced[k] / t_plain[k] for k in t_plain) - 1
        if wl == "profile_sweep":
            for label, ev in traced["eval"].items():
                per[f"multfun.eval_s.{label}"] = ev["eval_s"]
                per[f"multfun.profile_s.{label}"] = t_traced[label]
                per[f"multfun.scan_s.{label}"] = t_traced[label] - ev["eval_s"]
            per["multfun.blocks"] = statistics.mean(ev["blocks"] for ev in traced["eval"].values())
        else:
            _, single = run.worker_pass(wl, ops, "timed", 1)
            run.check_pass(wl, ops, single)
            if single is not None:
                per["lab.pool_speedup"] = (sum(r["t"] for r in single["ops"])
                                           / sum(t_plain.values()))
            spans = traced["trace"]["spans"]
            seed_s = pool_s = 0.0
            for s in spans:
                if s["name"] == "lab.random_walk_mc":
                    pool_s += (s["end"] - s["start"]) * min(threads, len(ops[0]["seeds"]))
                elif (s["name"] == "multfun.stream_profile" and s["parent"] is not None
                      and spans[s["parent"]]["name"] == "lab.random_walk_mc"):
                    seed_s += s["end"] - s["start"]
            per["lab.seed_profile_s"] = seed_s
            per["lab.pool_busy_frac"] = seed_s / pool_s
    totals: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for ex in exports:
        for name, agg in tracer.summarize(ex["spans"]).items():
            t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in t:
                t[k] += agg[k]
        for name, c in ex["counts"].items():
            counts[name] = counts.get(name, 0) + c
    for name, agg in totals.items():
        if name.startswith("op."):
            continue
        per[f"{name}_s"] = agg["total_s"]
        per[f"{name}_calls"] = agg["calls"]
        module = name.split(".")[0]
        per[f"{module}.self_s"] = per.get(f"{module}.self_s", 0.0) + agg["self_s"]
    if counts.get("lab.window_candidates"):
        per["lab.window_accept_ratio"] = counts["lab.windows_found"] / counts["lab.window_candidates"]
    per.update(import_times(run))
    for wl, frac in overhead.items():
        per[f"trace_overhead_frac.{wl}"] = frac
    lines = [f"trace overhead {wl}: {frac:+.3f} (median over ops of traced/untraced wall, "
             f"one pass each)" for wl, frac in overhead.items()]
    lines += cli_latency
    return per, lines, {"exports": exports}


ENV_PROBE = ("import json, multsum.cli, multsum.multfun as mf, numpy, sympy; "
             "print(json.dumps({'BLOCK': mf.BLOCK, 'numpy': numpy.__version__, "
             "'sympy': sympy.__version__}))")


def environment(run: Run) -> dict:
    """Machine, versions and sizes recorded with every result.  Its import of
    the package is also the untimed warm-up: it byte-compiles src and fills
    the page cache before anything is timed."""
    probe = subprocess.run([PY, "-c", ENV_PROBE], env=run.env(1), cwd=run.tmp,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise SystemExit(f"error: cannot import multsum from {SRC}: {probe.stderr[-500:]}")
    env = json.loads(probe.stdout)
    # the largest live block array is complex128: 16 bytes per value
    env["largest_block_array_bytes"] = env["BLOCK"] * 16
    env.update(nproc=os.cpu_count(), python=sys.version.split()[0],
               MULTSUM_THREADS={wl: threads_for(wl) for wl in WORKLOADS},
               cpu_model=None, llc_bytes=None, git_commit=None)
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        if llc.isdigit() and int(llc) > 0:
            env["llc_bytes"] = int(llc)
    except (OSError, subprocess.SubprocessError):
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for d, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    env["src_lines"] = src_lines
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "multsum", "cli.py")):
        print(f"error: no multsum sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.scale)
    try:
        env = environment(run)
        if args.trace:
            per, lines, detail = traced_run(run)
            missing = [k for k, _, _ in PER_LAYER if k not in per]
            if missing:
                run.problems.append(f"per-layer metrics not measured: {missing}")
            metrics = {k: {"value": per.get(k, 0.0), "unit": u} for k, u, _ in PER_LAYER}
            lines += [f"{k:<40} {m['value']:>14.6g} {m['unit']}" for k, m in metrics.items()]
        else:
            m = run.measure(args.seconds)
            if not m["samples"] or not m["setups"]:
                print("error: no op passed; nothing to measure", file=sys.stderr)
                for p in run.problems[:20]:
                    print("problem: " + p, file=sys.stderr)
                return 1
            metrics, lines = end_to_end(m)
            detail, missing = m, []
    finally:
        run.close()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result = {"correct": run.failed == 0 and not missing, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "problems": run.problems,
                   "result": result}, fh, indent=1)
    with open(stem + ".detail.json", "w") as fh:
        json.dump(detail, fh)
    print(f"multsum benchmark: workload={args.workload} seed={args.seed} "
          f"scale={args.scale} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if env.get("largest_block_array_bytes") and env.get("llc_bytes"):
        print(f"largest block array {env['largest_block_array_bytes']} B vs last-level "
              f"cache {env['llc_bytes']} B (bandwidth-sized arrays, 4x LLC, are not run)")
    for line in lines:
        print(line)
    print(f"fail_frac     {run.failed / run.attempted if run.attempted else 1.0:>14.6g}"
          f"      ({run.failed} of {run.attempted} ops)")
    for p in run.problems[:20]:
        print("problem: " + p)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
