#!/usr/bin/env python3
"""Capstan repository benchmark: four workloads, one command.

    python3 benchmark/run.py                  # every workload, untraced + traced
    python3 benchmark/run.py --smoke          # one repetition each
    python3 benchmark/run.py --workload sim-long --seed 3 --seconds 20 --trace 0
    python3 benchmark/run.py --write-goldens  # re-record benchmark/golden/

Builds a private Release tree in build-bench/ from benchmark/CMakeLists.txt,
then drives the real binaries (capstan-report, capstan-run, capstan-serve)
with tracing off, or, with --trace 1, runs the workload's job list through
the in-process harness (capstan-bench-trace) and through a daemon replay to
get per-layer numbers. Every operation's output is checked. Metrics print
as `workload metric value unit` lines; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.

Load comes from this one process: at most 4 sweep workers in the programs
and at most 3 client connections. Inputs depend only on --seed.
See benchmark/README.md for the metric glossary and the workload rationale.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
BIN = BUILD / "capstan"
TRACE_BIN = BUILD / "capstan-bench-trace"
REFERENCE = ROOT / "data" / "paper_reference.json"
GOLDEN = BENCH / "golden"
TARGETS = ["capstan-run", "capstan-report", "capstan-serve",
           "capstan-bench-trace"]

JOBS = 4             # sweep workers inside the programs (host: 4 cores)
DEFAULT_SEED = 1     # the seed the ingest-real goldens were recorded at
PROC_TIMEOUT = 150   # seconds before a hung child is killed

WORKLOADS = ["report-quick", "sim-long", "ingest-real", "serve-mixed"]

# sim-long: eight independent single runs. Sized so Machine stepping
# dominates host time and one pass takes ~3 s on a 4-core host.
SIM_LONG = [
    ["--app", "spmspm", "--scale", "1.5"],
    ["--app", "sssp", "--scale", "4", "--tiles", "64"],
    ["--app", "matadd", "--scale", "4"],
    ["--app", "bicgstab", "--scale", "1"],
    ["--app", "pagerank", "--scale", "4", "--tiles", "64"],
    ["--app", "conv", "--scale", "1"],
    ["--app", "spmv-coo", "--scale", "4"],
    ["--app", "bfs", "--scale", "4", "--tiles", "64"],
]

# ingest-real: a seeded real-shaped matrix (benchmark/gen_mtx.py).
INGEST_WARM_RUNS = 3
INGEST_CMD = ["--app", "spmv", "--dataset", "file:m.mtx"]

# serve-mixed: blocks of 21 jobs (16 regular runs, 1 fresh-scale run,
# 3 sweeps, 1 study).
SERVE_APPS = ["spmv", "spmv-coo", "pagerank", "bfs", "sssp", "matadd",
              "spmspm", "bicgstab"]
SERVE_SCALES = [0.1, 0.2, 0.5, 1.0]
SERVE_TILES = [4, 16]
SERVE_SWEEP_SCALES = [0.1, 0.2, 0.5]
SERVE_STUDIES = ["table10", "table11", "fig6"]
SERVE_BLOCK = 21
SERVE_CLIENTS = 3
SERVE_SMOKE_JOBS = 60
SERVE_WARMUP_BLOCKS = 4   # every (app, tiles, scale) run once: cache filled
SERVE_TRACE_BLOCKS = 3


class BenchError(Exception):
    """The benchmark cannot run (no source tree, build failure)."""


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(s):
    return {m["name"]: m["unit"] for m in s["end_to_end"] + s["per_layer"]}


def median(values):
    return statistics.median(values)


def p95(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Build and environment
# ---------------------------------------------------------------------------

def check_source_tree():
    for path in ("CMakeLists.txt", "src", "data/paper_reference.json"):
        if not (ROOT / path).exists():
            raise BenchError(f"source tree incomplete: {path} is missing "
                             f"under {ROOT}")


def build(log):
    """Configure once, then bring the four targets up to date."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD)]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError("cmake configure failed; see "
                                 "build-bench/build.log")
        cmd = ["cmake", "--build", str(BUILD), "-j", str(JOBS),
               "--target"] + TARGETS
        if subprocess.run(cmd, stdout=out, stderr=out).returncode:
            raise BenchError("build failed; see build-bench/build.log")
    log.write(b"build ok\n")


def environment(loadavg):
    cache = {}
    cache_file = BUILD / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "compiler": f"{compiler} ({version})",
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
    }


# ---------------------------------------------------------------------------
# Running the programs
# ---------------------------------------------------------------------------

class Proc:
    """One finished child: wall time, exit code, peak RSS, stdout.

    The kernel reports a child's peak RSS as at least its parent's at
    exec time, so this process stays small (the ingest generator runs
    as its own process) and records its own peak in the detail."""

    def __init__(self, cmd, cwd, log):
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                             stderr=log)
        watchdog = threading.Timer(PROC_TIMEOUT, p.kill)
        watchdog.start()
        try:
            self.out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
            p.stdout.close()
        self.wall = time.perf_counter() - t0
        self.rc = os.waitstatus_to_exitcode(status)
        p.returncode = self.rc
        self.rss_mb = usage.ru_maxrss / 1024.0


class Run:
    """Counters and metrics of one workload run."""

    def __init__(self, name, seed, seconds, smoke, log):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.log = log
        self.attempted = 0
        self.failures = []
        self.metrics = {}
        self.detail = {}
        self.dir = BUILD / "work" / name
        self.dir.mkdir(parents=True, exist_ok=True)

    def check(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(why)
            self.log.write(f"FAIL {self.name}: {why}\n".encode())
        return ok

    def proc(self, cmd, cwd=None):
        return Proc([str(c) for c in cmd], cwd or self.dir, self.log)

    def loop(self, op):
        """Call op() until --seconds have passed (at least 3 times, or
        once in smoke mode) and return its results."""
        results = []
        deadline = time.perf_counter() + self.seconds
        minimum = 1 if self.smoke else 3
        while len(results) < minimum or time.perf_counter() < deadline:
            results.append(op())
        return results

    def setup(self, samples):
        self.metrics["setup_s"] = median(samples)
        self.detail["setup_samples"] = len(samples)

    def ops(self, walls, peaks_mb, window_s=None):
        """End-to-end metrics of the timed operations: median latency,
        rate, and the median over operations of each one's peak memory.
        The tail goes to the detail: its run-to-run spread on a shared
        host is too wide to bound."""
        self.metrics["op_p50_s"] = median(walls)
        self.metrics["ops_per_s"] = len(walls) / (window_s or sum(walls))
        self.metrics["max_rss_mb"] = median(peaks_mb)
        self.detail["ops"] = len(walls)
        self.detail["op_p95_s"] = p95(walls)
        self.detail["op_max_s"] = max(walls)
        self.detail["bench_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dry_run_setup(run, cmds, repeats, cwd=None):
    """setup_s for CLI workloads: the same commands with --dry-run."""
    samples = []
    for _ in range(repeats):
        total = 0.0
        for cmd in cmds:
            p = run.proc(cmd + ["--dry-run"], cwd)
            run.check(p.rc == 0, f"dry run failed: {cmd}")
            total += p.wall
        samples.append(total)
    run.setup(samples)


# ---------------------------------------------------------------------------
# capstan-serve client
# ---------------------------------------------------------------------------

class Client:
    """One closed-loop protocol connection (docs/SERVE_PROTOCOL.md)."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(PROC_TIMEOUT)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def close(self):
        self.reader.close()
        self.sock.close()

    def send(self, doc):
        self.sock.sendall(json.dumps(doc).encode() + b"\n")

    def event(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return time.perf_counter(), line

    def request(self, doc):
        self.send(doc)
        return json.loads(self.event()[1])

    def submit(self, job, seq):
        """Submit one job and wait for its result: client timestamps of
        accepted/started/result, the queue depth, and the stats bytes."""
        rec = {"job": job, "submit": time.perf_counter()}
        self.send({"op": "submit", "id": seq, "job": job})
        while True:
            t, line = self.event()
            ev = json.loads(line)
            kind = ev["event"]
            if kind == "accepted":
                rec["accepted"] = t
                rec["depth"] = ev["queue_depth"]
            elif kind == "started":
                rec["started"] = t
            elif kind == "result":
                raw = line.rstrip(b"\r\n")
                rec["result"] = t
                rec["ok"] = ev["ok"] is True
                rec["stats"] = raw[raw.index(b'"stats":') + 8:-1]
                rec["error"] = ev.get("error", "")
                return rec
            elif kind in ("rejected", "error"):
                rec["result"] = t
                rec["ok"] = False
                rec["error"] = f"{kind}: {ev.get('message', ev)}"
                return rec


class Daemon:
    """capstan-serve on a private socket under the run directory."""

    def __init__(self, run, cwd):
        self.run = run
        sock = Path(cwd) / "serve.sock"
        sock.unlink(missing_ok=True)
        # Relative to the benchmark's working directory (the checkout
        # root), so the path stays under the 108-byte sun_path limit.
        self.path = os.path.relpath(sock, ROOT)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(BIN / "capstan-serve"), "--socket", "serve.sock",
             "--jobs", str(JOBS), "--reference", str(REFERENCE)],
            cwd=cwd, stdout=run.log, stderr=run.log)
        try:
            self.control = self._connect(t0)
            pong = self.control.request({"op": "ping"})
            if pong.get("event") != "pong":
                raise BenchError(f"capstan-serve answered {pong}")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_s = time.perf_counter() - t0

    def _connect(self, t0):
        while True:
            try:
                return Client(self.path)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise BenchError("capstan-serve exited at start-up")
                if time.perf_counter() - t0 > 30:
                    raise BenchError("capstan-serve did not start")
                time.sleep(0.0005)

    def stats(self):
        return self.control.request({"op": "stats"})

    def vmhwm_mb(self):
        """The daemon's peak resident memory so far."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            self.control.send({"op": "shutdown"})
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.control.close()
        return self.run.check(self.proc.returncode == 0,
                              f"capstan-serve exited {self.proc.returncode}")


def closed_loop(daemon, jobs, clients, deadline=None):
    """Drive `jobs` through `clients` closed-loop connections: each sends
    its next job only after the previous result. Stops taking new jobs at
    `deadline`. Returns the per-job records in completion order."""
    lock = threading.Lock()
    pending = iter(enumerate(jobs))
    records, errors = [], []

    def worker():
        try:
            client = Client(daemon.path)
        except OSError as e:
            errors.append(repr(e))
            return
        try:
            while True:
                with lock:
                    if deadline and time.perf_counter() >= deadline:
                        return
                    item = next(pending, None)
                if item is None:
                    return
                rec = client.submit(item[1], item[0])
                with lock:
                    records.append(rec)
        except (OSError, ValueError) as e:
            errors.append(repr(e))
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for e in errors:
        daemon.run.check(False, f"client: {e}")
    return records


def check_serve_record(run, rec, seen):
    """A served job succeeded, and an identical job always returns
    identical bytes."""
    job = rec["job"]
    label = json.dumps(job, sort_keys=True)
    if not run.check(rec["ok"], f"serve job {label}: {rec['error']}"):
        return
    digest = sha256(rec["stats"])
    run.check(seen.setdefault(label, digest) == digest,
              f"serve job {label}: result bytes changed between repeats")
    if job["type"] == "sweep":
        doc = json.loads(rec["stats"])
        run.check(doc["sweep"]["failed"] == 0 and doc["sweep"]["points"] ==
                  len(SERVE_APPS), f"serve sweep {label}: {doc['sweep']}")
    elif job["type"] == "study":
        verdict = json.loads(rec["stats"])["results"][0]["verdict"]
        run.check(verdict in ("pass", "unchecked"),
                  f"serve study {label}: verdict {verdict}")


def serve_layer(run, cwd, jobs, clients):
    """Per-layer serve metrics: replay a job list through a daemon and
    split each latency into queue wait, execution and overhead."""
    daemon = Daemon(run, cwd)
    try:
        before = daemon.stats()["dataset_cache"]
        records = closed_loop(daemon, jobs, clients)
        after = daemon.stats()["dataset_cache"]
    finally:
        daemon.stop()
    seen = {}
    for rec in records:
        check_serve_record(run, rec, seen)
    run.check(len(records) == len(jobs), "serve replay lost jobs")
    done = [r for r in records if "started" in r and r["ok"]]
    wait = [r["started"] - r["accepted"] for r in done]
    execute = [r["result"] - r["started"] for r in done]
    overhead = [r["result"] - r["submit"] - w - e
                for r, w, e in zip(done, wait, execute)]
    m = run.metrics
    m["serve.queue_wait_p50_s"] = median(wait)
    m["serve.queue_wait_p95_s"] = p95(wait)
    m["serve.execute_p50_s"] = median(execute)
    m["serve.execute_p95_s"] = p95(execute)
    m["serve.overhead_p50_s"] = median(overhead)
    m["serve.queue_depth_max"] = max(r.get("depth", 0) for r in records)
    m["serve.cache_hits"] = after["hits"] - before["hits"]
    m["serve.cache_misses"] = after["misses"] - before["misses"]
    return {json.dumps(r["job"], sort_keys=True): r["stats"]
            for r in records if r["ok"]}


def traced(run, cwd, jobs, clients=1):
    """The traced pass: the in-process harness plus a daemon replay of
    the same job list. Returns the harness document."""
    jobs_file = Path(cwd) / "jobs.ndjson"
    jobs_file.write_text("".join(json.dumps(j) + "\n" for j in jobs))
    out = Path(cwd) / "trace.json"
    out.unlink(missing_ok=True)
    p = run.proc([TRACE_BIN, "--jobs-file", "jobs.ndjson", "--out",
                  "trace.json", "--scratch", ".", "--reference", REFERENCE],
                 cwd=cwd)
    if not run.check(p.rc == 0, f"capstan-bench-trace exited {p.rc}"):
        return None
    doc = json.loads(out.read_text())
    run.attempted += doc["attempted"] - 1   # the harness run counted once
    for f in doc["failures"]:
        run.check(False, f"trace: {f}")
    run.metrics.update(doc["metrics"])
    run.detail["trace"] = doc["breakdown"]

    served = serve_layer(run, cwd, jobs, clients)
    # The traced and untraced passes must run the same program: every
    # run job's stats bytes from the harness equal the daemon's.
    runs = [j for j in jobs if j["type"] == "run"]
    for job, stats in zip(runs, doc["run_stats"]):
        key = json.dumps(job, sort_keys=True)
        run.check(served.get(key) == stats.encode(),
                  f"trace and serve disagree on {key}")
    return doc


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------

def golden(name):
    path = GOLDEN / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def point_name(args):
    return " ".join(args)


def run_job(args):
    """The engine `run` job a capstan-run flag list describes."""
    return {"type": "run", "options": {
        args[i].lstrip("-"): args[i + 1] for i in range(0, len(args), 2)}}


# ---------------------------------------------------------------------------
# Workload: report-quick
# ---------------------------------------------------------------------------

def report_cmd(jobs):
    return [BIN / "capstan-report", "--all", "--preset", "quick", "--check",
            "--jobs", str(jobs), "--reference", REFERENCE,
            "--json", "report.json", "--markdown", "RESULTS.md"]


def paper_rel_err(report):
    """Median |ours - paper| / |paper| over the reference-checked
    metrics, and how many were checked and passed."""
    ref = json.loads(REFERENCE.read_text())["studies"]
    errs, checked, passed = [], 0, 0
    for res in report["results"]:
        checked += res["check"]["checked"]
        passed += res["check"]["passed"]
        entries = ref.get(res["name"], {}).get("metrics", {})
        for key, entry in entries.items():
            if ("rel" in entry or "abs" in entry) and entry["paper"] and \
                    key in res["metrics"]:
                errs.append(abs(res["metrics"][key] - entry["paper"]) /
                            abs(entry["paper"]))
    return (median(errs) if errs else 0.0), checked, passed


def check_report(run, p):
    if not run.check(p.rc == 0, f"capstan-report exited {p.rc}"):
        return
    report = json.loads((run.dir / "report.json").read_text())
    head = report["report"]
    err, checked, passed = paper_rel_err(report)
    run.check(head["deviations"] == 0 and head["errors"] == 0 and
              checked == passed and checked > 0,
              f"report check: {head}, {passed}/{checked} metrics")
    run.detail.update(paper_checked=checked, paper_passed=passed,
                      paper_rel_err=err, studies=head["studies"])


def report_quick(run, trace):
    if trace:
        studies = Proc([BIN / "capstan-report", "--list"], run.dir, run.log)
        names = [line.split()[0] for line in
                 studies.out.decode().splitlines()[1:] if line.strip()]
        if run.smoke:
            names = ["table10", "fig6"]
        jobs = [{"type": "study", "study": s, "preset": "quick",
                 "check": True} for s in names]
        traced(run, run.dir, jobs)
        return
    dry_run_setup(run, [report_cmd(JOBS)], 3 if run.smoke else 10)
    if not run.smoke:
        check_report(run, run.proc(report_cmd(JOBS)))       # warm-up

    def op():
        p = run.proc(report_cmd(JOBS))
        check_report(run, p)
        return p
    procs = run.loop(op)
    run.ops([p.wall for p in procs], [p.rss_mb for p in procs])


# ---------------------------------------------------------------------------
# Workload: sim-long
# ---------------------------------------------------------------------------

def sim_long_cmd(args):
    return [BIN / "capstan-run"] + args + ["--json", "--compact"]


def sim_long(run, trace):
    gold = golden("sim_long")
    if trace:
        points = SIM_LONG[:2] if run.smoke else SIM_LONG
        doc = traced(run, run.dir, [run_job(a) for a in points])
        for args, stats in zip(points, doc["run_stats"] if doc else []):
            run.check(sha256(stats.encode()) == gold.get(point_name(args)),
                      f"sim-long {point_name(args)}: trace stats differ "
                      f"from the golden")
        return
    dry_run_setup(run, [sim_long_cmd(a) for a in SIM_LONG],
                  3 if run.smoke else 5)

    def one_pass():
        wall, rss, cycles = 0.0, 0.0, 0
        for args in SIM_LONG:
            p = run.proc(sim_long_cmd(args))
            wall += p.wall
            rss = max(rss, p.rss_mb)
            stats = p.out.rstrip(b"\n")
            if run.check(p.rc == 0 and sha256(stats) ==
                         gold.get(point_name(args)),
                         f"sim-long {point_name(args)}: exit {p.rc} or "
                         f"stats differ from the golden"):
                cycles += json.loads(stats)["timing"]["cycles"]
        return wall, rss, cycles

    if not run.smoke:
        one_pass()                                           # warm-up
    passes = run.loop(one_pass)
    run.ops([w for w, _, _ in passes], [r for _, r, _ in passes])
    run.detail["sim_cycles_per_pass"] = passes[0][2]
    run.detail["sim_cycles_per_s"] = passes[0][2] / median(
        [w for w, _, _ in passes])


# ---------------------------------------------------------------------------
# Workload: ingest-real
# ---------------------------------------------------------------------------

def ingest_input(run):
    """Write this seed's matrix (once per seed) and drop other seeds'."""
    top = BUILD / "work" / "ingest-inputs"
    cwd = top / f"seed-{run.seed}"
    if top.exists():
        for other in top.iterdir():
            if other != cwd:
                shutil.rmtree(other)
    meta = cwd / "m.json"
    if not meta.exists():
        p = run.proc([sys.executable, BENCH / "gen_mtx.py", "--seed",
                      run.seed, "--out", cwd], cwd=ROOT)
        if p.rc != 0:
            raise BenchError(f"gen_mtx.py exited {p.rc}")
    info = json.loads(meta.read_text())
    if run.seed == DEFAULT_SEED:
        run.check(info["sha256"] == golden("ingest_real").get("generator"),
                  "ingest-real generator output differs from the golden")
    return cwd, info


def check_ingest_stats(run, stats, info):
    doc = json.loads(stats)
    ds = doc["dataset"]
    ok = ds["rows"] == info["rows"] and ds["nnz"] == info["nnz"]
    if run.seed == DEFAULT_SEED:
        ok = ok and sha256(stats) == golden("ingest_real").get("stats")
    return run.check(ok, f"ingest-real stats wrong: {ds}")


def ingest_real(run, trace):
    cwd, info = ingest_input(run)
    cache = cwd / "m.mtx.cbin"
    if trace:
        cache.unlink(missing_ok=True)
        warm = 1 if run.smoke else INGEST_WARM_RUNS
        doc = traced(run, cwd, [run_job(INGEST_CMD)] * (1 + warm))
        if doc:
            check_ingest_stats(run, doc["run_stats"][0].encode(), info)
        return
    cmd = [BIN / "capstan-run"] + INGEST_CMD + ["--json", "--compact"]
    dry_run_setup(run, [cmd], 3 if run.smoke else 10, cwd)

    def cycle():
        """One cold run (no .cbin: parse + cache write), then warm
        runs that read the cache."""
        cache.unlink(missing_ok=True)
        procs = [run.proc(cmd, cwd) for _ in range(1 + INGEST_WARM_RUNS)]
        outs = {p.out for p in procs}
        if run.check(all(p.rc == 0 for p in procs) and len(outs) == 1,
                     "ingest-real runs failed or disagree cold vs warm"):
            check_ingest_stats(run, procs[0].out.rstrip(b"\n"), info)
        return procs

    if not run.smoke:
        cycle()                                              # warm-up
    cycles = run.loop(cycle)
    run.ops([sum(p.wall for p in c) for c in cycles],
            [max(p.rss_mb for p in c) for c in cycles])
    run.detail["cold_s"] = median([c[0].wall for c in cycles])
    run.detail["warm_s"] = median([p.wall for c in cycles for p in c[1:]])


# ---------------------------------------------------------------------------
# Workload: serve-mixed
# ---------------------------------------------------------------------------

def serve_plan(seed, blocks):
    """Blocks of 21 jobs, shuffled within the block by the seed: 16 runs
    (every app at tiles 4 and 16; over four blocks each (app, tiles)
    meets every scale once, in a seeded order), 1 run at a small fresh
    scale (so the daemon keeps missing its cache without its memory or
    work growing with the run's length), 3 eight-point app sweeps and 1
    quick study. Every 12 blocks hold the same multiset of jobs."""
    rng = random.Random(seed)
    order = {(a, t): rng.sample(SERVE_SCALES, len(SERVE_SCALES))
             for a in SERVE_APPS for t in SERVE_TILES}
    plan = []
    for b in range(blocks):
        block = [{"type": "run", "options": {
            "app": a, "scale": order[(a, t)][b % len(SERVE_SCALES)],
            "tiles": t}} for a in SERVE_APPS for t in SERVE_TILES]
        block.append({"type": "run", "options": {
            "app": SERVE_APPS[b % len(SERVE_APPS)],
            "scale": round(0.02 + 0.004 * (1 + b % 25), 3), "tiles": 4}})
        for s in SERVE_SWEEP_SCALES:
            block.append({"type": "sweep",
                          "options": {"scale": s, "tiles": 4},
                          "axes": {"app": SERVE_APPS}})
        block.append({"type": "study",
                      "study": SERVE_STUDIES[b % len(SERVE_STUDIES)],
                      "preset": "quick", "check": True})
        rng.shuffle(block)
        plan += block
    return plan


def serve_mixed(run, trace):
    if trace:
        blocks = 1 if run.smoke else SERVE_TRACE_BLOCKS
        traced(run, run.dir, serve_plan(run.seed, blocks), SERVE_CLIENTS)
        return
    setup = []
    for _ in range(3 if run.smoke else 5):
        d = Daemon(run, run.dir)
        setup.append(d.ready_s)
        d.stop()
    run.setup(setup)

    if run.smoke:
        warmup, measured = [], serve_plan(run.seed, 3)[:SERVE_SMOKE_JOBS]
    else:
        plan = serve_plan(run.seed, SERVE_WARMUP_BLOCKS + 1000)
        split = SERVE_WARMUP_BLOCKS * SERVE_BLOCK
        warmup, measured = plan[:split], plan[split:]
    daemon = Daemon(run, run.dir)
    try:
        closed_loop(daemon, warmup, SERVE_CLIENTS)
        start = time.perf_counter()
        deadline = None if run.smoke else start + run.seconds
        records = closed_loop(daemon, measured, SERVE_CLIENTS, deadline)
        window = max(r["result"] for r in records) - start
        rss = daemon.vmhwm_mb()
    finally:
        daemon.stop()
    seen = {}
    for rec in records:
        check_serve_record(run, rec, seen)
    run.ops([r["result"] - r["submit"] for r in records], [rss], window)
    runs = [r["result"] - r["submit"] for r in records
            if r["job"]["type"] == "run"]
    run.detail["run_job_p95_s"] = p95(runs)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

RUNNERS = {"report-quick": report_quick, "sim-long": sim_long,
           "ingest-real": ingest_real, "serve-mixed": serve_mixed}


def run_workload(name, seed, seconds, trace, smoke, log):
    run = Run(name, seed, seconds, smoke, log)
    try:
        RUNNERS[name](run, trace)
    except Exception as e:  # pylint: disable=broad-except
        # Any crash of the harness itself is a failed run, not a result.
        run.check(False, f"{type(e).__name__}: {e}")
    return run


def result_json(run, names, unit_of):
    metrics = {n: {"value": run.metrics[n], "unit": unit_of[n]}
               for n in names if n in run.metrics}
    missing = [n for n in names if n not in run.metrics]
    for n in missing:
        run.check(False, f"metric {n} was not measured")
    return {"correct": not run.failures, "attempted": max(run.attempted, 1),
            "failed": len(run.failures), "metrics": metrics}


def print_lines(name, result):
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']!r} {m['unit']}")


def write_goldens(log):
    """Re-record benchmark/golden/ from the current build."""
    GOLDEN.mkdir(exist_ok=True)
    run = Run("sim-long", DEFAULT_SEED, 0, True, log)
    points = {}
    for args in SIM_LONG:
        p = run.proc(sim_long_cmd(args))
        if p.rc != 0:
            raise BenchError(f"sim-long {point_name(args)} exited {p.rc}")
        points[point_name(args)] = sha256(p.out.rstrip(b"\n"))
    (GOLDEN / "sim_long.json").write_text(json.dumps(points, indent=1) +
                                          "\n")
    run = Run("ingest-real", DEFAULT_SEED, 0, True, log)
    cwd, info = ingest_input(run)
    p = run.proc([BIN / "capstan-run"] + INGEST_CMD + ["--json", "--compact"],
                 cwd)
    if p.rc != 0:
        raise BenchError(f"ingest-real exited {p.rc}")
    (GOLDEN / "ingest_real.json").write_text(json.dumps(
        {"seed": DEFAULT_SEED, "generator": info["sha256"],
         "stats": sha256(p.out.rstrip(b"\n"))}, indent=1) + "\n")
    print(f"goldens written to {GOLDEN}")


def main(argv):
    s = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=s["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--out", help="append this invocation's results "
                        "to FILE as one JSON line (compare.py input)")
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition per workload, a 60-job serve "
                             "plan; checks the emitted metric names")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0

    os.chdir(ROOT)
    loadavg = os.getloadavg()[0]
    check_source_tree()
    BUILD.mkdir(exist_ok=True)
    log = open(BUILD / "bench.log", "ab")
    build(log)
    if args.write_goldens:
        write_goldens(log)
        return 0

    env = environment(loadavg)
    print("# env " + json.dumps(env, sort_keys=True))
    unit_of = units(s)
    names = {0: [m["name"] for m in s["end_to_end"]],
             1: [m["name"] for m in s["per_layer"]]}
    workloads = [args.workload] if args.workload else WORKLOADS
    passes = [args.trace] if args.trace is not None else [0, 1]

    results, total = {}, {"correct": True, "attempted": 0, "failed": 0,
                          "metrics": {}}
    for name in workloads:
        for trace in passes:
            t0 = time.perf_counter()
            run = run_workload(name, args.seed, args.seconds, trace,
                               args.smoke, log)
            res = result_json(run, names[trace], unit_of)
            print_lines(name, res)
            for f in run.failures:
                print(f"# FAIL {name}: {f}")
            results.setdefault(name, {})[f"trace{trace}"] = dict(
                res, detail=run.detail, seconds=time.perf_counter() - t0)
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for metric, m in res["metrics"].items():
                key = metric if len(workloads) == 1 else f"{name}.{metric}"
                total["metrics"][key] = m
    shares = {} if args.smoke else accounting(results)
    for name, share in shares.items():
        print(f"# accounting {name}: traced layers cover {share:.1%} of "
              f"op_p50_s - setup_s")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps(
                {"env": env, "seed": args.seed, "seconds": args.seconds,
                 "smoke": args.smoke, "accounting": shares,
                 "workloads": results}) + "\n")
    if args.smoke:
        smoke_check(results, s, unit_of, total)
    print(json.dumps(total))
    return 0


# The traced layers that should add up to an untraced operation.
ACCOUNTED = {
    "sim-long": ["workloads.load_s", "workloads.tiling_s", "driver.run_s"],
    "report-quick": ["engine.cold_s"],
}


def accounting(results):
    """Share of the untraced operation time (minus set-up) the traced
    layers account for, where both passes ran."""
    shares = {}
    for name, keys in ACCOUNTED.items():
        res = results.get(name, {})
        e2e = res.get("trace0", {}).get("metrics", {})
        layer = res.get("trace1", {}).get("metrics", {})
        if "op_p50_s" in e2e and "setup_s" in e2e and \
                all(k in layer for k in keys):
            op = e2e["op_p50_s"]["value"] - e2e["setup_s"]["value"]
            shares[name] = sum(layer[k]["value"] for k in keys) / op
    return shares


def smoke_check(results, s, unit_of, total):
    """Every metric BENCHMARK.json names is emitted with its unit, and
    nothing else is."""
    for name, res in results.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if f"trace{trace}" not in res:
                continue
            got = res[f"trace{trace}"]["metrics"]
            want = {m["name"] for m in s[key]}
            bad = (want ^ set(got)) | {n for n, m in got.items()
                                       if m["unit"] != unit_of[n]}
            if bad:
                print(f"# SMOKE {name} trace {trace}: metric set differs "
                      f"from BENCHMARK.json: {sorted(bad)}")
                total["correct"] = False
                total["failed"] += 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        sys.exit(2)
