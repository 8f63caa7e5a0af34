#!/usr/bin/env python3
"""Repository benchmark for SimProf.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold_profile|serve_mixed \
        --seed N --seconds S --trace 0|1

It builds the `simprof` CLI and `perfbench_probe` from source (Release only)
under $CARGO_TARGET_DIR (default .bench_build), runs one workload in private
temporary directories inside that build directory, checks the outputs, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, measured
with tracing off; --trace 1 reports its per-layer metrics, measured by the
probe's spans around calls into each layer (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")

COLD_CONFIGS = ["wc_sp", "sort_hp", "cc_sp", "rank_hp"]
ANALYSIS_THREADS = 1          # fixed, so timings do not depend on the host
GOLDEN_SEED = 42
SERVE_SCALE = 0.1
SERVE_COLD, SERVE_WARM_MIN, SERVE_MEASURE = 20, 200, 20
MINI_COLD, MINI_WARM_MIN, MINI_MEASURE = 3, 30, 3
LAYER_SCALE_SMALL = 0.1
CHILD_TIMEOUT_S = 150         # a hung child fails the run instead of hanging it



def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg):
    log("FATAL: " + msg)
    sys.exit(1)


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    s = sorted(values)
    k = max(1, -(-len(s) * q // 100))
    return s[int(k) - 1]


def kind_ms(kind_medians):
    """op_p50_ms / op_p95_ms: percentiles, across a workload's operation
    kinds, of each kind's median time (in ms)."""
    return {"op_p50_ms": statistics.median(kind_medians),
            "op_p95_ms": percentile(kind_medians, 95)}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------------ build --

def build():
    """Configure (Release only) and build the CLI and the probe."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simprof sources under %s (run from a checkout root)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD_ROOT, "perfbench-build.log")
    with open(logf, "w") as out:
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if not os.path.isfile(cache):
            rc = subprocess.call(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=out, stderr=subprocess.STDOUT)
            if rc != 0:
                die("configure failed, see " + logf)
        build_type = ""
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
        if build_type != "Release":
            die("build tree %s is %r; only Release builds are timed"
                % (BUILD, build_type))
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                              "simprof_cli", "perfbench_probe"],
                             stdout=out, stderr=subprocess.STDOUT)
        if rc != 0:
            die("build failed, see " + logf)
    tools = {"simprof": os.path.join(BUILD, "tools", "simprof"),
             "probe": os.path.join(BUILD, "perfbench_probe")}
    version = subprocess.run([tools["simprof"], "--version"],
                             capture_output=True, text=True).stdout
    if "(Release)" not in version:
        die("simprof reports a non-Release build: " + version.strip())
    return tools


# -------------------------------------------------------------- processes --

class Ctx:
    """Tools, private directories and failure accounting of one run."""

    def __init__(self, tools, work, seed):
        self.tools = tools
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.daemons = []  # every daemon started, stopped again by main()
        # Every path the program could fall back to stays inside `work`; the
        # repository's .simprof_cache is never read.
        self.env = dict(os.environ,
                        SIMPROF_CACHE_DIR=os.path.join(work, "cache"),
                        SIMPROF_CHECKPOINT_DIR=os.path.join(work, "ckpt"),
                        SIMPROF_MANIFEST_DIR=os.path.join(work, "manifests"),
                        SIMPROF_LOG_LEVEL="warn")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("check failed: " + what)

    def run_timed(self, cmd):
        """Run to completion; returns (exit code, CPU s, peak RSS MB, stdout).

        Times are the child's CPU time (user + system): the work is
        CPU-bound, and on a virtual machine wall time also counts the time
        the hypervisor gives the CPU to other guests."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                 cwd=self.work)
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while True:
                pid, status, ru = os.wait4(p.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    p.kill()
                    os.wait4(p.pid, 0)
                    die("%s timed out" % " ".join(cmd[:2]))
                time.sleep(0.01)
            p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            stdout = f.read()
        if p.returncode != 0:
            with open(err_path) as f:
                log("%s exited %d: %s" % (" ".join(cmd[:2]), p.returncode, f.read()[-2000:]))
        return p.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, stdout

    def probe(self, *args):
        rc, cpu, rss, out = self.run_timed([self.tools["probe"]] + list(args))
        if rc != 0 or not out.strip():
            die("perfbench_probe %s failed (exit %d)" % (args[0], rc))
        return json.loads(out.strip().splitlines()[-1]), cpu, rss


def cold_pass(ctx, cfg, scale, traced=False):
    """One cold `simprof profile` in a fresh process with no cache, no
    checkpoints and no manifest. Returns (CPU s, peak RSS MB, sha256 or
    None)."""
    out = os.path.join(ctx.work, cfg + ".sprf")
    cmd = [ctx.tools["simprof"], "profile", cfg, "--scale", repr(float(scale)),
           "--seed", str(ctx.seed), "--out", out, "--checkpoint-stride", "0",
           "--no-manifest", "--log-level", "warn"]
    if traced:
        cmd += ["--trace-out", os.path.join(ctx.work, cfg + ".trace.json")]
    rc, cpu, rss, _ = ctx.run_timed(cmd)
    digest = sha256_file(out) if rc == 0 and os.path.isfile(out) else None
    if os.path.exists(out):
        os.remove(out)
    return cpu, rss, digest


def cold_round(ctx, scale):
    return {cfg: cold_pass(ctx, cfg, scale) for cfg in COLD_CONFIGS}


class Daemon:
    """A `simprof serve` child with fixed admission of 2 tickets."""

    def __init__(self, ctx, name, metrics_out=None, trace_out=None):
        self.ctx = ctx
        self.sock = name + ".sock"
        cmd = [ctx.tools["simprof"], "serve", "--socket", self.sock, "--fixed",
               "--tickets", "2", "--tickets-max", "2", "--request-threads", "1",
               "--checkpoint-dir", os.path.join(ctx.work, name + "-ckpt"),
               "--no-manifest", "--log-level", "warn"]
        if metrics_out:
            cmd += ["--metrics-out", metrics_out]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        env = dict(ctx.env, SIMPROF_CACHE_DIR=os.path.join(ctx.work, name + "-cache"))
        self.dirs = [os.path.join(ctx.work, name + "-ckpt"), env["SIMPROF_CACHE_DIR"]]
        with open(os.path.join(ctx.work, name + ".err"), "w") as err:
            self.proc = subprocess.Popen(cmd, cwd=ctx.work, env=env,
                                         stdout=subprocess.DEVNULL, stderr=err)
        ctx.daemons.append(self)

    def wait_ready(self, timeout=30.0):
        path = os.path.join(self.ctx.work, self.sock)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                die("daemon exited during start-up")
            if os.path.exists(path):
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    s.connect(path)
                    return
                except OSError:
                    pass
                finally:
                    s.close()
            time.sleep(0.002)
        die("daemon not ready after %.0f s" % timeout)

    def cpu_s(self):
        """CPU seconds of the daemon's live threads (schedstat, ns precision)."""
        total = 0
        task_dir = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, tid, "schedstat")) as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # thread exited
        return total / 1e9

    def status_mb(self, field):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """Graceful drain; returns the exit code. Deletes its archives."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        return self.proc.returncode


def start_daemon(ctx, name, **kw):
    """Start a daemon; returns it and the CPU seconds it took to get ready."""
    d = Daemon(ctx, name, **kw)
    d.wait_ready()
    return d, d.cpu_s()


def serve_session(ctx, name, cold, warm_min, measure, seconds, scale, traced=False):
    """Start a daemon, drive cold/warm/measure traffic, stop it. Returns the
    client report plus daemon-side figures."""
    metrics_out = os.path.join(ctx.work, name + "-metrics.json")
    trace_out = os.path.join(ctx.work, name + "-trace.json") if traced else None
    d, ready_s = start_daemon(ctx, name, metrics_out=metrics_out, trace_out=trace_out)
    try:
        rss0 = d.status_mb("VmRSS")
        rep, _, _ = ctx.probe("clients", "--socket", d.sock, "--seed", str(ctx.seed),
                              "--daemon-pid", str(d.proc.pid),
                              "--scale", repr(scale), "--cold", str(cold),
                              "--warm", str(warm_min), "--measure", str(measure),
                              "--seconds", repr(max(0.0, seconds)),
                              "--out-dir", os.path.join(ctx.work, name + "-oneshot"))
        rep["peak_rss_mb"] = d.status_mb("VmHWM")
        rep["rss_growth_mb"] = d.status_mb("VmRSS") - rss0
    finally:
        rc = d.stop()
    rep["ready_s"] = ready_s
    ctx.attempted += int(rep["attempted"])
    ctx.failed += int(rep["failed"])
    for why in rep["failures"]:
        log("serve: " + why)
    ctx.check(rc == 0, "daemon drain exit code %s" % rc)
    with open(metrics_out) as f:
        rep["metrics"] = json.load(f)
    # The daemon's profile bytes must equal the one-shot CLI profile.
    for i, (workload, seed) in enumerate(rep["one_shot"]):
        out = os.path.join(ctx.work, "oneshot-%d.sprf" % i)
        cmd = [ctx.tools["simprof"], "profile", workload, "--scale", repr(scale),
               "--seed", str(seed), "--out", out, "--checkpoint-stride", "0",
               "--no-manifest", "--log-level", "warn"]
        rc, _, _, _ = ctx.run_timed(cmd)
        daemon_copy = os.path.join(ctx.work, name + "-oneshot", "key%d.sprf" % i)
        ctx.check(rc == 0 and sha256_file(out) == sha256_file(daemon_copy),
                  "daemon profile bytes != one-shot profile for %s seed %d"
                  % (workload, seed))
    return rep


# -------------------------------------------------------------- workloads --

def golden():
    with open(os.path.join(BENCH_DIR, "golden_seed42.json")) as f:
        return json.load(f)


def golden_gate(ctx):
    """Untimed seed-42 check: all 12 scale-1 profiles and their Fig. 7
    sampling error against golden_seed42.json."""
    gold = golden()
    cache = os.path.join(ctx.work, "golden")
    rep, _, _ = ctx.probe("golden", "--dir", cache, "--seed", str(ctx.seed),
                          "--threads", str(min(4, os.cpu_count() or 1)))
    for cfg, digest in gold["profiles_sha256"].items():
        path = os.path.join(cache, "%s-Google-s1-seed%d-c4-g0-u1000000-v6.sprf"
                            % (cfg, ctx.seed))
        ctx.check(os.path.isfile(path) and sha256_file(path) == digest,
                  "profile %s != seed-42 table" % cfg)
    ctx.check(abs(rep["sampling_error_pct"] - gold["sampling_error_pct"]) < 1e-9,
              "sampling error %.12f != seed-42 table" % rep["sampling_error_pct"])


def cold_profile(ctx, seconds, trace):
    if trace:
        # Each config untraced, then traced: the overhead compares adjacent
        # passes, so drift over the run cancels. Tracing must not change the
        # profile.
        plain, traced = {}, {}
        for cfg in COLD_CONFIGS:
            plain[cfg] = cold_pass(ctx, cfg, 1.0)
            traced[cfg] = cold_pass(ctx, cfg, 1.0, traced=True)
            ctx.check(traced[cfg][2] == plain[cfg][2],
                      "traced cold profile %s differs from untraced" % cfg)
        base = sum(r[0] for r in plain.values())
        overhead = 100.0 * (sum(r[0] for r in traced.values()) - base) / base
        if ctx.seed == GOLDEN_SEED:
            golden_gate(ctx)
        return layer_report(ctx, 1.0, plain, overhead)

    # Set-up: confirm the tool is a Release build (9 probes, median CPU).
    setups = []
    for _ in range(9):
        rc, cpu, _, v = ctx.run_timed([ctx.tools["simprof"], "--version"])
        if rc != 0 or "(Release)" not in v:
            die("non-Release simprof")
        setups.append(cpu)

    # At least two rounds of 4 passes, then more while time remains (a round
    # may overrun the budget by half its length); total_s sums per-config
    # medians.
    gold = golden()["profiles_sha256"]
    first = {}
    cpus = {cfg: [] for cfg in COLD_CONFIGS}
    peak = 0.0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        res = cold_round(ctx, 1.0)
        for cfg, (cpu, rss, digest) in res.items():
            ctx.check(digest is not None, "cold profile %s exited non-zero" % cfg)
            ctx.check(first.setdefault(cfg, digest) == digest,
                      "cold profile %s differs between rounds" % cfg)
            if ctx.seed == GOLDEN_SEED:
                ctx.check(digest == gold[cfg], "cold profile %s != seed-42 table" % cfg)
            cpus[cfg].append(cpu)
            peak = max(peak, rss)
        now = time.perf_counter()
        if len(cpus["wc_sp"]) >= 2 and now - start + 0.5 * (now - r0) >= seconds:
            break
    medians = [1e3 * statistics.median(cs) for cs in cpus.values()]
    if ctx.seed == GOLDEN_SEED:
        golden_gate(ctx)
    return dict(kind_ms(medians), setup_s=statistics.median(setups),
                total_s=sum(medians) / 1e3, peak_rss_mb=peak)


def serve_mixed(ctx, seconds, trace):
    # Set-up: daemon CPU time until it accepts connections (9 starts,
    # median); the last one serves the traffic.
    setups = []
    for i in range(8):
        d, ready = start_daemon(ctx, "setup%d" % i)
        d.stop()
        setups.append(ready)
    if trace:
        # Untraced, traced, untraced again (half-length sessions): the
        # overhead compares the traced session with its neighbours' mean.
        sessions = [serve_session(ctx, "s%d" % i, SERVE_COLD, SERVE_WARM_MIN,
                                  SERVE_MEASURE, seconds / 2 - 1.0, SERVE_SCALE,
                                  traced=(i == 1))
                    for i in range(3)]
        p50 = [statistics.median(x["warm_ms"]) for x in sessions]
        base = (p50[0] + p50[2]) / 2
        return layer_report(ctx, LAYER_SCALE_SMALL, cold_round(ctx, LAYER_SCALE_SMALL),
                            100.0 * (p50[1] - base) / base, session=sessions[0])
    # The cold phase and the measure phase are fixed-size; warm traffic
    # fills the rest of the run.
    rep = serve_session(ctx, "main", SERVE_COLD, SERVE_WARM_MIN, SERVE_MEASURE,
                        seconds - 1.0, SERVE_SCALE)
    setups.append(rep["ready_s"])
    return dict(kind_ms(rep["warm_kind_ms"]), setup_s=statistics.median(setups),
                total_s=rep["daemon_cpu_s"][0], peak_rss_mb=rep["peak_rss_mb"])


def layer_report(ctx, scale, base_round, overhead_pct, session=None):
    """Per-layer table: the probe's spans, a per-config split of the cold
    pass, the daemon's service figures and the tracing overhead."""
    args = ["layers", "--dir", os.path.join(ctx.work, "layers"), "--seed", str(ctx.seed),
            "--scale", repr(scale), "--ckpt-scale", repr(SERVE_SCALE),
            "--threads", str(ANALYSIS_THREADS),
            "--trace-out", os.path.join(ctx.work, "layers.trace.json")]
    lay, _, _ = ctx.probe(*args)
    ctx.attempted += int(lay.pop("attempted"))
    ctx.failed += int(lay.pop("failed"))
    m = dict(lay)
    for cfg, (cpu, _, digest) in base_round.items():
        ctx.check(digest is not None, "cold profile %s exited non-zero" % cfg)
        p = "split.%s." % cfg
        m[p + "pass_s"] = cpu
        m[p + "other_s"] = cpu - sum(lay[p + k] for k in
                                      ("synth_s", "run_unprofiled_s", "hook_s", "save_s"))
    if session is None:
        session = serve_session(ctx, "mini", MINI_COLD, MINI_WARM_MIN, MINI_MEASURE,
                                0.0, SERVE_SCALE)
    q = session["metrics"].get("quantile_histograms", {}).get("svc.queue_wait_ms", {})
    m.update({
        "svc.queue_wait_ms": q.get("p50", 0.0),
        "svc.admission_level": session["admission_level"],
        "svc.rejected": session["rejected"],
        "svc.errors": session["errors"],
        "svc.rss_growth_mb": session["rss_growth_mb"],
        "svc.cold_request_p50_ms": statistics.median(session["cold_ms"]),
        "svc.warm_request_p50_ms": statistics.median(session["warm_ms"]),
        "svc.warm_request_p95_ms": percentile(session["warm_ms"], 95),
        "svc.measure_request_p50_ms": statistics.median(session["measure_ms"]),
        "obs.trace_overhead_pct": overhead_pct,
    })
    # Shares the ROADMAP cites: Zipf draws (one per corpus word), cache-model
    # and MAV-tracker touches of a wc_sp pass, and checkpoint recording in a
    # cold daemon request. Per-call costs come from the probe's isolated
    # timings, so each share is an estimate, not a measured self time.
    touches = m.pop("wc_sp.line_touches")
    wc_pass = m["split.wc_sp.pass_s"]
    m["share.wc_sp.zipf_pct"] = 100 * m["support.zipf_ns_per_draw"] * m["data.words"] / 1e9 / wc_pass
    m["share.wc_sp.cache_pct"] = 100 * m["hw.cache_ns_per_touch"] * touches / 1e9 / wc_pass
    m["share.wc_sp.mav_pct"] = 100 * m["hw.mav_ns_per_touch"] * touches / 1e9 / wc_pass
    m["share.cold_request.ckpt_record_pct"] = (
        100 * m["ckpt.record_s"] / (m["svc.cold_request_p50_ms"] / 1e3))
    m["failed_frac"] = ctx.failed / max(1, ctx.attempted)
    return m


WORKLOADS = {"cold_profile": cold_profile, "serve_mixed": serve_mixed}


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for n in sorted(files):
                h.update(n.encode())
                with open(os.path.join(d, n), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    tools = build()
    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (a.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(tools, work, a.seed)
    try:
        values = WORKLOADS[a.workload](ctx, a.seconds, a.trace)
    finally:
        for d in ctx.daemons:
            d.stop()
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("workload did not measure: " + ", ".join(missing))
    provenance = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "nproc": os.cpu_count(), "build_type": "Release",
        "git_sha": os.environ.get("SIMPROF_GIT_SHA", "unknown"),
        "source_digest": source_digest(),
        "scales": {"cold_profile": 1.0, "serve_mixed": SERVE_SCALE},
        "sample_seeds": "1000-1006", "analysis_threads": ANALYSIS_THREADS,
        "serve": "fixed admission, 2 tickets, request_threads 1, 2 clients",
        "reference": "no hardware reference data in the repository; accuracy "
                     "is measured against the oracle pass only",
    }
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
