#!/usr/bin/env python3
"""Sweep `simprof serve --tickets` under cold, warm and mixed loadgen traffic.

usage: tools/admission_sweep.py SIMPROF [--sessions N] [--levels 1-8]
                                [--clients C] [--requests R] [--json FILE]

Each session starts one fresh daemon per candidate: the default server (no
--tickets flag) and every fixed ticket count in --levels. The order rotates
by one candidate per session, so drift in host speed favours none of them,
and one unmeasured session of the default server runs first.
Every daemon gets its own empty cache and serves C clients x R requests
(default 4 x 16) three times, with scale 0.1 and a distinct seed per
request:

  cold   wc_sp/cc_sp/sort_hp in turn: C x R oracle passes;
  warm   the same requests again, WARM_PASSES times over, all from the
         cache (one pass lasts only a fraction of a second);
  mixed  the same seeds over the workload cycle MIXED_WORKLOADS, whose even
         entries match the cold run's workload for that request and whose
         odd entries do not: every client alternates a cached request with
         a new oracle pass.

Checkpoint recording is off (--checkpoint-stride 0) for every candidate, so
the sweep times admission and the oracle pass, not archive writes. The
script prints, per mix, the median QPS over sessions of each candidate and
the default's share of the best fixed count's.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

COLD_WORKLOADS = "wc_sp,cc_sp,sort_hp"
MIXED_WORKLOADS = "wc_sp,sort_hp,sort_hp,cc_sp,cc_sp,wc_sp"
WARM_PASSES = 30
MIXES = ("cold", "warm", "mixed")


def loadgen(args, sock, workloads, seed, out):
    subprocess.run([args.simprof, "loadgen", "--socket", sock,
                    "--clients", str(args.clients),
                    "--requests", str(args.requests),
                    "--workloads", workloads, "--scale", "0.1",
                    "--vary-seed", "--seed", str(seed), "--json", out,
                    "--no-manifest", "--log-level", "warn"],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        r = json.load(f)
    if r["errors"] or r["rejected"] or \
            r["completed"] != args.clients * args.requests:
        sys.exit("admission_sweep: unexpected loadgen result %r" % r)
    return r


def serve_session(args, tickets, work, seed):
    """One daemon, three mixes; returns {mix: {"qps", "p50_ms"}}."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sock = os.path.join(work, "sock")
    cmd = [args.simprof, "serve", "--socket", sock, "--checkpoint-stride",
           "0", "--no-manifest", "--log-level", "warn"]
    if tickets is not None:
        cmd += ["--tickets", str(tickets)]
    env = dict(os.environ, SIMPROF_CACHE_DIR=os.path.join(work, "cache"))
    daemon = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        for _ in range(300):
            if os.path.exists(sock) or daemon.poll() is not None:
                break
            time.sleep(0.05)
        if not os.path.exists(sock):
            sys.exit("admission_sweep: daemon did not start: %s" % cmd)
        out = os.path.join(work, "lg.json")
        cold = loadgen(args, sock, COLD_WORKLOADS, seed, out)
        warm = [loadgen(args, sock, COLD_WORKLOADS, seed, out)
                for _ in range(WARM_PASSES)]
        mixed = loadgen(args, sock, MIXED_WORKLOADS, seed, out)
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)
        shutil.rmtree(work, ignore_errors=True)
    return {
        "cold": {"qps": cold["qps"], "p50_ms": cold["p50_ms"]},
        "warm": {"qps": sum(r["completed"] for r in warm) /
                        sum(r["elapsed_sec"] for r in warm),
                 "p50_ms": statistics.median(r["p50_ms"] for r in warm)},
        "mixed": {"qps": mixed["qps"], "p50_ms": mixed["p50_ms"]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("simprof")
    ap.add_argument("--sessions", type=int, default=5)
    ap.add_argument("--levels", default="1-8")
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--requests", type=int, default=16)
    ap.add_argument("--json")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.levels.split("-"))
    candidates = [None] + list(range(lo, hi + 1))  # None: the default server
    names = ["default"] + ["fixed-%d" % t for t in candidates[1:]]
    runs = {name: {mix: [] for mix in MIXES} for name in names}
    work = tempfile.mkdtemp(prefix="admission_sweep_")
    try:
        # Unmeasured: the first daemon after an idle spell runs slow.
        serve_session(args, None, os.path.join(work, "d"), 1)
        for s in range(args.sessions):
            for k in range(len(candidates)):
                i = (k + s) % len(candidates)
                res = serve_session(args, candidates[i],
                                    os.path.join(work, "d"), 1000 * (s + 1))
                for mix in MIXES:
                    runs[names[i]][mix].append(res[mix])
                print("session %d %-8s " % (s + 1, names[i]) +
                      "  ".join("%s %.2f qps" % (m, res[m]["qps"])
                                for m in MIXES), file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(name, mix, key="qps"):
        return statistics.median(r[key] for r in runs[name][mix])

    summary = {"host_cores": os.cpu_count(), "sessions": args.sessions,
               "clients": args.clients, "requests": args.requests}
    print("host cores: %d, sessions: %d, %d clients x %d requests" %
          (os.cpu_count(), args.sessions, args.clients, args.requests))
    for mix in MIXES:
        best = max(names[1:], key=lambda n: median(n, mix))
        share = median("default", mix) / median(best, mix)
        summary[mix] = {"median_qps": {n: median(n, mix) for n in names},
                        "median_p50_ms": {n: median(n, mix, "p50_ms")
                                          for n in names},
                        "best_fixed": best, "default_share": share}
        print("%-5s " % mix + " ".join("%s=%.2f" % (n, median(n, mix))
                                       for n in names) +
              "  best %s, default/best %.3f" % (best, share))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"summary": summary, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
