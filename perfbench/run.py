#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a source tree.  It builds the toolchain and the
benchmark worker (perfbench/worker.ml) with dune, runs workload W for S
seconds, checks every output, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured with tracing off; with
--trace 1 they are the per-layer ones, from a traced run.  A line starting
with "# run" before it records the host, the code and the pinned settings.

Workloads (their reasons are in BENCHMARK.json):
  sat-outliers  factor at -O0/-O3/-OVERIFY, cksum at -O3/-OVERIFY (n=1)
  corpus-sweep  the other 45 corpus programs at -O0/-O3/-OVERIFY, n=2,
                each also run concretely on seeded inputs

Set-up (setup_s) is the worker's start until it is ready to measure: it
loads the expected facts and builds the concrete-run oracle, every
program compiled at -O0 and run on the seeded inputs; the median of 20
start-ups, half before the passes and half after them.  Each workload
then repeats passes over its cells in one worker process; time figures
are medians over passes, per cell, in reference seconds (ref_s): between
cells the worker times a fixed reference kernel that calls no toolchain
code, and each pass's times are scaled by REF_KERNEL_S over that pass's
median kernel time.  A shared host runs a process faster or slower by
up to a third for minutes at a time, the kernel with it; the scaled
figures keep what the program's own work costs.  The raw seconds and
the kernel's time are in the "# run" record.

The traced corpus-sweep run also replays the corpus through an `overify
serve` daemon (a fresh one, empty store), driven closed-loop over 2
connections by a seeded order of verify and compile requests, for the
serve and summary layers.  The exit code is 0 when every output check
passed, 1 when one failed, 2 on a usage or build error, a timeout or a
child that failed.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

WORKER = os.path.join("_build", "default", "perfbench", "worker.exe")
CLI = os.path.join("_build", "default", "bin", "overify_cli.exe")
WORK = os.path.join("perfbench", "_work")
WORKLOADS = ("sat-outliers", "corpus-sweep")
# set-up is timed in two groups of start-ups, before and after the passes,
# so that one slow second of the host does not set the median
SETUP_SPAWNS = 10
# every daemon knob an environment variable could otherwise set, spelled out
DAEMON_FLAGS = ["--log", "warn", "--recent-cap", "32", "--save-every", "32",
                "--grace", "2", "--idle-timeout", "600", "--frame-timeout", "30"]
CHILD_TIMEOUT = 170
# the reference kernel's (worker.ml, reference_kernel) usual time on the
# 2-core VM the benchmark was tuned on; a time in reference seconds is a
# time in seconds on a host that runs the kernel in REF_KERNEL_S
REF_KERNEL_S = 0.02


class BenchError(Exception):
    pass


def pinned_env():
    """The environment of every child: each OVERIFY_* knob set explicitly
    (OVERIFY_PASS_TIMES and OVERIFY_FAULTS act on any value, so they are
    removed), temporary files kept inside the tree."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OVERIFY_") and k != "OCAMLRUNPARAM"}
    env.update({
        "OVERIFY_SOLVER_CACHE": "1",
        "OVERIFY_SUMMARIES": "0",
        "OVERIFY_PARANOID": "0",
        "OVERIFY_OBS": "0",
        "OVERIFY_LOG": "warn",
        "TMPDIR": os.path.abspath(os.path.join(WORK, "tmp")),
        "DUNE_CACHE": "disabled",
    })
    return env


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise BenchError("run from the root of the source tree "
                         "(dune-project, lib/ and bin/ not found)")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         WORKER, CLI],
        env=pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=880)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout)


def run_child(args, env):
    """Run a child to its end, killed after CHILD_TIMEOUT; return its
    standard output."""
    proc = subprocess.run(args, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (args[:2], proc.returncode))
    return proc.stdout


def start_daemon(args, env):
    """Start the daemon; return it once it printed its "listening on" line,
    or kill it after CHILD_TIMEOUT."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("listening on"):
        proc.kill()
        proc.wait()
        raise BenchError("daemon did not start: %r" % line)
    return proc


def last_json(text, what):
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError(what + " printed nothing")
    return json.loads(lines[-1])


def p95(values):
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# ---------------------------------------------------------------- batch

def scale(p):
    """The factor that turns pass p's seconds into reference seconds:
    REF_KERNEL_S over the median of the pass's kernel runs, so that a pass
    the host ran slowly counts at the host's usual speed."""
    return REF_KERNEL_S / statistics.median(p["kernel_s"])


def cell_medians(passes, key, scaled=True):
    """Per cell, the median over passes of its time, in reference seconds
    if scaled.  One slow pass of a cell does not move the median."""
    return [statistics.median(c) for c in
            zip(*([v * (scale(p) if scaled else 1.0) for v in p[key]]
                  for p in passes))]


def run_batch(workload, seed, seconds, trace, mini):
    env = pinned_env()
    extra = ["--mini"] if mini else []
    def time_setups():
        times = []
        for _ in range(SETUP_SPAWNS):
            t0 = time.perf_counter()
            run_child([WORKER, "ready", "--workload", workload, "--seed",
                       str(seed)] + extra, env)
            times.append(time.perf_counter() - t0)
        return times

    setups = time_setups()
    raw = last_json(run_child(
        [WORKER, "batch", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"] + extra,
        env), "worker")
    setups += time_setups()
    passes = raw["untraced"]
    cell_ms = cell_medians(passes, "cell_ms")
    wall = sum(cell_ms) / 1000.0
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "compile_s": sum(cell_medians(passes, "cell_compile_s")),
        "verify_s": sum(cell_medians(passes, "cell_verify_s")),
        "p50_ms": statistics.median(cell_ms),
        "p95_ms": p95(cell_ms),
        "throughput_rps": len(cell_ms) / wall,
        "peak_rss_mb": raw["peak_rss_mb"],
        # the first pass's: what later passes allocate depends on what the
        # passes before them left in the process, and how many passes a
        # run holds depends on the host
        "alloc_mb": passes[0]["alloc_mb"],
        "code_size": raw["code_size"],
    }
    raw["raw_s"] = {
        "compile_s": sum(cell_medians(passes, "cell_compile_s", scaled=False)),
        "verify_s": sum(cell_medians(passes, "cell_verify_s", scaled=False)),
        "kernel_s": statistics.median(k for p in passes for k in p["kernel_s"]),
    }
    layers = {}
    if trace:
        traced = sorted(raw["traced"], key=lambda p: p["wall_s"])
        mid = traced[len(traced) // 2]
        layers = dict(mid["layers"])
        layers["interp.insts"] = raw["interp_insts"]
        layers["interp.cycles"] = raw["run_cycles"]
        layers["latency.samples"] = len(cell_ms)
        # in reference seconds, like wall_s: the traced passes run later
        # in the process than the untraced ones, at another host speed
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] * scale(p) for p in raw["traced"])
            - statistics.median(p["wall_s"] * scale(p) for p in passes))
        if workload == "corpus-sweep":
            served = serve_pass(seed, mini, env)
            layers.update(serve_layers(served))
            # the daemon's store hits are Engine.hits_store summed over its
            # verify runs
            layers["solver.hits_store"] += served["metrics"]["store_hits"]
            raw["replies"] = served["replies"]
            for k in ("attempted", "failed", "errors"):
                raw[k] += served[k]
    return raw, e2e, layers


# ---------------------------------------------------------------- serve

def serve_pass(seed, mini, env):
    """Replay the seeded serve trace against a fresh daemon with an empty
    store; return the serve worker's raw output."""
    sock = os.path.join(WORK, "serve.sock")
    args = [CLI, "serve", "--socket", sock,
            "--cache-dir", os.path.join(WORK, "store")] + DAEMON_FLAGS
    daemon = start_daemon(args, env)
    try:
        out = run_child([WORKER, "serve", "--socket", sock, "--seed",
                         str(seed)] + (["--mini"] if mini else []), env)
        # the worker's last request shut the daemon down
        daemon.wait(timeout=20)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
    return last_json(out, "serve worker")


def serve_layers(raw):
    """The serve and summary layers of one replay: sums over its requests
    from the response envelopes, and the daemon's own counters from its
    metrics op."""
    rs = raw["replies"]
    m = raw["metrics"]
    client = sum(r["client_ms"] for r in rs)
    daemon = sum(r["daemon_ms"] for r in rs)
    # a deduplicated reply repeats the engine time of the run it shares
    engine = sum(r["engine_ms"] for r in rs
                 if r["kind"] == "verify" and r["dedup"] == "miss")
    return {
        "summary.computed": m["summary_computed"],
        "summary.cached": m["summary_cached"],
        "summary.instantiated": m["summary_instantiated"],
        "summary.opaque": m["summary_opaque"],
        "serve.client_ms": client,
        "serve.daemon_ms": daemon,
        "serve.engine_ms": engine,
        "serve.transport_ms": client - daemon,
        "serve.daemon_other_ms": daemon - engine,
        "serve.executed": m["executed"],
        "serve.dedup_hits": m["dedup_hits"],
        "serve.store_hits": m["store_hits"],
        "serve.store_entries": m["store_entries"],
    }


# ---------------------------------------------------------------- command line

def load_spec():
    if not os.path.isfile("BENCHMARK.json"):
        raise BenchError("BENCHMARK.json not found: run from the tree's root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def source_digest():
    """Digest of the sources the benchmark builds, for a tree without git."""
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith(("_", ".")))
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    # only this tree's own repository, never one it happens to sit in
    if not os.path.exists(".git"):
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "none"
    except OSError:
        return "none"


def measure(workload, seed, seconds, trace, mini=False):
    """Run one workload; return (raw worker output, end-to-end metrics,
    per-layer metrics, run record)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "tmp"))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "nproc": os.cpu_count(),
              "git_rev": git_rev(), "source_digest": source_digest(),
              "loadavg_start": os.getloadavg(),
              "env": {k: v for k, v in sorted(pinned_env().items())
                      if k.startswith("OVERIFY_")},
              "daemon_flags": " ".join(DAEMON_FLAGS)}
    try:
        raw, e2e, layers = run_batch(workload, seed, seconds, trace, mini)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    record["raw_s"] = raw["raw_s"]
    record["ocaml"] = raw["ocaml"]
    record["settings"] = raw["settings"]
    record["loadavg_end"] = os.getloadavg()
    return raw, e2e, layers, record


def result_line(raw, e2e, layers, trace, units):
    e2e_units, layer_units = units
    if trace:
        values = {k: layers.get(k, 0) for k in layer_units}
        unit_of = layer_units
    else:
        values = e2e
        unit_of = e2e_units
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": values[k], "unit": unit_of[k]}
                    for k in unit_of},
    }


def self_test(units):
    """Miniature runs of every workload: every metric printed with its
    unit, deterministic counts repeatable, layer identities exact."""
    e2e_units, layer_units = units
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        runs = [measure(w, 1, 1, trace, mini=True)
                for trace in (False, False, True, True)]
        lines = [result_line(r[0], r[1], r[2], i >= 2, units)
                 for i, r in enumerate(runs)]
        for i, line in enumerate(lines):
            want = layer_units if i >= 2 else e2e_units
            expect(line["correct"], "%s: run %d failed a check: %s"
                   % (w, i, runs[i][0]["errors"][:3]))
            expect(list(line["metrics"]) == list(want),
                   "%s: run %d printed other metrics" % (w, i))
            expect(all(m["unit"] == want[k]
                       for k, m in line["metrics"].items()),
                   "%s: run %d: wrong units" % (w, i))
            expect(all(isinstance(m["value"], (int, float))
                       for m in line["metrics"].values()),
                   "%s: run %d: non-numeric value" % (w, i))
        t1, t2 = runs[2][2], runs[3][2]
        counts = [p["counts"] for r in runs
                  for p in r[0]["untraced"] + r[0]["traced"]]
        for k in ("symex.paths", "solver.queries", "solver.solves"):
            expect(len({c[k] for c in counts}) == 1,
                   "%s: %s differs between passes/runs" % (w, k))
        expect(runs[0][1]["alloc_mb"] == runs[1][1]["alloc_mb"],
               "%s: alloc_mb differs between runs (%r, %r)"
               % (w, runs[0][1]["alloc_mb"], runs[1][1]["alloc_mb"]))
        pass_ms = sum(v for k, v in t1.items()
                      if k.startswith("opt.") and k.endswith(".ms")
                      and k != "opt.ms")
        expect(pass_ms <= t1["opt.ms"],
               "%s: sum of opt.<pass>.ms exceeds opt.ms" % w)
        if w == "corpus-sweep":
            # transport_ms >= 0 on every reply
            expect(all(r["daemon_ms"] <= r["client_ms"]
                       for r in runs[2][0]["replies"]),
                   "%s: a reply's daemon time exceeds its client time" % w)
            expect(t1["serve.dedup_hits"] > 0 and t1["summary.computed"] > 0,
                   "%s: the daemon replay exercised no dedup or summaries"
                   % w)
        det = ["symex.paths", "solver.queries", "solver.solves"] + [
            k for k in layer_units
            if k.startswith("opt.") and k.endswith(".apps")]
        for k in det:
            expect(t1.get(k, 0) == t2.get(k, 0),
                   "%s: %s differs between traced runs" % (w, k))
        # symex.other_ms >= 0
        expect(t1["solver.blast_sat_ms"] <= t1["symex.ms"],
               "%s: solver.blast_sat_ms exceeds symex.ms" % w)
        print("self-test %-13s %s" % (w, "ok" if not problems else "FAILED"),
              flush=True)
    for p in problems:
        print("  " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        units = load_spec()
        build()
        if args.self_test:
            return self_test(units)
        raw, e2e, layers, record = measure(
            args.workload, args.seed, args.seconds, args.trace == 1)
    except (BenchError, subprocess.SubprocessError, OSError,
            KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    for err in raw["errors"][:20]:
        print("check failed: " + err, file=sys.stderr)
    line = result_line(raw, e2e, layers, args.trace == 1, units)
    print("# run " + json.dumps(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
