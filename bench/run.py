"""degenkit benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload p1_grid --seed 1 --seconds 40 --trace 0

Runs passes of one workload back to back, each in a fresh interpreter
(``child.py``) so every pass starts from cold caches: at least two, and
more while the next is expected to end within ``--seconds``.  Set-up is
timed in every pass and in set-up-only processes spread over the run.
Times are bounded in host-probe units (``hostprobe.py``), set-up in seconds
scaled to a reference host speed, and all are also printed in seconds.  Prints
each metric with its unit, writes a run record under ``.bench_out/`` and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics of the
traced pass, the request CPU times of the untraced one, and the tracing
overhead.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("p1_grid", "random_suite", "cli_files")
SETUP_ONLY_SPAWNS = 3  # set-up-only processes before each pass and after the last
MIN_PASSES = 2
RUN_TIMEOUT_S = 170  # every child process is stopped by then

# Request CPU times that are zero on some workload, so they are reported
# beside the layer metrics (from the traced run's untraced pass), not as
# bounded end-to-end metrics.
REQUEST_CPU = ("keys_cpu_s", "splittings_cpu_s", "oracle_cpu_s")
# Printed and recorded, not bounded: on a shared host these moved by up to
# 1.7x between runs of the same code (see hostprobe.py).  The bounded
# metrics are the same times in host-probe units.
RAW_TIMES = ("wall_s", "cpu_s", "evaluate_cpu_s")


class BenchError(Exception):
    pass


def spawn(workload, seed, mode, trace, workdir, deadline, spans=None):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s process timed out" % (workload, mode))
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError("%s %s process exited %d: %s"
                         % (workload, mode, proc.returncode, proc.stderr.strip()[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("t_ready") - started
    out["process_s"] = ended - started
    return out


def host_sample():
    """Cumulative iowait and steal seconds from /proc/stat, and load average."""
    sample = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        ticks = os.sysconf("SC_CLK_TCK")
        sample["iowait_s"] = int(fields[5]) / ticks
        sample["steal_s"] = int(fields[8]) / ticks
    except (OSError, IndexError, ValueError):
        sample["iowait_s"] = sample["steal_s"] = None
    return sample


def host_delta(before, after):
    out = {"loadavg_start": before["loadavg"], "loadavg_end": after["loadavg"]}
    for key in ("iowait_s", "steal_s"):
        out[key] = (None if before[key] is None or after[key] is None
                    else after[key] - before[key])
    return out


def run_pass(workload, seed, trace, workdir, deadline, spans=None):
    before = host_sample()
    result = spawn(workload, seed, "pass", trace, workdir, deadline, spans)
    result["host"] = host_delta(before, host_sample())
    result["traced"] = bool(trace)
    return result


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def answers_digest(ops):
    text = "".join("%s\t%s\n" % (op["name"], op["answer"])
                   for op in sorted(ops, key=lambda op: op["name"]))
    return hashlib.sha256(text.encode()).hexdigest()


def check_passes(passes):
    """Mark ops failed whose answer differs from the first pass; return the
    failure list and each pass's answer digest."""
    reference = {op["name"]: op["answer"] for op in passes[0]["ops"]}
    failures = []
    for k, p in enumerate(passes):
        for op in p["ops"]:
            if op["error"] is None and op["answer"] != reference.get(op["name"]):
                op["error"] = "answer differs from the first pass"
            if op["error"] is not None:
                failures.append({"pass": k, "op": op["name"], "error": op["error"]})
        p["digest"] = answers_digest(p["ops"])
    return failures


def pass_totals(p):
    ops = p["ops"]
    out = {
        "wall_s": sum(op["wall"] for op in ops),
        "cpu_s": sum(op["cpu"] for op in ops),
        "peak_rss_mb": p["peak_rss_mb"],
    }
    for op in ops:
        for category, cpu in op["parts"].items():
            out[category + "_cpu_s"] = out.get(category + "_cpu_s", 0.0) + cpu
    if "probe_s" in ops[0]:
        out["wall_norm"] = sum(op["wall"] / op["probe_s"] for op in ops)
        out["cpu_norm"] = sum(op["cpu"] / op["probe_s"] for op in ops)
        out["evaluate_cpu_norm"] = sum(op["parts"]["evaluate"] / op["probe_s"] for op in ops)
    return out


def end_to_end(passes, setups):
    """Bounded metrics (medians over passes; op latencies pooled over the
    run) and the raw times printed beside them."""
    totals = [pass_totals(p) for p in passes]
    ops = [op for p in passes for op in p["ops"]]

    def median(name):
        return statistics.median(t[name] for t in totals)

    metrics = {
        "setup_s": statistics.median(hostprobe.scale_setup(s, probe) for s, probe in setups),
        "wall_norm": median("wall_norm"),
        "cpu_norm": median("cpu_norm"),
        "op_p50_norm": statistics.median(op["wall"] / op["probe_s"] for op in ops),
        "evaluate_cpu_norm": median("evaluate_cpu_norm"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    latencies = sorted(op["wall"] * 1000.0 for op in ops)
    extra = {name: median(name) for name in RAW_TIMES + REQUEST_CPU}
    extra["setup_raw_s"] = statistics.median(s for s, _ in setups)
    extra["op_p50_ms"] = statistics.median(latencies)
    # a percentile is reported only with at least ten samples above it
    if len(latencies) >= 100:
        extra["op_p90_ms"] = statistics.quantiles(latencies, n=10)[-1]
    extra["op_samples"] = len(latencies)
    extra["probe_mean_ms"] = statistics.mean(ms for p in passes for ms in p["probe_ms"])
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "degenkit" / "__init__.py").is_file():
        print("bench: %s holds no src/degenkit; nothing to measure" % ROOT, file=sys.stderr)
        return 2
    budget = os.environ.get("DEGENKIT_BUDGET")
    if budget is not None:
        print("warning: DEGENKIT_BUDGET=%s is set; a budget error counts as a failed op"
              % budget)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work" / ("%s-%d" % (args.workload, os.getpid()))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = OUT / ("spans-%s.jsonl" % tag)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []  # (set-up seconds, probe reading right after set-up)

    def time_setups():
        for _ in range(SETUP_ONLY_SPAWNS):
            out = spawn(args.workload, args.seed, "setup", 0, workdir, deadline)
            setups.append((out["setup_s"], out["setup_probe_s"]))

    try:
        passes = []
        started = time.monotonic()
        # At least two passes, so that their answers can be compared; then
        # another only while it is expected to end within --seconds.
        while len(passes) < (1 if args.trace else MIN_PASSES) or (
            not args.trace
            and (time.monotonic() - started) * (len(passes) + 1) / len(passes) <= args.seconds
        ):
            time_setups()
            passes.append(run_pass(args.workload, args.seed, 0, workdir, deadline))
        time_setups()
        if args.trace:
            passes.append(run_pass(args.workload, args.seed, 1, workdir, deadline, spans_path))
    except BenchError as err:
        print("bench: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = check_passes(passes)
    untraced = [p for p in passes if not p["traced"]]
    setups += [(p["setup_s"], p["setup_probe_s"]) for p in passes]
    metrics, extra = end_to_end(untraced, setups)
    report = dict(metrics, **extra)
    reported = metrics
    if args.trace:
        traced = passes[-1]
        reported = dict(traced["layers"])
        reported["trace.overhead_s"] = pass_totals(traced)["wall_s"] - extra["wall_s"]
        reported.update({name: extra[name] for name in REQUEST_CPU})
        report.update(reported)
    attempted = sum(len(p["ops"]) for p in passes)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "DEGENKIT_BUDGET": budget if budget is not None else "unset",
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:50],
        "answers_sha256": passes[0]["digest"],
        "setup_s_samples": [s for s, _ in setups],
        "setup_probe_s_samples": [probe for _, probe in setups],
        "passes": [
            dict({k: p[k] for k in ("traced", "setup_s", "setup_probe_s", "process_s", "host",
                                    "digest")},
                 **pass_totals(p),
                 probe_ms=summary(p.get("probe_ms")),
                 op_walls=[op["wall"] for op in p["ops"]],
                 op_probe_s=[op.get("probe_s") for op in p["ops"]])
            for p in passes
        ],
        "metrics": report,
    }
    if args.trace:
        record["spans_file"] = spans_path.name
        record["traced_spans"] = passes[-1]["spans"]
        record["traced_op_counts"] = {op["name"]: op["counts"] for op in passes[-1]["ops"]}
    (OUT / ("run-%s.json" % tag)).write_text(json.dumps(record, indent=2) + "\n")

    for name, value in report.items():
        print("%-30s %14.6f %s" % (name, value, unit_of(name)))
    print("%-30s %14.6f %s" % ("fail_frac", record["fail_frac"], "ratio"))
    print("answers_sha256 %s  (%d passes, %d ops)" % (record["answers_sha256"],
                                                     len(passes), attempted))
    for f in failures[:10]:
        print("FAILED pass %(pass)d %(op)s: %(error)s" % f)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in reported.items()},
    }))
    return 0


def summary(values):
    if not values:
        return None
    return {"n": len(values), "mean": statistics.mean(values), "min": min(values),
            "max": max(values)}


def unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_norm", "probe"),
                         ("key_reuse", "ratio"), ("bytes_out", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
