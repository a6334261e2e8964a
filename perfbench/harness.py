"""Set-up, timed rounds, checks and metrics of one workload in one process."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
# Seconds the reference computation takes at the speed every timing is
# reported at; its median on the 2-vCPU machine of the README's figures.
REFERENCE_S = 0.7e-3
REFERENCE_REPEATS = 5


def tail_percentile(n):
    """Highest whole percentile with at least ten of ``n`` ops beyond it;
    None below forty ops, where that percentile would be no tail."""
    if n < 40:
        return None
    return math.floor(100.0 * (1.0 - 10.0 / n) + 1e-9)


def reference():
    """A fixed computation apart from the program, in the style of its
    quadrature: 48-node numpy panels and scalar Python arithmetic.  Its
    time says how fast the machine runs at the moment; returns seconds."""
    t = time.perf_counter()
    x = np.linspace(0.1, 1.0, 48)
    s = 0.0
    for k in range(40):
        s += float((np.exp(-x * (1.0 + 0.01 * k)) * x ** 1.5) @ x)
        for j in range(50):
            s += math.sqrt(j + k) * 1e-9
    return time.perf_counter() - t


def reference_now():
    """Median of a few reference times, taken at once."""
    return statistics.median(reference() for _ in range(REFERENCE_REPEATS))


def calibrated_ms(latencies, references):
    """Op latencies in ms at the reference speed.

    ``references`` has one more column than ``latencies``: the reference
    was timed before the first op of a round and after every op.  The
    load of other tenants on a shared host slows the machine by up to 2x
    for seconds to minutes at a time, and slows the reference with the
    ops; each op is scaled by the mean of the two reference times around
    it, the speed of the machine while it ran, so the figures measure the
    program rather than the host's load at the time.
    """
    lat = np.asarray(latencies, dtype=float)
    ref = np.asarray(references, dtype=float)
    local = 0.5 * (ref[:, :-1] + ref[:, 1:])
    return lat * (REFERENCE_S / local) * 1e3


def run_op(workload, op):
    """(output, error text); an op that raises is a failed op."""
    try:
        return workload.run(op), None
    except Exception as exc:  # the round goes on; the op counts as failed
        return None, "%s: %s" % (type(exc).__name__, exc)


def setup(name, seed, workdir):
    """Input generation and one warm-up op of each kind."""
    workload = workloads.WORKLOADS[name]()
    ops = workload.build(seed, workdir)
    kinds = set()
    for op in ops:
        if op.kind not in kinds:
            kinds.add(op.kind)
            run_op(workload, op)
    return workload, ops


def timed_rounds(workload, ops, seconds, tracer=None):
    """Whole rounds of the op list while one more round, at the mean round
    time so far, still ends within ``seconds`` (always at least one round).

    Outputs are checked between rounds, outside the timed time and with
    tracing off, so a run holds one round of outputs at a time and its
    memory does not grow with the number of rounds.  Returns (latencies,
    a row of seconds per op for each round; references, a row per round of
    the reference times before the first op and after each op; failed;
    unexpected failures; rounds).
    """
    latencies, references, failed, unexpected = [], [], 0, []
    rounds, timed = 0, 0.0
    while rounds == 0 or timed + timed / rounds <= seconds:
        results, row, refs = [], [], []
        uninstall = tracing.install(tracer) if tracer is not None else None
        try:
            start = time.perf_counter()
            refs.append(reference())
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.current_op = i
                t = time.perf_counter()
                out, err = run_op(workload, op)
                row.append(time.perf_counter() - t)
                refs.append(reference())
                results.append((op, out, err))
            timed += time.perf_counter() - start
        finally:
            if uninstall is not None:
                uninstall()
        latencies.append(row)
        references.append(refs)
        rounds += 1
        round_failed, round_unexpected = count_failures(workload, results)
        failed += round_failed
        unexpected += round_unexpected
    return latencies, references, failed, unexpected, rounds


def latency_metrics(ms):
    """(ops_per_s, op_p50_ms, op_tail_ms, index of the tail op) from the
    rounds x ops matrix of latencies in ms.

    Each op's latency is its median over the run's rounds, so from three
    rounds on a burst of load that slows one round moves none of the
    three figures.  ``ops_per_s`` is the op list over the sum of those
    medians, ``op_p50_ms`` their median, and ``op_tail_ms`` their tail
    percentile; under forty ops it is the slowest op.
    """
    per_op = np.median(np.asarray(ms, dtype=float), axis=0)
    pct = tail_percentile(len(per_op))
    tail = float(np.percentile(per_op, pct)) if pct is not None else float(np.max(per_op))
    tail_op = int(np.argmin(np.abs(per_op - tail)))
    return 1e3 * len(per_op) / float(np.sum(per_op)), float(np.median(per_op)), tail, tail_op


def count_failures(workload, results):
    """(failed attempts, reasons of failures outside the expected slice)."""
    failed, unexpected = 0, []
    for op, out, err in results:
        reason = err if err is not None else workload.check(op, out)
        if reason is not None:
            failed += 1
            if not op.expect_fail:
                unexpected.append("%s: %s" % (op.label, reason))
    return failed, unexpected


def setup_samples(argv_base, count):
    """(set-up seconds, reference seconds right after) measured in
    ``count`` fresh interpreters, since a module is imported only once per
    process."""
    out = []
    for k in range(count):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + argv_base
                              + ["--setup-only", str(k)],
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError("set-up sample failed: %s" % proc.stderr.strip()[-500:])
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((sample["setup_s"], sample["reference_s"]))
    return out


def workdir_for(name, seed, tag):
    path = os.path.join(OUT, "work-%s-%d-%s-%d" % (name, seed, tag, os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def measure(args, t_import, blas_threads):
    """Run one workload; returns the result object printed as the last line."""
    workdir = workdir_for(args.workload, args.seed, "run")
    try:
        workload, ops = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t_import
        setup_ref = reference_now()
        tracer = tracing.Tracer() if args.trace else None
        latencies, references, failed, unexpected, rounds = timed_rounds(
            workload, ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = unexpected + workload.final_checks(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = rounds * len(ops)
    ops_per_s, p50_ms, tail_ms, tail_op = latency_metrics(calibrated_ms(latencies, references))
    raw = latency_metrics(np.asarray(latencies) * 1e3)
    pct = tail_percentile(len(ops))
    print("workload %s  seed %d  BLAS threads %s  rounds %d  ops/round %d  attempted %d  failed %d"
          % (args.workload, args.seed, blas_threads, rounds, len(ops), attempted, failed))
    print("op_tail_ms is %s of the per-op medians: %s"
          % ("p%d" % pct if pct is not None else "the slowest (under 40 ops)", ops[tail_op].label))
    print("as timed, before scaling to the reference speed: ops_per_s %.4g  op_p50_ms %.4g  "
          "op_tail_ms %.4g  (median reference %.4g ms, %.4g ms at the reference speed)"
          % (raw[0], raw[1], raw[2], 1e3 * float(np.median(references)), 1e3 * REFERENCE_S))
    for text in problems:
        print("CHECK FAILED %s" % text)

    if args.trace:
        metrics, counts = tracing.layer_metrics(tracer, rounds)
        metrics["trace.ops_per_s"] = ("1/s", ops_per_s)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, "trace-%s-%d.npz" % (args.workload, args.seed)))
    else:
        samples = [(setup_s, setup_ref)] + setup_samples(
            ["--workload", args.workload, "--seed", str(args.seed)], SETUP_SAMPLES - 1)
        print("setup samples (s, as timed / reference ms): %s"
              % ", ".join("%.4f / %.4f" % (t, 1e3 * r) for t, r in samples))
        metrics = {
            "ops_per_s": ("1/s", ops_per_s),
            "op_p50_ms": ("ms", p50_ms),
            "op_tail_ms": ("ms", tail_ms),
            "setup_s": ("s", statistics.median(t * REFERENCE_S / r for t, r in samples)),
            "peak_rss_mb": ("MiB", peak_rss_mb),
        }
    for key, (unit, value) in metrics.items():
        print("%-32s %14.6g %s" % (key, value, unit))
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}}


def setup_only(args, t_import):
    workdir = workdir_for(args.workload, args.seed, "setup%d" % args.setup_only)
    try:
        setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t_import
        return {"setup_s": setup_s, "reference_s": reference_now()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
