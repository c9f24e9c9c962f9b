#!/usr/bin/env python3
"""Benchmark of qkoorn through its command-line entry point.

    python3 qkbench/run.py --workload poly-symbolic --seed 1 --seconds 36 --trace 0

One closed-loop client calls ``qkoorn.cli.main`` in-process, one request at
a time, each request writing its JSON with ``--out``.  A run repeats whole
rounds of its workload's requests for about ``--seconds`` seconds (another
round starts while its expected end lies nearer to ``--seconds`` than the
time already spent, and at least one round runs).  Each round begins with
a fresh import of the package, so its caches live for one round, and that
set-up is timed as ``setup_s``.  After measuring, every distinct output is
checked against textbook computations at random points the seed picks.
The last line of standard output is the JSON result.

``--trace 1`` alternates untraced rounds and traced rounds, with wrappers
around the public functions of every layer in the traced ones, and reports
per-layer metrics, the tracing overhead, and a span file under qkbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("poly-symbolic", "apply-bc3", "numeric-route")
EXTRA_SETUPS = 8     # set-ups before the first round; they count in setup_s


def _purge():
    for name in [m for m in sys.modules
                 if m == "qkoorn" or m.startswith("qkoorn.")]:
        del sys.modules[name]
    gc.collect()


def set_up(workload, workdir, tracer=None):
    """A fresh program instance and one round of requests; returns
    (main, requests, seconds spent)."""
    _purge()
    start = perf_counter()
    cli = importlib.import_module("qkoorn.cli")
    pkg = sys.modules["qkoorn"]
    if tracer is not None:
        tracer.install(pkg)
    if workload == "poly-symbolic":
        requests = wl.poly_round()
    elif workload == "apply-bc3":
        requests, files = wl.apply_round(workdir)
        for path, body in files.items():
            with open(path, "w") as fh:
                fh.write(body)
    else:
        requests = wl.numeric_round()
        wf = pkg.weightfn
        point = wf.NumericPoint(*wl.NUMERIC_POINT)
        for n, M in wl.numeric_weight_dims():
            wf.delta_truncate(wf.WeightFunctionSpec(n, M=M, point=point))
    return cli.main, requests, perf_counter() - start


def run_round(main, requests, workdir, tracer, first_index):
    """Send every request; returns (latencies, outputs, failed, bytes),
    with outputs {key: (meta, [each distinct text])}, so that the first and
    a repeated request's answers are both kept when they differ."""
    path = os.path.join(workdir, "out.json")
    latencies, outputs = [], {}
    failed = size = 0
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = first_index + i
        argv = req.argv + ["--out", path]
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - a failed request is counted
            traceback.print_exc()
            code = "exception"
        latencies.append(perf_counter() - start)
        if code != 0:
            print("request %s failed: %s" % (req.key, code), file=sys.stderr)
            failed += 1
            continue
        with open(path) as fh:
            text = fh.read()
        os.remove(path)
        size += len(text.encode())
        texts = outputs.setdefault(req.key, (req.meta, []))[1]
        if text not in texts:
            texts.append(text)
    if tracer is not None:
        tracer.request = None     # spans of the next set-up belong to none
    return latencies, outputs, failed, size


def check(workload, round_outputs, rng):
    """Check every distinct output; returns failure messages.
    ``round_outputs`` holds each distinct round's outputs from run_round."""
    if workload == "apply-bc3":
        # the commutation check reads one round's images together; each
        # (r, lam) is requested once per round, so each has one answer
        errors = []
        for outs in round_outputs:
            errors += wl.check_apply({key: (meta, text) for key, (meta, [text])
                                      in outs.items()}, rng)
        return errors
    merged, texts = {}, {}
    for outs in round_outputs:
        for key, (meta, variants) in outs.items():
            seen = texts.setdefault(key, [])
            for text in variants:
                if text in seen:
                    continue
                seen.append(text)
                label = key if len(seen) == 1 else key + ("#%d" % len(seen),)
                merged[label] = (meta, text)
    if workload == "poly-symbolic":
        return wl.check_poly(merged, rng)
    return wl.check_numeric(merged, rng)


def measure(workload, seed, seconds, trace):
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer() if trace else None
    setups, latencies, round_s, traced_s = [], [], [], []
    round_outputs, round_bytes = [], []
    attempted = failed = 0
    try:
        for _ in range(EXTRA_SETUPS):
            setups.append(set_up(workload, workdir)[2])
        while True:
            # with tracing on, untraced and traced rounds alternate, so each
            # traced round has an untraced one next to it to compare with
            traced = tracer is not None and len(traced_s) < len(round_s)
            main, requests, took = set_up(workload, workdir,
                                          tracer if traced else None)
            setups.append(took)
            start = perf_counter()
            lat, outs, bad, size = run_round(main, requests, workdir,
                                             tracer if traced else None,
                                             attempted)
            elapsed = perf_counter() - start
            (traced_s if traced else round_s).append(elapsed)
            latencies += lat
            attempted += len(requests)
            failed += bad
            # rounds repeat their outputs; keep one copy of each, so that
            # stored outputs do not grow the process with the round count
            if outs not in round_outputs:
                round_outputs.append(outs)
            round_bytes.append(size)
            done = sum(round_s) + sum(traced_s)
            if trace:
                if len(traced_s) < len(round_s):
                    continue          # finish the untraced/traced pair
                step = statistics.mean(round_s) + statistics.mean(traced_s)
            else:
                step = statistics.mean(round_s)
            # stop where the run ends nearest to --seconds: with 17 s rounds
            # a 36 s run otherwise held one round or two as the machine's
            # speed moved
            if done + step / 2 > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the seed picks the points the checks evaluate at
        rng = random.Random("%s:%d" % (workload, seed))
        errors = check(workload, round_outputs, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in errors:
        print("CHECK FAILED %s" % msg, file=sys.stderr)

    if trace:
        metrics = spans.layer_metrics(tracer, len(traced_s))
        metrics["trace.overhead"] = {
            "value": statistics.median(
                t / u for u, t in zip(round_s, traced_s)) - 1,
            "unit": "ratio"}
        span_path = os.path.join(OUT, "trace-%s-%d.jsonl" % (workload, seed))
        tracer.write(span_path)
        print("# spans: %d kept, %d dropped, written to %s"
              % (len(tracer.spans), tracer.dropped,
                 os.path.relpath(span_path, ROOT)))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_rps": {"value": attempted / sum(round_s),
                               "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies),
                              "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "output_bytes": {"value": statistics.median(round_bytes),
                             "unit": "bytes"},
        }
    print("# workload %s seed %d: %d requests, %d failed, %d set-ups; "
          "round seconds %s"
          % (workload, seed, attempted, failed, len(setups),
             " ".join("%.2f" % x for x in round_s + traced_s)))
    if not trace:
        print("# latency_p50_s is the median of %d samples%s"
              % (len(latencies), "" if len(latencies) >= 40 else
                 "; fewer than 40, so no tail percentile is given"))
        if len(latencies) >= 40:
            # the highest percentile with at least ten samples beyond it
            k = len(latencies) // 10
            print("# tail: p%.1f = %.6f s" % (
                100 * (k - 1) / k, statistics.quantiles(latencies, n=k)[-1]))
    for name, m in sorted(metrics.items()):
        print("# %-40s %.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qkoorn", "cli.py")):
        print("error: qkoorn sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
