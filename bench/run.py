#!/usr/bin/env python3
"""quadalg benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload ff_spectrum --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; quadalg is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ones; see
``bench/README.md`` for what each one means.  Results and trace dumps are
also written under ``bench/out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One thread of work on a 2-core machine.  numpy's OpenBLAS would otherwise
# start a second thread; with it, the Newton searches of real_search ran
# 12-16% slower on the 2-core machine of the reference figures.  Set before
# numpy is first imported; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 7  # fresh processes whose set-up time is measured
CHILD_REPEATS = 5  # fresh interpreters timed for cli.import_ms / cli.python_start_ms
MICRO_OPS = 20000  # F_625 operations per micro-benchmark repeat
READY = "setup-done"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_program():
    """Import quadalg from this checkout's src/, or stop the run."""
    if not os.path.isfile(os.path.join(SRC, "quadalg", "__init__.py")):
        sys.exit(f"error: no quadalg sources under {SRC}; run from a quadalg checkout")
    sys.path.insert(0, SRC)
    import quadalg

    if os.path.dirname(os.path.dirname(os.path.abspath(quadalg.__file__))) != SRC:
        sys.exit(f"error: imported quadalg from {quadalg.__file__}, not from {SRC}")


def make_workload(args, probe=False):
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}{'-probe' if probe else ''}")
    if cls is workloads.CliProcess:
        return cls(args.seed, workdir, SRC)
    return cls(args.seed, workdir)


def set_up(wl):
    wl.prepare()
    wl.warm_up()


def probe_setup(args):
    """Seconds from spawning a fresh benchmark process to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != READY:
        sys.exit("error: set-up probe failed")
    return t1 - t0


def run_round(wl, r, in_process=False):
    """Answer every item of round `r`, in order.

    Returns (per-item records, elapsed seconds); a record is
    (item, wall seconds, result or None when the operation failed, error text).
    """
    records = []
    clock = time.perf_counter
    start = clock()
    for item in wl.round(r):
        t0 = clock()
        try:
            result, err = wl.run(item, in_process=in_process), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
        records.append((item, clock() - t0, result, err))
    return records, clock() - start


def check_records(wl, records):
    errors = []
    for item, _, result, err in records:
        if err is None:
            errors.extend(wl.check(item, result))
    return errors


def summarize(records):
    failed = sorted({f"{item.label}: {err}" for item, _, _, err in records if err is not None})
    return len(records), sum(1 for r in records if r[3] is not None), failed


def end_to_end(args, wl):
    """End-to-end metrics: whole rounds until `seconds` of them have run.

    One set-up probe runs after each round (outside the timed rounds), so the
    probes sample the machine across the whole run rather than in one burst.
    """
    set_up(wl)
    records, elapsed, setups = [], 0.0, []
    r = 0
    while r == 0 or elapsed < args.seconds:
        recs, dt = run_round(wl, r)
        records += recs
        elapsed += dt
        r += 1
        if len(setups) < SETUP_PROBES:
            setups.append(probe_setup(args))
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args))
    if args.workload == "cli_process":
        peak_kb = max(wl.child_rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times_ms = [t * 1e3 for _, t, _, _ in records]
    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(records) / elapsed, "1/s"),
        "item_p50_ms": (statistics.median(times_ms), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    print(f"{args.workload}: {len(records)} items in {elapsed:.2f} s, set-up {setup_s:.3f} s "
          f"(median of {len(setups)})")
    return records, metrics


def traced(args, wl):
    """Per-layer metrics: spans from alternating traced and untraced passes
    over the same rounds, then call counts from one more pass over round 0."""
    import layers
    import tracing

    tracer = tracing.Tracer()
    tracer.install("setup")
    set_up(wl)
    tracer.uninstall()
    # the CLI's layers can only be wrapped inside this process
    in_process = args.workload == "cli_process"

    plain, spanned = [], []
    plain_s = spanned_s = 0.0
    r = 0
    while r == 0 or plain_s + spanned_s < args.seconds:
        # alternate which pass goes first, so drift and warm caches favour neither
        for with_spans in ((False, True) if r % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install("items")
            recs, dt = run_round(wl, r, in_process)
            if with_spans:
                tracer.uninstall()
                spanned += recs
                spanned_s += dt
            else:
                plain += recs
                plain_s += dt
        r += 1
    counters = tracing.Counters()
    counters.install()
    counted, _ = run_round(wl, 0, in_process)
    counters.uninstall()

    metrics = layers.per_layer(tracer, counters, len(spanned), len(counted), SRC,
                               CHILD_REPEATS, MICRO_OPS, args.seed)
    metrics["trace.overhead_pct"] = ((spanned_s / plain_s - 1.0) * 100.0, "%")
    for line in layers.breakdown(tracer):
        print(line)
    print(f"{args.workload}: {len(spanned)} traced items in {spanned_s:.3f} s "
          f"against {plain_s:.3f} s untraced")
    dump = {"workload": args.workload, "seed": args.seed, "spans": tracer.dump(),
            "counts": counters.counts}
    write_json(f"trace-{args.workload}-{args.seed}.json", dump)
    return plain + spanned + counted, metrics


def write_json(name, obj):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 0:
        sys.exit("error: --seconds must be >= 0")
    load_program()
    wl = make_workload(args, probe=args.setup_probe)
    if args.setup_probe:
        try:
            set_up(wl)
            print(READY, flush=True)
        finally:
            shutil.rmtree(wl.workdir, ignore_errors=True)
        return 0
    try:
        records, metrics = (traced if args.trace else end_to_end)(args, wl)
        errors = check_records(wl, records)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    attempted, failed, failures = summarize(records)
    for line in failures:
        print(f"failed: {line}")
    for line in errors[:20]:
        print(f"incorrect: {line}")
    print(f"attempted {attempted}, failed {failed}, incorrect {len(errors)}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_json(f"result-{args.workload}-{args.seed}-trace{args.trace}.json", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
