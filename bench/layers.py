"""Per-layer metrics of a traced run, from its spans, its call counts, and a
few measurements made apart from the workload (F_625 operations and fresh
interpreters).  Times are per item unless the name says otherwise; a layer
that does no work on a workload reads 0.
"""

import os
import random
import statistics
import subprocess
import sys
import time

ITEMS = ("items",)


def _per_item_ms(tracer, names, items):
    return sum(tracer.total_s(n, ITEMS) for n in names) * 1e3 / items


def _mean_call_ms(tracer, name, phases=None):
    spans = tracer.select(name, phases)
    return sum(s[2] - s[1] for s in spans) * 1e3 / len(spans) if spans else 0.0


def per_layer(tracer, counters, items, counted_items, src, repeats, micro_ops, seed):
    """Every per-layer metric as name -> (value, unit).

    `items` is the number of items answered with spans on, `counted_items`
    the number answered with call counters on.
    """
    m = {}
    ext_mul, ext_add = ext_field_micro(micro_ops, seed)
    m["fields.ext_mul_us"] = (ext_mul, "us")
    m["fields.ext_add_us"] = (ext_add, "us")
    for key, value in counters.counts.items():
        m[key] = (value / counted_items, "count")

    m["algebra.classify_spectrum_self_ms"] = (
        sum(t for _, t in tracer.self_times("algebra.classify_spectrum", ITEMS)) * 1e3 / items,
        "ms",
    )
    m["algebra.counterexample_algebra_ms"] = (_mean_call_ms(tracer, "algebra.counterexample_algebra"), "ms")

    m["solver.build_system_ms"] = (_per_item_ms(tracer, ["solver.build_system"], items), "ms")
    indexed = {s[3] for s in tracer.select("ffenum.solve_system")}
    scalar = [t for i, t in tracer.self_times("solver.solve_exhaustive", ITEMS) if i not in indexed]
    m["solver.sweep_scalar_self_ms"] = (sum(scalar) * 1e3 / items, "ms")
    m["solver.verify_ms"] = (_per_item_ms(tracer, ["solver.verify"], items), "ms")
    m["solver.embed_ms"] = (_per_item_ms(tracer, ["solver.embed"], items), "ms")
    for k in range(1, 5):
        spans = [s for s in tracer.select("solver.count_solutions_extension", ITEMS) if s[5]["k"] == k]
        m[f"solver.count_ext_k{k}_ms"] = (sum(s[2] - s[1] for s in spans) * 1e3 / items, "ms")
    for name in ("solve_real", "find_idempotent_real", "find_absolute_nilpotent_real"):
        m[f"solver.{name}_ms"] = (_per_item_ms(tracer, [f"solver.{name}"], items), "ms")

    sweeps = tracer.select("ffenum.solve_system", ITEMS)
    sweep_s = sum(s[2] - s[1] for s in sweeps)
    m["ffenum.solve_system_ms"] = (sweep_s * 1e3 / items, "ms")
    m["ffenum.points_per_s"] = (sum(s[5]["points"] for s in sweeps) / sweep_s if sweeps else 0.0, "1/s")
    m["ffenum.ops_build_ms"] = (_mean_call_ms(tracer, "ffenum.ops_build"), "ms")

    m["formats.load_ms"] = (
        _per_item_ms(tracer, ["formats.load_json", "formats.algebra_from_json"], items),
        "ms",
    )
    m["formats.save_ms"] = (_per_item_ms(tracer, ["formats.save_json"], items), "ms")

    mains = tracer.select("cli.main", ITEMS)
    m["cli.main_ms"] = (_mean_call_ms(tracer, "cli.main", ITEMS), "ms")
    parse_s = tracer.total_s("cli.build_parser", ITEMS) + tracer.total_s("cli.parse_args", ITEMS)
    m["cli.parse_ms"] = (parse_s * 1e3 / len(mains) if mains else 0.0, "ms")
    import_ms, start_ms = interpreter_costs(src, repeats)
    m["cli.import_ms"] = (import_ms, "ms")
    m["cli.python_start_ms"] = (start_ms, "ms")
    return m


def ext_field_micro(ops, seed):
    """Median microseconds per mul and per add over F_625, on seeded operands."""
    from quadalg import fields

    F = fields.finite_field(625)
    rng = random.Random(f"micro:{seed}")
    draw = lambda: F.scalar_from_index(rng.randrange(F.order))
    pairs = [(draw(), draw()) for _ in range(ops)]
    out = []
    for op in (F.mul, F.add):
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for a, b in pairs:
                op(a, b)
            reps.append((time.perf_counter() - t0) * 1e6 / ops)
        out.append(statistics.median(reps))
    return out


def interpreter_costs(src, repeats):
    """Median (in-child `import quadalg` ms, bare `python -c pass` wall ms)."""
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import time; t = time.perf_counter(); import quadalg; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    imports, starts = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
        )
        imports.append(float(out.stdout.strip()))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(imports), statistics.median(starts)


def breakdown(tracer):
    """Lines of inclusive time per span name and per CLI subcommand (traced items)."""
    totals = {}
    for s in tracer.spans:
        if s[4] in ITEMS:
            calls, t = totals.get(s[0], (0, 0.0))
            totals[s[0]] = (calls + 1, t + s[2] - s[1])
    lines = [
        f"span {name}: {calls} calls, {t * 1e3:.1f} ms"
        for name, (calls, t) in sorted(totals.items(), key=lambda kv: -kv[1][1])
    ]
    per_cmd = {}
    for s in tracer.select("cli.main", ITEMS):
        per_cmd.setdefault(s[5]["command"], []).append((s[2] - s[1]) * 1e3)
    lines += [
        f"cli.main[{cmd}]: {statistics.median(ts):.2f} ms median of {len(ts)}"
        for cmd, ts in sorted(per_cmd.items())
    ]
    return lines
