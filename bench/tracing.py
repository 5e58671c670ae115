"""Spans and counters installed around quadalg's layers by the benchmark.

Nothing under ``src/`` knows about this module.  ``Tracer`` replaces chosen
functions with wrappers that record a span (name, start, end, parent, phase,
info) in memory; ``Counters`` replaces the hottest methods with wrappers that
only count calls.  Both undo every replacement on ``uninstall``.  They are
never installed together, so counting does not inflate the spans' times.

A name missing from the program (a private helper removed by a later change)
is skipped; the metrics built on it then read 0.
"""

import functools
import sys
import time

import numpy as np

# (module, attribute, span name, info): info maps the call's arguments to a
# small dict kept with the span
SPANS = (
    ("fields", "finite_field", "fields.finite_field", None),
    ("algebra", "counterexample_algebra", "algebra.counterexample_algebra", None),
    ("algebra", "classify_spectrum", "algebra.classify_spectrum", None),
    ("algebra", "eigenvalue_set", "algebra.eigenvalue_set", None),
    ("algebra", "eigencheck", "algebra.eigencheck", None),
    ("solver", "build_system", "solver.build_system", None),
    ("solver", "perturb_system", "solver.perturb_system", None),
    ("solver", "solve_exhaustive", "solver.solve_exhaustive", None),
    ("solver", "_verify_solutions", "solver.verify", None),
    ("solver", "_embed_system", "solver.embed", None),
    (
        "solver",
        "count_solutions_extension",
        "solver.count_solutions_extension",
        lambda S, k, cfg=None: {"k": k},
    ),
    ("solver", "genericity_probe", "solver.genericity_probe", None),
    ("solver", "solve_exact_dim2", "solver.solve_exact_dim2", None),
    ("solver", "solve_real", "solver.solve_real", None),
    ("solver", "find_idempotent_real", "solver.find_idempotent_real", None),
    ("solver", "find_absolute_nilpotent_real", "solver.find_absolute_nilpotent_real", None),
    (
        "ffenum",
        "solve_system",
        "ffenum.solve_system",
        lambda F, n, forms: {"points": (F.order ** (n + 1) - 1) // (F.order - 1)},
    ),
    ("ffenum", "_ExtOps", "ffenum.ops_build", None),
    ("formats", "load_json", "formats.load_json", None),
    ("formats", "algebra_from_json", "formats.algebra_from_json", None),
    ("formats", "save_json", "formats.save_json", None),
    ("formats", "algebra_to_json", "formats.algebra_to_json", None),
    ("formats", "solution_report", "formats.solution_report", None),
    ("formats", "counting_report", "formats.counting_report", None),
    ("cli", "main", "cli.main", lambda argv=None: {"command": (argv or ["?"])[0]}),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "parse_field_spec", "cli.parse_field_spec", None),
)

PRIME_OPS = ("add", "sub", "mul", "div", "neg", "inv")


def _quadalg_modules():
    return [m for name, m in list(sys.modules.items()) if name == "quadalg" or name.startswith("quadalg.")]


class _Patches:
    def __init__(self):
        self._undo = []

    def replace_everywhere(self, original, replacement):
        """Rebind every quadalg module name bound to `original`, so that
        ``from .x import f`` copies are replaced too."""
        for mod in _quadalg_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, replacement)

    def replace_attr(self, owner, name, replacement):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def undo(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Tracer:
    """Span recorder; spans stay in memory until the run writes them out."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase, info]
        self._stack = []
        self._patches = _Patches()
        self.phase = None

    def install(self, phase):
        self.phase = phase
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _quadalg_modules()}
        for mod_name, attr, span, info in SPANS:
            fn = getattr(mods.get(mod_name), attr, None)
            if fn is None:
                continue
            if attr == "build_parser":
                wrapped = self._wrap_parser(span, fn)
            else:
                wrapped = self._wrap(span, fn, info)
            self._patches.replace_everywhere(fn, wrapped)

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase,
                   info(*args, **kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _wrap_parser(self, name, fn):
        """build_parser, plus a span around parse_args on the parser it returns."""
        build = self._wrap(name, fn, None)

        def wrapper(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = self._wrap("cli.parse_args", parser.parse_args, None)
            return parser

        return wrapper

    # -- reading the spans --------------------------------------------------

    def select(self, name, phases=None):
        return [s for s in self.spans if s[0] == name and (phases is None or s[4] in phases)]

    def total_s(self, name, phases=None):
        return sum(s[2] - s[1] for s in self.select(name, phases))

    def self_times(self, name, phases=None):
        """(span index, self time) pairs: duration minus the direct children's durations."""
        child = {}
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
        out = []
        for i, s in enumerate(self.spans):
            if s[0] == name and (phases is None or s[4] in phases):
                out.append((i, (s[2] - s[1]) - child.get(i, 0.0)))
        return out

    def dump(self):
        return [[s[0], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]


class Counters:
    """Call counts at the hottest boundaries, installed without any spans."""

    def __init__(self):
        self.counts = {
            "fields.prime_op_calls": 0,
            "fields.ext_mul_calls": 0,
            "algebra.square_calls": 0,
            "solver.newton_linear_solves": 0,
        }
        self._patches = _Patches()

    def install(self):
        from quadalg import algebra, fields

        for op in PRIME_OPS:
            self._count(fields.PrimeField, op, "fields.prime_op_calls")
        self._count(fields.ExtensionField, "mul", "fields.ext_mul_calls")
        self._count(algebra.StructureTensor, "square", "algebra.square_calls")
        for name in ("solve", "lstsq"):
            self._count_from(np.linalg, name, "solver.newton_linear_solves", "quadalg.solver")

    def uninstall(self):
        self._patches.undo()

    def _count(self, cls, attr, key):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patches.replace_attr(cls, attr, wrapper)

    def _count_from(self, module, attr, key, caller):
        """Count calls of module.attr made from code in the module named `caller`."""
        fn = getattr(module, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == caller:
                counts[key] += 1
            return fn(*args, **kwargs)

        self._patches.replace_attr(module, attr, wrapper)
