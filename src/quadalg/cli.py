"""Command-line surface for scripted verification runs.

Subcommands, with the tuning flags each one reads (every one also takes
``--out``, the path of its JSON report)
    check           classify one element of an algebra file
    solve           run an eigenvector engine (exhaustive | exact2 | real);
                    --tol, --restarts, --seed for the real engine
    spectrum        decide membership of 0 and 1 in the eigenvalue set;
                    --tol, --restarts, --seed for real algebras
    counterexample  emit the quotient algebra of an odd-degree irreducible modulus
    witness         emit and verify the rootless odd-degree witness polynomial
    bezout          distinct solution counts over extension fields + verdict; --kmax
    perturb         random quadratic perturbation, then the counting probe;
                    --seed, --kmax

Exit codes: 0 success (nontrivial solution / nonempty spectrum / generic
verdict); 1 provably-none or none-found (the report's "certified" field
tells which), empty spectrum, or positive-dimensional verdict; 2 parse
error, unreadable file, a flag the command does not take, a non-positive
one, or a negative --seed (perturb included); 3 dimension mismatch (a
file's "dim", or a counterexample modulus's degree minus one, above
``algebra.MAX_DIM``: checked before the modulus is certified); 4
engine/field mismatch, unsupported field, or any other package
error (characteristic two, a valuation violation, a division by zero, ...);
5 reducible or even-degree modulus; 6 enumeration budget exceeded (a sweep,
the q*(q+1) root search of ``witness`` over GF(q), or a rational root
search); 7 internal error, with the traceback printed; 141 standard output
closed before everything was written to it (128 + SIGPIPE, what a shell
reports for a process that SIGPIPE ended).  Codes 0 and 1 come only from an
engine run that completed.
"""

import argparse
import json
import os
import re
import sys

# solver is imported inside the commands that run an engine, so check,
# counterexample and witness neither compile nor load it
from . import algebra as alg
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EvenOrTrivialDegree,
    ParseError,
    QuadAlgError,
    ReducibleModulus,
    SearchExhausted,
    UnsupportedField,
)
from .fields import (
    ENUMERATION_BUDGET,
    ExtensionField,
    LaurentSeries,
    Polynomial,
    PrimeField,
    Rationals,
    Reals,
    field_from_json,
    finite_field,
    poly_has_root,
    prime_power,
)
from . import formats


def parse_field_spec(spec):
    """A field from either a JSON descriptor or a compact alias.

    Aliases: rationals | Q, real[:tol], prime:p, gf:q (or F<q>), ext:p:c0,c1,...,
    laurent:<base alias>:prec.
    """
    spec = spec.strip()
    if spec.startswith("{"):
        try:
            return field_from_json(json.loads(spec))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad field JSON: {exc}") from exc
    if (q := _alias_order(spec)) is not None:
        return finite_field(q)
    low = spec.lower()
    try:
        if low in ("q", "qq", "rationals"):
            return Rationals()
        if low in ("r", "rr", "real", "reals"):
            return Reals()
        if low.startswith("real:"):
            return Reals(float(low.split(":", 1)[1]))
        if low.startswith("prime:"):
            return PrimeField(int(low.split(":", 1)[1]))
        if low.startswith("ext:"):
            _, p, coeffs = low.split(":", 2)
            return ExtensionField(PrimeField(int(p)), [int(c) for c in coeffs.split(",")])
        m = re.fullmatch(r"laurent:(.+):(.*)", low)
        if m:
            return LaurentSeries(parse_field_spec(m.group(1)), int(m.group(2)))
    except (ValueError, ReducibleModulus) as exc:
        raise ParseError(f"bad field spec {spec!r}: {exc}") from exc
    raise ParseError(f"unrecognized field spec {spec!r}")


def _alias_order(spec):
    """The prime power q that a gf:q or F<q> alias names; None for any other spec."""
    m = re.fullmatch(r"gf:(.*)|g?f([0-9]+)", spec.strip().lower())
    if m is None:
        return None
    try:
        q = int(m.group(m.lastindex))
        prime_power(q)
    except ValueError as exc:
        raise ParseError(f"bad field spec {spec!r}: {exc}") from exc
    return q


def parse_int_list(s):
    try:
        return [int(c) for c in s.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad coefficient list {s!r}") from exc


def _render(F, a):
    v = F.scalar_to_json(a)
    if isinstance(v, str) and v.endswith("/1"):
        return v[:-2]
    if isinstance(v, float):
        return f"{v:.6g}"
    return json.dumps(v) if isinstance(v, (list, dict)) else str(v)


def _load_algebra(path):
    return formats.algebra_from_json(formats.load_json(path))


def _emit(report, out):
    if out:
        formats.save_json(out, report)


def _config(args):
    """A SolveConfig with the tuning flags this command was given."""
    from . import solver as sv

    names = {"tol": "residual_tol", "restarts": "max_restarts", "kmax": "k_max", "seed": "seed"}
    given = {field: getattr(args, flag, None) for flag, field in names.items()}
    try:
        return sv.SolveConfig(**{field: v for field, v in given.items() if v is not None})
    except ValueError as exc:
        raise ParseError(f"bad tuning flag: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check(args):
    A = _load_algebra(args.algebra)
    elem = json.loads(args.element)
    x = formats.element_from_json(A.field, elem)
    if len(x) != A.dim:
        raise DimensionMismatch(f"element has {len(x)} coordinates, algebra dim {A.dim}")
    F = A.field
    report = {"field": F.to_json(), "idempotent": False, "absolute_nilpotent": False, "eigenvalue": None}
    if alg.is_zero_vector(F, x):
        print("zero vector (trivially nilpotent)")
        report["absolute_nilpotent"] = True
        _emit(report, args.out)
        return 0
    # the flags read x*x = x and x*x = 0 at the field's tolerance, as the real
    # searches do; eigencheck's pivot division only names any other eigenvalue
    if alg.is_idempotent(A, x):
        report["idempotent"], lam, kind = True, F.one(), "idempotent"
    elif alg.is_absolute_nilpotent(A, x):
        report["absolute_nilpotent"], lam, kind = True, F.zero(), "absolute nilpotent"
    else:
        lam, kind = alg.eigencheck(A, x), "eigenvector"
    if lam is None:
        print("no eigenvalue")
    else:
        report["eigenvalue"] = F.scalar_to_json(lam)
        print(f"{kind}, lambda={_render(F, lam)}")
    _emit(report, args.out)
    return 0


def cmd_solve(args):
    A = _load_algebra(args.algebra)
    from . import solver as sv  # after the file parses: a parse error needs no solver

    F = A.field
    cfg = _config(args)
    if args.engine == "exhaustive":
        sols = sv.solve_exhaustive(sv.build_system(A))
        nontrivial = [s for s in sols if not s.trivial]
        report = formats.solution_report(F, "exhaustive", sols, certified=True)
        _emit(report, args.out)
        print(f"{len(sols)} projective solution(s), {len(nontrivial)} nontrivial")
        if nontrivial:
            return 0
        print("no nontrivial solution (provably none)")
        return 1
    if args.engine == "exact2":
        res = sv.solve_exact_dim2(A)
        report = formats.solution_report(
            F, "exact2", res.solutions, certified=True, infinite_family=res.infinite_family
        )
        _emit(report, args.out)
        if res.infinite_family:
            print("infinite family of rational eigen-directions; samples reported")
            return 0
        if res.solutions:
            for s in res.solutions:
                coords = ", ".join(_render(F, c) for c in s.coords[:-1])
                print(f"eigen-direction ({coords}), lambda={_render(F, s.lam)}")
            return 0
        print("no nontrivial rational solution (provably none)")
        return 1
    if args.engine == "real":
        try:
            sol = sv.solve_real(A, cfg)
        except SearchExhausted:
            report = formats.solution_report(F, "real", [], certified=False)
            _emit(report, args.out)
            print("no eigenpair found (not a nonexistence proof)")
            return 1
        report = formats.solution_report(F, "real", [sol], certified=False)
        _emit(report, args.out)
        x, lam = sv.unit_eigenpair(A, sol)
        print(f"eigenpair found: lambda={lam:.6g}, residual={sol.residual:.3g}")
        return 0
    raise ParseError(f"unknown engine {args.engine!r}")


def cmd_spectrum(args):
    A = _load_algebra(args.algebra)
    F = A.field
    rep = alg.classify_spectrum(A, _config(args))
    report = {
        "field": F.to_json(),
        "sigma_p": sorted(rep.sigma_p),
        "description": rep.description.value,
        "idempotent": formats.element_to_json(F, rep.idempotent) if rep.idempotent else None,
        "nilpotent": formats.element_to_json(F, rep.nilpotent) if rep.nilpotent else None,
        "certified": rep.certified,
    }
    _emit(report, args.out)
    tag = "" if rep.certified else " (numeric search, not a certificate)"
    print(f"sigma_p = {sorted(rep.sigma_p)}, description = {rep.description.value}{tag}")
    return 0 if rep.sigma_p else 1


def cmd_counterexample(args):
    F = parse_field_spec(args.field)
    coeffs = parse_int_list(args.modulus)
    f = Polynomial(F, coeffs)
    A = alg.counterexample_algebra(F, f)
    provenance = {
        "base_field": F.to_json(),
        "modulus": coeffs,
        "basis": "images of t^1..t^(d-1) in F[t]/(modulus), constant line removed",
    }
    report = formats.algebra_to_json(A, provenance=provenance)
    if args.out:
        formats.save_json(args.out, report)
        print(f"wrote {A.dim}-dimensional quotient algebra to {args.out}")
    else:
        print(json.dumps(report, indent=2))
    return 0


def _check_witness_budget(q):
    # the root search evaluates the degree-q (q + 1 in characteristic 2)
    # witness at all q elements
    if q * (q + 1) > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"witness root search over GF({q}) needs {q * (q + 1)} steps, "
            f"over budget {ENUMERATION_BUDGET}"
        )


def cmd_witness(args):
    if (q := _alias_order(args.field)) is not None:
        # before GF(q) is built: certifying a large modulus takes seconds
        _check_witness_budget(q)
    F = parse_field_spec(args.field)
    if isinstance(F, Rationals):
        ints = [-2, 0, 0, 1]
        desc = "a^3 - 2"
    elif F.finite:
        q = F.order
        _check_witness_budget(q)
        if F.characteristic == 2:
            ints = [1, 0, -1] + [0] * (q - 2) + [1]
            desc = f"a^{q + 1} - a^2 + 1"
        else:
            ints = [1, -1] + [0] * (q - 2) + [1]
            desc = f"a^{q} - a + 1"
    else:
        raise UnsupportedField("witness polynomials exist for finite fields and the rationals")
    f = Polynomial(F, ints, var="a")
    has, root = poly_has_root(f)
    report = {
        "field": F.to_json(),
        "witness": {"coeffs": ints, "degree": f.degree, "description": desc},
        "rootless": not has,
    }
    _emit(report, args.out)
    if has:
        print(f"witness {desc} HAS a root: {_render(F, root)} (unexpected)")
        return 1
    print(f"witness {desc} has no root over {F!r}: odd-degree solvability fails")
    return 0


def cmd_bezout(args):
    A = _load_algebra(args.algebra)
    from . import solver as sv

    probe = sv.genericity_probe(A, _config(args))
    report = formats.counting_report(probe)
    _emit(report, args.out)
    counts = ", ".join(f"k={k}: {c}" for k, c in sorted(probe.counts.items()))
    print(f"p = {probe.p}, bound 2^n = {probe.bound}, counts: {counts}")
    print(f"verdict: {probe.verdict.value}")
    return 0 if probe.verdict is sv.GenericityVerdict.LIKELY_GENERIC else 1


def cmd_perturb(args):
    import random

    A = _load_algebra(args.algebra)
    from . import solver as sv

    F, cfg = A.field, _config(args)
    seed = args.seed if args.seed is not None else 0
    print(f"seed: {seed}")
    rng = random.Random(seed)
    eps, phis = sv.draw_perturbation(F, A.dim, rng)
    S = sv.perturb_system(sv.build_system(A), eps, phis)
    probe = sv.genericity_probe(S, cfg)
    report = formats.counting_report(probe)
    report["seed"] = seed
    report["eps"] = [F.scalar_to_json(e) for e in eps]
    report["phis"] = [[F.scalar_to_json(c) for c in phi] for phi in phis]
    _emit(report, args.out)
    counts = ", ".join(f"k={k}: {c}" for k, c in sorted(probe.counts.items()))
    print(f"perturbed counts: {counts}")
    print(f"verdict: {probe.verdict.value}")
    return 0 if probe.verdict is sv.GenericityVerdict.LIKELY_GENERIC else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The tuning flags, each given only to the commands whose engines read it.
_OPTIONS = {
    "--tol": {"type": float, "help": "real-engine residual tolerance"},
    "--restarts": {"type": int, "help": "real-engine restart budget"},
    "--seed": {"type": int, "help": "random seed (default 0)"},
    "--kmax": {"type": int, "help": "extension-count depth"},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="Idempotents, absolute nilpotents, and eigenvectors of "
        "squaring operators on finite-dimensional algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *flags):
        p.add_argument("--out", help="write the JSON report here")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])

    p = sub.add_parser("check", help="classify one element of an algebra")
    p.add_argument("algebra", help="algebra JSON file")
    p.add_argument("element", help="element as a JSON array")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="find projective solutions of the eigenvector system")
    p.add_argument("algebra")
    p.add_argument("--engine", choices=("exhaustive", "exact2", "real"), required=True)
    add_common(p, "--tol", "--restarts", "--seed")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="membership of 0 and 1 in the eigenvalue set")
    p.add_argument("algebra")
    add_common(p, "--tol", "--restarts", "--seed")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("counterexample", help="quotient algebra with empty spectrum")
    p.add_argument("--field", required=True, help="field spec (e.g. rationals, prime:3)")
    p.add_argument("--modulus", required=True, help="odd-degree irreducible, low-to-high ints")
    p.add_argument("--out", help="write the algebra file here")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("witness", help="rootless odd-degree witness polynomial")
    p.add_argument("--field", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bezout", help="solution counts over extension fields")
    p.add_argument("algebra")
    add_common(p, "--kmax")
    p.set_defaults(func=cmd_bezout)

    p = sub.add_parser("perturb", help="random perturbation, then the counting probe")
    p.add_argument("algebra")
    add_common(p, "--seed", "--kmax")
    p.set_defaults(func=cmd_perturb)

    return parser


# Exit code of each error family; the first match wins, and the last entry
# gives every other package error a code as well.
_EXIT_CODES = (
    ((ParseError, OSError, json.JSONDecodeError), 2),
    ((DimensionMismatch,), 3),
    ((ReducibleModulus, EvenOrTrivialDegree), 5),
    ((BudgetExceeded,), 6),
    ((QuadAlgError,), 4),
)
INTERNAL_ERROR = 7
BROKEN_PIPE = 141


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; with stdout on devnull the
        # interpreter's own flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (QuadAlgError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    except Exception:
        import traceback

        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
