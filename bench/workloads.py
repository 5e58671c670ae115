"""The benchmark's four workloads: seeded inputs, one call per item, and the
checks of every answer against the oracles in ``oracles.py``.

Inputs are drawn with the benchmark's own ``random.Random`` streams (string
seeds, so they do not depend on hash randomization) and handed to quadalg as
plain integer or float tensors.  A change to quadalg's own random helpers
therefore cannot change what is measured.

Every call into quadalg goes through a module attribute (``sv.solve_real``,
not a name imported from it), so the tracing wrappers installed by
``tracing.py`` see every call.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import oracles
from quadalg import algebra as alg
from quadalg import cli
from quadalg import fields as fl
from quadalg import solver as sv

# a child that exits with a code outside this set, or prints a traceback,
# crashed: its operation is counted as failed rather than checked
DOCUMENTED_EXIT_CODES = frozenset(range(7))


@dataclass
class Item:
    label: str
    payload: object


def _rng(*parts):
    return random.Random(":".join(str(p) for p in parts))


def _tensor(rng, n, draw, commutative):
    alpha = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if commutative and k < i:
                continue
            for j in range(n):
                alpha[i][k][j] = draw()
                if commutative:
                    alpha[k][i][j] = alpha[i][k][j]
    return alpha


def _diagonal(n):
    return [[[int(i == k == j) for j in range(n)] for k in range(n)] for i in range(n)]


def _zero(n):
    return [[[0] * n for _ in range(n)] for _ in range(n)]


class Workload:
    """Rounds of items; a run repeats whole rounds until its time is up.

    Set-up draws ``max_rounds`` distinct rounds, each from its own seeded
    stream, so a run of the usual length answers fresh inputs in every round
    and the per-run figures average over many draws.  A run longer than that
    cycles through them again.
    """

    name = ""
    max_rounds = 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rounds = []

    def prepare(self):
        raise NotImplementedError

    def warm_up(self):
        pass

    def run(self, item, in_process=False):
        """Answer one item.  Raises on a failed operation."""
        raise NotImplementedError

    def check(self, item, result):
        """Errors found in one answer (empty when it is correct)."""
        raise NotImplementedError

    def round(self, r):
        return self.rounds[r % len(self.rounds)]


# ---------------------------------------------------------------------------
# ff_spectrum
# ---------------------------------------------------------------------------


class FFSpectrum(Workload):
    """build_system + solve_exhaustive + classify_spectrum over prime fields."""

    name = "ff_spectrum"
    # (p, degree of the odd irreducible modulus): dimension is degree - 1.
    # A quotient has an empty spectrum, so both of its sweeps run to the end
    # and its cost barely depends on the modulus drawn.  The three GF(7)
    # quotients form the middle of every round's cost order, so the median
    # item falls on them; a random algebra's spectrum sweep stops at its
    # first idempotent and nilpotent witnesses, and its cost moves with them.
    QUOTIENTS = ((5, 5), (3, 7), (7, 5), (7, 5), (7, 5), (3, 9), (5, 7))
    # (p, n, commutative).  Projective point counts run from 1,464 (n=3) to
    # 19,531 (n=6), on both sides of the solver's 4,096-point switch to its
    # index backend.
    RANDOM = (
        (11, 3, True),
        (11, 3, False),
        (7, 4, True),
        (7, 4, False),
        (5, 5, True),
        (5, 5, False),
        (5, 6, True),
    )

    def prepare(self):
        self._oracle = {}
        for r in range(self.max_rounds):
            items = []
            for i, (p, d) in enumerate(self.QUOTIENTS):
                rng = _rng(self.name, self.seed, r, "modulus", i, p, d)
                modulus = oracles.random_irreducible(p, d, rng)
                F = fl.PrimeField(p)
                A = alg.counterexample_algebra(F, fl.Polynomial(F, modulus))
                alpha = oracles.quotient_tensor(modulus, p)
                items.append(Item(f"quotient GF({p}) deg {d}", (A, alpha, p, True)))
            for i, (p, n, comm) in enumerate(self.RANDOM):
                rng = _rng(self.name, self.seed, r, i, p, n, comm)
                alpha = _tensor(rng, n, lambda: rng.randrange(p), comm)
                A = alg.StructureTensor(fl.PrimeField(p), alpha)
                kind = "comm" if comm else "noncomm"
                items.append(Item(f"random GF({p}) n={n} {kind}", (A, alpha, p, False)))
            self.rounds.append(items)

    def warm_up(self):
        # one index-backend sweep per field it serves here, and one scalar sweep
        for p, n in ((5, 6), (3, 8), (7, 2), (11, 2)):
            F = fl.PrimeField(p)
            sv.solve_exhaustive(sv.build_system(alg.StructureTensor(F, _diagonal(n))))

    def run(self, item, in_process=False):
        A = item.payload[0]
        sols = sv.solve_exhaustive(sv.build_system(A))
        rep = alg.classify_spectrum(A)
        return (
            [tuple(s.coords) for s in sols],
            rep.description.value,
            rep.idempotent,
            rep.nilpotent,
        )

    def check(self, item, result):
        A, alpha, p, quotient = item.payload
        coords, desc, idem, nil = result
        errors = []
        key = id(item)
        if key not in self._oracle:
            sols = oracles.eigen_solutions_gf(alpha, p)
            self._oracle[key] = (sols, oracles.spectrum_description(sols, A.dim))
            if quotient and [list(map(list, plane)) for plane in A.alpha] != alpha:
                errors.append("counterexample_algebra tensor differs from the quotient oracle")
        sols, want_desc = self._oracle[key]
        if len(coords) != len(set(coords)) or set(coords) != sols:
            errors.append(f"solution set {sorted(coords)} != oracle {sorted(sols)}")
        if desc != want_desc:
            errors.append(f"description {desc} != oracle {want_desc}")
        if quotient and (sols != {(0,) * A.dim + (1,)} or desc != "Empty"):
            errors.append("quotient algebra is not certified empty")
        if (idem is not None) != (desc in ("AllNonzero", "AllOfF")):
            errors.append("idempotent witness does not match the description")
        if (nil is not None) != (desc in ("ZeroOnly", "AllOfF")):
            errors.append("nilpotent witness does not match the description")
        if idem is not None and not oracles.is_idempotent_gf(alpha, idem, p):
            errors.append(f"idempotent witness {idem} fails x*x = x")
        if nil is not None and not oracles.is_absolute_nilpotent_gf(alpha, nil, p):
            errors.append(f"nilpotent witness {nil} fails x*x = 0")
        return [f"{item.label}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# ext_probe
# ---------------------------------------------------------------------------


class ExtProbe(Workload):
    """genericity_probe (k_max 4, F_{5^k}) on a dim-2 algebra and a perturbation of it."""

    name = "ext_probe"
    P = 5
    N = 2
    K_MAX = 4

    def _item(self, label, alpha, rng):
        p, n = self.P, self.N
        # the distribution of quadalg's draw_perturbation over a prime field
        eps = [rng.randrange(p) for _ in range(n)]
        phis = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
        A = alg.StructureTensor(fl.PrimeField(p), alpha)
        return Item(label, (A, alpha, eps, phis))

    def prepare(self):
        self._oracle = {}
        self.cfg = sv.SolveConfig(k_max=self.K_MAX)
        p, n = self.P, self.N
        for r in range(self.max_rounds):
            rng = _rng(self.name, self.seed, r)
            items = [
                self._item("diagonal", _diagonal(n), rng),
                self._item("zero", _zero(n), rng),
            ]
            for comm in (True, False, True, False):
                alpha = _tensor(rng, n, lambda: rng.randrange(p), comm)
                items.append(self._item("random comm" if comm else "random noncomm", alpha, rng))
            self.rounds.append(items)

    def warm_up(self):
        # fills the per-field tables of the extension sweeps
        A = alg.StructureTensor(fl.PrimeField(self.P), _diagonal(self.N))
        sv.genericity_probe(A, self.cfg)

    def run(self, item, in_process=False):
        A, _, eps, phis = item.payload
        out = []
        for system in (A, sv.perturb_system(sv.build_system(A), eps, phis)):
            probe = sv.genericity_probe(system, self.cfg)
            out.append((dict(probe.counts), probe.verdict.value, probe.bound))
        return out

    def check(self, item, result):
        _, alpha, eps, phis = item.payload
        p, n = self.P, self.N
        errors = []
        key = id(item)
        if key not in self._oracle:
            self._oracle[key] = (
                len(oracles.eigen_solutions_gf(alpha, p)),
                len(oracles.eigen_solutions_gf(alpha, p, (eps, phis))),
            )
        for which, (counts, verdict, bound), want1 in zip(
            ("base", "perturbed"), result, self._oracle[key]
        ):
            c = [counts.get(k) for k in range(1, self.K_MAX + 1)]
            if None in c:
                errors.append(f"{which}: counts {counts} miss a degree")
                continue
            if not (c[0] <= c[1] <= c[3] and c[0] <= c[2]):
                errors.append(f"{which}: counts {c} break the subfield order")
            if c[0] != want1:
                errors.append(f"{which}: count over F_{p} {c[0]} != oracle {want1}")
            if bound != 2**n:
                errors.append(f"{which}: bound {bound} != 2^n")
            generic = all(x <= 2**n for x in c)
            if (verdict == "LikelyGeneric") != generic:
                errors.append(f"{which}: verdict {verdict} for counts {c}")
            if which == "base" and item.label == "diagonal":
                if c != [oracles.diagonal_count(n)] * self.K_MAX:
                    errors.append(f"diagonal counts {c} != 2^n")
            if which == "base" and item.label == "zero":
                want = [oracles.zero_algebra_count(p**k, n) for k in range(1, self.K_MAX + 1)]
                if c != want:
                    errors.append(f"zero-algebra counts {c} != {want}")
        return [f"{item.label}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# real_search
# ---------------------------------------------------------------------------


class RealSearch(Workload):
    """solve_real + classify_spectrum on random real algebras."""

    name = "real_search"
    # Most of an item is the absolute-nilpotent search running all its
    # restarts, and how long that takes varies from algebra to algebra.  At
    # n = 4 and 5 that variation has the heaviest tail (single items of
    # 2-3 s against a mean near 0.6 s), enough to move a run's median item
    # and throughput by a fifth from seed to seed; n = 8 has the lightest
    # (coefficient of variation 0.25), so it is drawn twice per round.
    DIMS = (3, 6, 8, 8)
    TOL = 1e-8

    def prepare(self):
        R = fl.Reals()
        for r in range(self.max_rounds):
            items = []
            for i, n in enumerate(self.DIMS):
                for comm in (True, False):
                    rng = _rng(self.name, self.seed, r, i, n, comm)
                    alpha = _tensor(rng, n, lambda: rng.uniform(-1.0, 1.0), comm)
                    kind = "comm" if comm else "noncomm"
                    items.append(Item(f"real n={n} {kind}", (alg.StructureTensor(R, alpha), alpha)))
            self.rounds.append(items)

    def warm_up(self):
        sv.solve_real(alg.StructureTensor(fl.Reals(), [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]]))

    def run(self, item, in_process=False):
        A = item.payload[0]
        sol = sv.solve_real(A)
        rep = alg.classify_spectrum(A)
        return (sol.coords, rep.idempotent, rep.nilpotent, rep.description.value)

    def check(self, item, result):
        alpha = item.payload[1]
        coords, idem, nil, _ = result
        errors = []
        res = oracles.real_unit_residual(alpha, coords)
        if not res <= self.TOL:
            errors.append(f"eigenpair residual {res:.3g}")
        if idem is not None:
            scale = max(1.0, float(np.dot(idem, idem)))
            res = oracles.real_idempotent_residual(alpha, idem)
            if not res <= self.TOL * scale:
                errors.append(f"idempotent residual {res:.3g}")
        if nil is not None:
            res = oracles.real_nilpotent_residual(alpha, nil)
            if not res <= self.TOL:
                errors.append(f"nilpotent residual {res:.3g}")
        return [f"{item.label}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# cli_process
# ---------------------------------------------------------------------------


@dataclass
class Command:
    argv: list
    report: str  # file name of the --out report, or "" when none is written
    verify: object  # (exit_code, report) -> list of errors


class CliProcess(Workload):
    """One ``python -m quadalg ...`` child per item, cycling a fixed script."""

    name = "cli_process"
    max_rounds = 1

    def __init__(self, seed, workdir, src):
        super().__init__(seed, workdir)
        self.src = src
        self.child_rss_kb = []

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, obj):
        with open(self._path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)
        rng = _rng(self.name, self.seed)
        self.ff = _tensor(rng, 3, lambda: rng.randrange(5), False)
        self.real = _tensor(rng, 4, lambda: rng.uniform(-1.0, 1.0), True)
        self._write("ff.json", {"field": {"kind": "prime", "p": 5}, "dim": 3, "alpha": self.ff})
        self._write("real.json", {"field": {"kind": "real", "tol": 1e-10}, "dim": 4, "alpha": self.real})
        self._write("diag.json", {"field": {"kind": "prime", "p": 5}, "dim": 2, "alpha": _diagonal(2)})
        # malformed: the documented outcome is a parse error, exit 2
        self._write("bad.json", {"field": {"kind": "prime", "p": 3}, "dim": 2, "alpha": 5})

        self.ff_sols = oracles.eigen_solutions_gf(self.ff, 5)
        nontrivial = sorted(s for s in self.ff_sols if any(s[:3]))
        element = list(nontrivial[0][:3]) if nontrivial else [1, 0, 0]
        want_lam = oracles.eigenvalue_gf(self.ff, element, 5)
        q_ce = oracles.quotient_tensor([-2, 0, 0, 1])
        f3_ce = oracles.quotient_tensor([-1, -1, 0, 1], 3)
        p = self._path
        script = [
            ("counterexample Q", ["counterexample", "--field", "rationals", "--modulus=-2,0,0,1", "--out", p("ce_q.json")],
             "ce_q.json", lambda code, rep: self._verify_quotient(code, rep, q_ce, rational=True)),
            ("solve exact2", ["solve", p("ce_q.json"), "--engine", "exact2", "--out", p("solve_q.json")],
             "solve_q.json", lambda code, rep: self._verify_none(code, rep, [])),
            ("spectrum Q", ["spectrum", p("ce_q.json"), "--out", p("spec_q.json")],
             "spec_q.json", self._verify_empty),
            ("counterexample GF(3)", ["counterexample", "--field", "prime:3", "--modulus=-1,-1,0,1", "--out", p("ce_3.json")],
             "ce_3.json", lambda code, rep: self._verify_quotient(code, rep, f3_ce, rational=False)),
            ("solve exhaustive GF(3)", ["solve", p("ce_3.json"), "--engine", "exhaustive", "--out", p("solve_3.json")],
             "solve_3.json", lambda code, rep: self._verify_none(code, rep, [[0, 0, 1]])),
            ("spectrum GF(3)", ["spectrum", p("ce_3.json"), "--out", p("spec_3.json")],
             "spec_3.json", self._verify_empty),
            ("solve exhaustive GF(5)", ["solve", p("ff.json"), "--engine", "exhaustive", "--out", p("solve_ff.json")],
             "solve_ff.json", self._verify_ff_solve),
            ("check GF(5)", ["check", p("ff.json"), json.dumps(element), "--out", p("check.json")],
             "check.json", lambda code, rep: self._verify_check(code, rep, want_lam)),
            ("solve real", ["solve", p("real.json"), "--engine", "real", "--out", p("solve_r.json")],
             "solve_r.json", self._verify_real),
            ("witness gf:9", ["witness", "--field", "gf:9", "--out", p("witness.json")],
             "witness.json", self._verify_witness),
            ("bezout kmax 2", ["bezout", p("diag.json"), "--kmax", "2", "--out", p("bezout.json")],
             "bezout.json", self._verify_bezout),
            ("malformed alpha", ["solve", p("bad.json"), "--engine", "exhaustive"],
             "", self._verify_parse_error),
        ]
        self.rounds = [[Item(label, Command(argv, report, verify)) for label, argv, report, verify in script]]

    # -- running ------------------------------------------------------------

    def run(self, item, in_process=False):
        cmd = item.payload
        if cmd.report and os.path.exists(self._path(cmd.report)):
            os.remove(self._path(cmd.report))
        if in_process:
            code, crashed = self._run_in_process(cmd.argv)
        else:
            code, crashed = self._run_child(cmd.argv)
        if crashed:
            raise RuntimeError(f"{item.label} crashed with exit code {code}")
        report = None
        if cmd.report and os.path.exists(self._path(cmd.report)):
            with open(self._path(cmd.report), encoding="utf-8") as fh:
                report = json.load(fh)
        return code, report

    def _run_child(self, argv):
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadalg", *argv],
            cwd=self.workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return code, code not in DOCUMENTED_EXIT_CODES or b"Traceback (most recent call last)" in out

    def _run_in_process(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an escaping exception is the crash being counted
                return 1, True
        return code, code not in DOCUMENTED_EXIT_CODES

    def check(self, item, result):
        code, report = result
        return [f"{item.label}: {e}" for e in item.payload.verify(code, report)]

    # -- verification -------------------------------------------------------

    @staticmethod
    def _expect(code, want, report, need_report=True):
        errors = []
        if code != want:
            errors.append(f"exit code {code} != {want}")
        if need_report and report is None:
            errors.append("no report written")
        return errors

    def _verify_quotient(self, code, rep, want, rational):
        errors = self._expect(code, 0, rep)
        if rep is None:
            return errors
        if rational:
            from fractions import Fraction

            got = [[[Fraction(c) for c in row] for row in plane] for plane in rep.get("alpha", [])]
        else:
            got = rep.get("alpha")
        if got != want:
            errors.append(f"quotient tensor {rep.get('alpha')} != oracle")
        return errors

    def _verify_none(self, code, rep, only):
        errors = self._expect(code, 1, rep)
        if rep is None:
            return errors
        if rep.get("certified") is not True:
            errors.append("report not certified")
        coords = [s["coords"] for s in rep.get("solutions", [])]
        if coords != only:
            errors.append(f"solutions {coords} != {only}")
        return errors

    def _verify_empty(self, code, rep):
        errors = self._expect(code, 1, rep)
        if rep is not None and (rep.get("description") != "Empty" or rep.get("certified") is not True):
            errors.append(f"spectrum {rep.get('description')} certified={rep.get('certified')}")
        return errors

    def _verify_ff_solve(self, code, rep):
        nontrivial = any(any(s[:3]) for s in self.ff_sols)
        errors = self._expect(code, 0 if nontrivial else 1, rep)
        if rep is not None:
            got = [tuple(s["coords"]) for s in rep.get("solutions", [])]
            if len(got) != len(set(got)) or set(got) != self.ff_sols:
                errors.append(f"solutions {sorted(got)} != oracle {sorted(self.ff_sols)}")
        return errors

    def _verify_check(self, code, rep, lam):
        errors = self._expect(code, 0, rep)
        if rep is not None:
            want = {"eigenvalue": lam, "idempotent": lam == 1, "absolute_nilpotent": lam == 0}
            got = {k: rep.get(k) for k in want}
            if got != want:
                errors.append(f"check report {got} != {want}")
        return errors

    def _verify_real(self, code, rep):
        errors = self._expect(code, 0, rep)
        if rep is not None:
            sols = rep.get("solutions", [])
            if len(sols) != 1:
                errors.append(f"{len(sols)} real solutions reported")
            elif not oracles.real_unit_residual(self.real, sols[0]["coords"]) <= RealSearch.TOL:
                errors.append("real eigenpair fails the residual check")
        return errors

    def _verify_witness(self, code, rep):
        errors = self._expect(code, 0, rep)
        if rep is not None:
            if rep.get("rootless") is not True:
                errors.append("witness not reported rootless")
            if rep.get("witness", {}).get("coeffs") != [1, -1] + [0] * 7 + [1]:
                errors.append(f"witness coefficients {rep.get('witness')}")
        if oracles.gf9_witness_values() != {(1, 0)}:
            errors.append("a^9 - a + 1 is not identically 1 on F_9")
        return errors

    def _verify_bezout(self, code, rep):
        errors = self._expect(code, 0, rep)
        if rep is not None:
            if rep.get("counts") != {"1": 4, "2": 4} or rep.get("verdict") != "LikelyGeneric":
                errors.append(f"bezout report {rep.get('counts')} {rep.get('verdict')}")
        return errors

    def _verify_parse_error(self, code, rep):
        return self._expect(code, 2, rep, need_report=False)


WORKLOADS = {w.name: w for w in (FFSpectrum, ExtProbe, RealSearch, CliProcess)}
