"""CLI subcommands, exit codes, report files, and round trips."""

import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from quadalg import cli
from quadalg.cli import main, parse_field_spec
from quadalg.fields import (
    ExtensionField,
    LaurentSeries,
    PrimeField,
    Rationals,
    Reals,
    finite_field,
)
from quadalg import errors, formats, zero_algebra, StructureTensor, random_structure_tensor
import random


def write_algebra(tmp_path, A, name="algebra.json"):
    path = tmp_path / name
    formats.save_json(path, formats.algebra_to_json(A))
    return str(path)


def _diagonal(n):
    """alpha of the algebra with e_i * e_i = e_i and all other products zero."""
    return [[[int(i == k == j) for j in range(n)] for k in range(n)] for i in range(n)]


def complex_algebra_file(tmp_path):
    R = Reals()
    C = StructureTensor(R, [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]])
    return write_algebra(tmp_path, C, "complex.json")


# ---------------------------------------------------------------------------
# field spec parsing
# ---------------------------------------------------------------------------


def test_parse_field_spec_aliases():
    assert parse_field_spec("rationals") == Rationals()
    assert parse_field_spec("Q") == Rationals()
    assert parse_field_spec("prime:13") == PrimeField(13)
    assert parse_field_spec("F9") == finite_field(9)
    assert parse_field_spec("gf9") == parse_field_spec("gf:9") == finite_field(9)
    assert parse_field_spec("gf:8") == finite_field(8)
    assert parse_field_spec("real") == Reals()
    assert parse_field_spec("real:1e-6") == Reals(1e-6)
    assert parse_field_spec("ext:3:2,2,0,1") == ExtensionField(PrimeField(3), [2, 2, 0, 1])
    assert parse_field_spec("laurent:q:8") == LaurentSeries(Rationals(), 8)
    assert parse_field_spec('{"kind":"prime","p":5}') == PrimeField(5)


def test_parse_field_spec_rejects_garbage(capsys):
    from quadalg import ParseError

    # "fgf9", "ff25" and "gff9" are not F<q> or gf<q> specs; a Laurent spec
    # needs a base alias, and a real tolerance must be finite
    for spec in ("octonions", "prime:four", "fgf9", "ff25", "gff9", "laurent:8", "laurent:",
                 "real:nan", "real:inf"):
        with pytest.raises(ParseError):
            parse_field_spec(spec)
        assert main(["witness", "--field", spec]) == 2, spec
    capsys.readouterr()


# ---------------------------------------------------------------------------
# counterexample -> solve pipelines
# ---------------------------------------------------------------------------


def test_rational_counterexample_pipeline(tmp_path, capsys):
    out = str(tmp_path / "ce_q.json")
    assert main(["counterexample", "--field", "rationals", "--modulus=-2,0,0,1", "--out", out]) == 0
    report = str(tmp_path / "solve.json")
    code = main(["solve", out, "--engine", "exact2", "--out", report])
    captured = capsys.readouterr()
    assert code == 1
    assert "provably none" in captured.out
    rep = formats.load_json(report)
    assert rep["certified"] is True and rep["count"] == 0


def test_f3_counterexample_pipeline(tmp_path, capsys):
    out = str(tmp_path / "ce_f3.json")
    assert main(["counterexample", "--field", "prime:3", "--modulus=-1,-1,0,1", "--out", out]) == 0
    assert main(["solve", out, "--engine", "exhaustive"]) == 1
    capsys.readouterr()


def test_f5_counterexample_pipeline(tmp_path):
    out = str(tmp_path / "ce_f5.json")
    assert main(["counterexample", "--field", "prime:5", "--modulus=1,1,0,1", "--out", out]) == 0
    assert main(["solve", out, "--engine", "exhaustive"]) == 1


def test_counterexample_file_reparses_identically(tmp_path):
    out = tmp_path / "ce.json"
    main(["counterexample", "--field", "prime:3", "--modulus=-1,-1,0,1", "--out", str(out)])
    obj = formats.load_json(out)
    A = formats.algebra_from_json(obj)
    assert formats.algebra_to_json(A, provenance=obj["provenance"]) == obj


def test_counterexample_exit_codes(capsys):
    assert main(["counterexample", "--field", "rationals", "--modulus=1,0,1"]) == 5
    assert main(["counterexample", "--field", "prime:3", "--modulus=0,-1,0,1"]) == 5
    # the dimension d - 1 is checked before the modulus: t^19 (reducible,
    # degree 19, dimension 18) exits 3, and t^401 + 3 is refused at once
    assert main(["counterexample", "--field", "prime:3", "--modulus=" + ",".join(["0"] * 19 + ["1"])]) == 3
    start = time.perf_counter()
    assert main(["counterexample", "--field", "rationals", "--modulus=" + ",".join(["3"] + ["0"] * 400 + ["1"])]) == 3
    assert time.perf_counter() - start < 1
    # t^7 - 3: no rational root, then Eisenstein at 3
    assert main(["counterexample", "--field", "rationals", "--modulus=-3,0,0,0,0,0,0,1"]) == 0
    capsys.readouterr()
    # t^5 - t - 1: no Eisenstein prime, certified by its irreducible reduction mod 2
    assert main(["counterexample", "--field", "rationals", "--modulus=-1,-1,0,0,0,1"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 4
    # the minimal polynomial of 2^(1/3) + 3^(1/3) is reducible mod every prime
    assert main(["counterexample", "--field", "rationals", "--modulus=-125,0,0,-87,0,0,-15,0,0,1"]) == 4
    capsys.readouterr()


def test_rational_root_search_budget_exit_6(capsys):
    # the divisor search would trial-divide 10^30 + 1 up to 10^15
    start = time.perf_counter()
    assert main(["counterexample", "--field", "rationals", f"--modulus={-(10**30) - 1},0,0,1"]) == 6
    assert time.perf_counter() - start < 2
    assert "budget" in capsys.readouterr().err


def test_solve_with_nontrivial_solutions_exits_zero(tmp_path, capsys):
    D = StructureTensor(PrimeField(5), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    path = write_algebra(tmp_path, D)
    assert main(["solve", path, "--engine", "exhaustive"]) == 0
    capsys.readouterr()


def test_solve_real_engine(tmp_path, capsys):
    path = complex_algebra_file(tmp_path)
    report = str(tmp_path / "real.json")
    assert main(["solve", path, "--engine", "real", "--out", report]) == 0
    rep = formats.load_json(report)
    assert rep["certified"] is False and rep["count"] == 1
    assert rep["solutions"][0]["residual"] <= 1e-9
    capsys.readouterr()


def test_solve_real_random_n4(tmp_path, capsys):
    rng = random.Random(29)
    A = random_structure_tensor(Reals(), 4, rng, commutative=True)
    path = write_algebra(tmp_path, A, "random4.json")
    report = str(tmp_path / "random4_sols.json")
    assert main(["solve", path, "--engine", "real", "--out", report]) == 0
    rep = formats.load_json(report)
    assert rep["solutions"][0]["residual"] <= 1e-8
    capsys.readouterr()


def test_solve_engine_field_mismatches(tmp_path, capsys):
    f3 = write_algebra(tmp_path, zero_algebra(PrimeField(3), 2), "f3.json")
    q = write_algebra(tmp_path, zero_algebra(Rationals(), 2), "q.json")
    q3 = write_algebra(tmp_path, zero_algebra(Rationals(), 3), "q3.json")
    assert main(["solve", f3, "--engine", "exact2"]) == 4
    assert main(["solve", q, "--engine", "exhaustive"]) == 4
    assert main(["solve", q, "--engine", "real"]) == 4
    assert main(["solve", q3, "--engine", "exact2"]) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_idempotent_line(tmp_path, capsys):
    path = complex_algebra_file(tmp_path)
    assert main(["check", path, "[1.0, 0.0]"]) == 0
    assert "idempotent, lambda=1" in capsys.readouterr().out


def test_check_no_eigenvalue(tmp_path, capsys):
    main(["counterexample", "--field", "prime:3", "--modulus=-1,-1,0,1", "--out", str(tmp_path / "ce.json")])
    capsys.readouterr()
    assert main(["check", str(tmp_path / "ce.json"), "[1,1]"]) == 0
    assert "no eigenvalue" in capsys.readouterr().out


def test_check_absolute_nilpotent(tmp_path, capsys):
    path = write_algebra(tmp_path, zero_algebra(PrimeField(3), 2))
    assert main(["check", path, "[1,0]"]) == 0
    assert "absolute nilpotent, lambda=0" in capsys.readouterr().out


def test_check_zero_vector_flagged(tmp_path, capsys):
    path = write_algebra(tmp_path, zero_algebra(PrimeField(3), 2))
    assert main(["check", path, "[0,0]"]) == 0
    assert "zero vector" in capsys.readouterr().out


def test_check_dimension_mismatch_exit_3(tmp_path, capsys):
    path = write_algebra(tmp_path, zero_algebra(PrimeField(3), 2))
    assert main(["check", path, "[1,0,0]"]) == 3
    capsys.readouterr()


def test_check_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", str(bad), "[1,0]"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing), "[1,0]"]) == 2
    for shape in (
        {"alpha": 5},
        {"alpha": [[1, 2], [3, 4]]},
        {"products": [1, 2]},
        {"dim": True, "alpha": [[[0]]]},
    ):
        formats.save_json(bad, {"field": {"kind": "prime", "p": 3}, "dim": 2, **shape})
        assert main(["check", str(bad), "[1,0]"]) == 2
        assert main(["solve", str(bad), "--engine", "exhaustive"]) == 2
        assert main(["spectrum", str(bad)]) == 2
    # each command takes only the tuning flags its engines read
    unread = [("solve", "--kmax"), ("spectrum", "--kmax"), ("bezout", "--tol"), ("bezout", "--restarts"),
              ("bezout", "--seed"), ("perturb", "--tol"), ("perturb", "--restarts")]
    for command, flag in unread:
        argv = [command, str(bad), flag, "1"] + (["--engine", "exact2"] if command == "solve" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_non_positive_tuning_flag_exit_2(tmp_path, capsys):
    path = write_algebra(tmp_path, StructureTensor(PrimeField(5), _diagonal(2)))
    for argv in (
        ["bezout", path, "--kmax", "0"],
        ["spectrum", path, "--restarts", "0"],
        ["solve", path, "--engine", "exhaustive", "--tol", "-1"],
        ["perturb", path, "--kmax", "-2"],
        # NaN compares False with every bound and inf accepts any iterate
        *(["solve", path, "--engine", "real", f"--tol={t}"] for t in ("nan", "inf", "-inf")),
        *(["spectrum", path, f"--tol={t}"] for t in ("nan", "inf", "-inf")),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_empty_exits_one(tmp_path, capsys):
    main(["counterexample", "--field", "prime:3", "--modulus=-1,-1,0,1", "--out", str(tmp_path / "ce.json")])
    capsys.readouterr()
    report = str(tmp_path / "spec.json")
    assert main(["spectrum", str(tmp_path / "ce.json"), "--out", report]) == 1
    rep = formats.load_json(report)
    assert rep["sigma_p"] == [] and rep["description"] == "Empty" and rep["certified"]
    capsys.readouterr()


def test_spectrum_nonempty_exits_zero(tmp_path, capsys):
    D = StructureTensor(PrimeField(5), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    path = write_algebra(tmp_path, D)
    assert main(["spectrum", path]) == 0
    assert "AllNonzero" in capsys.readouterr().out


def test_spectrum_witnesses_pass_check(tmp_path, capsys, planted_nilpotent):
    # spectrum reports what check accepts.  Over the reals both now read
    # x*x = x and x*x = 0 at the file's tol: the idempotent of "2:True:0" has
    # a pivot coordinate of 0.38, and check's eigenvalue division rejected it;
    # the planted nilpotents are ones the search returned with a coordinate
    # of x*x past tol, when it accepted every pair within residual_tol
    def e11(F):  # x*x = (x1^2, 0)
        one, zero = F.one(), F.zero()
        return StructureTensor(F, [[[one, zero], [zero, zero]], [[zero, zero], [zero, zero]]])

    cases = [
        (random_structure_tensor(Reals(), 2, random.Random("2:True:0"), commutative=True), ("idempotent",)),
        *((planted_nilpotent(*key), ("nilpotent",)) for key in ((2, True, 7), (4, False, 6), (5, True, 0))),
        (e11(PrimeField(5)), ("idempotent", "nilpotent")),
        (e11(Rationals()), ("idempotent", "nilpotent")),
    ]
    flags = {"idempotent": "idempotent", "nilpotent": "absolute_nilpotent"}
    for A, expected in cases:
        path = write_algebra(tmp_path, A)
        main(["spectrum", path, "--out", str(tmp_path / "spec.json")])
        rep = formats.load_json(tmp_path / "spec.json")
        for key in expected:
            assert rep[key] is not None, (A.field, key)
            assert main(["check", path, json.dumps(rep[key]), "--out", str(tmp_path / "check.json")]) == 0
            assert formats.load_json(tmp_path / "check.json")[flags[key]] is True, (A.field, key, rep[key])
    capsys.readouterr()


def test_real_solve_directions_pass_check(tmp_path, capsys):
    # solve --engine real reports a direction that check names an eigenvector
    # of.  10 of these 80 failed when the search stopped at |Vu - mu*u| <=
    # residual_tol on the unit vector, while check reads x*x = lam*x per
    # coordinate of the pivot-scaled direction at the file's tol
    for n in range(2, 6):
        for comm in (True, False):
            for s in range(10):
                A = random_structure_tensor(Reals(), n, random.Random(f"{n}:{comm}:{s}"), commutative=comm)
                path = write_algebra(tmp_path, A)
                solved, checked = str(tmp_path / "solve.json"), str(tmp_path / "check.json")
                assert main(["solve", path, "--engine", "real", "--seed", str(s), "--out", solved]) == 0
                coords = formats.load_json(solved)["solutions"][0]["coords"][:n]
                assert main(["check", path, json.dumps(coords), "--out", checked]) == 0
                assert formats.load_json(checked)["eigenvalue"] is not None, (n, comm, s)
    capsys.readouterr()


def test_spectrum_budget_exceeded_exit_6(tmp_path, capsys):
    # |P^15(F_3)| + 1 = 21,523,361 points: the sweep is refused before it starts
    path = tmp_path / "zero16.json"
    formats.save_json(path, {"field": {"kind": "prime", "p": 3}, "dim": 16, "products": {}})
    assert main(["spectrum", str(path)]) == 6
    capsys.readouterr()


def test_spectrum_over_large_extension_field_is_fast(tmp_path, capsys):
    # certifying t^2 + 1 over GF(10^9 + 7) takes no search over the base field
    path = tmp_path / "big.json"
    field = {"kind": "ext", "p": 1_000_000_007, "modulus": [1, 0, 1]}
    formats.save_json(path, {"field": field, "dim": 1, "products": {}})
    start = time.perf_counter()
    assert main(["spectrum", str(path)]) == 0
    assert time.perf_counter() - start < 5
    capsys.readouterr()


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,needle",
    [("gf:5", "a^5 - a + 1"), ("gf:4", "a^5 - a^2 + 1"), ("rationals", "a^3 - 2")],
)
def test_witness_reports_rootless(spec, needle, tmp_path, capsys):
    report = str(tmp_path / "wit.json")
    assert main(["witness", "--field", spec, "--out", report]) == 0
    assert needle in capsys.readouterr().out
    assert formats.load_json(report)["rootless"] is True


@pytest.mark.parametrize(
    "spec", ["prime:1000000000000000003", "gf:4001", "gf:1000000000000000003", "gf:1000006000009"]
)
def test_witness_budget_exceeded_exit_6(spec, capsys):
    # q * (q + 1) root-search steps exceed the default budget of 1e7
    start = time.perf_counter()
    assert main(["witness", "--field", spec]) == 6
    assert time.perf_counter() - start < 2
    assert "budget" in capsys.readouterr().err


def test_witness_budget_is_checked_before_the_field_is_built(capsys):
    # certifying a modulus of degree 100 over GF(3) takes seconds
    start = time.perf_counter()
    assert main(["witness", "--field", f"gf:{3**100}"]) == 6
    assert time.perf_counter() - start < 1
    assert "budget" in capsys.readouterr().err
    # a spec that names no prime power is still a parse error
    assert main(["witness", "--field", f"gf:{10**20}"]) == 2


def test_witness_unsupported_field_exit_4(capsys):
    assert main(["witness", "--field", "real"]) == 4
    assert main(["witness", "--field", "laurent:q:16"]) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# bezout and perturb
# ---------------------------------------------------------------------------


def test_bezout_diagonal_generic(tmp_path, capsys):
    D = StructureTensor(PrimeField(5), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    path = write_algebra(tmp_path, D)
    report = str(tmp_path / "bez.json")
    assert main(["bezout", path, "--kmax", "4", "--out", report]) == 0
    rep = formats.load_json(report)
    assert rep == {
        "p": 5,
        "counts": {"1": 4, "2": 4, "3": 4, "4": 4},
        "verdict": "LikelyGeneric",
        "bound": 4,
    }
    capsys.readouterr()


def test_bezout_zero_algebra_positive_dimensional(tmp_path, capsys):
    path = write_algebra(tmp_path, zero_algebra(PrimeField(3), 2))
    assert main(["bezout", path, "--kmax", "3"]) == 1
    capsys.readouterr()


def test_bezout_budget_exceeded_exit_6(tmp_path, capsys):
    # the sweep of P^3(F_625) at k = 4, 2.4e8 points, is refused before the
    # probe sweeps k = 1
    path = write_algebra(tmp_path, StructureTensor(PrimeField(5), _diagonal(4)))
    assert main(["bezout", path, "--kmax", "4"]) == 6
    capsys.readouterr()


def test_bezout_refuses_its_largest_extension_before_sweeping(tmp_path, capsys, monkeypatch):
    # k = 1..10 fit the budget and k = 11 (5^11 + 2 points) does not: exit 6
    # with no sweep run
    from quadalg import ffenum

    monkeypatch.setattr(ffenum, "solve_system", lambda *args: pytest.fail("swept before the budget check"))
    path = write_algebra(tmp_path, StructureTensor(PrimeField(5), _diagonal(2)))
    assert main(["bezout", path, "--kmax", "11"]) == 6
    assert "budget" in capsys.readouterr().err


def test_bezout_dim1_counts_without_building_extensions(tmp_path, capsys):
    # x*x = x over GF(3): (1 : 1) and the trivial point over every F_{3^k}
    path = write_algebra(tmp_path, StructureTensor(PrimeField(3), [[[1]]]))
    report = str(tmp_path / "bez.json")
    t0 = time.perf_counter()
    assert main(["bezout", path, "--kmax", "60", "--out", report]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert formats.load_json(report)["counts"] == {str(k): 2 for k in range(1, 61)}
    capsys.readouterr()


def test_bezout_dim3_kmax4_completes(tmp_path, capsys):
    path = write_algebra(tmp_path, StructureTensor(PrimeField(5), _diagonal(3)))
    report = str(tmp_path / "bez.json")
    assert main(["bezout", path, "--kmax", "4", "--out", report]) == 0
    assert formats.load_json(report)["counts"] == {str(k): 8 for k in range(1, 5)}
    capsys.readouterr()


def test_perturb_flips_zero_algebra_to_generic(tmp_path, capsys):
    path = write_algebra(tmp_path, zero_algebra(PrimeField(5), 2))
    report = str(tmp_path / "pert.json")
    code = main(["perturb", path, "--seed", "3", "--kmax", "3", "--out", report])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed: 3" in out
    rep = formats.load_json(report)
    assert rep["verdict"] == "LikelyGeneric"
    assert rep["seed"] == 3
    assert len(rep["eps"]) == 2 and len(rep["phis"]) == 2


def test_negative_seed_exit_2(tmp_path, capsys):
    # numpy's default_rng refuses a negative seed, so the config does first;
    # perturb refuses it before it prints the seed or draws a perturbation
    real = complex_algebra_file(tmp_path)
    path = write_algebra(tmp_path, zero_algebra(PrimeField(5), 2))
    for argv in (
        ["solve", real, "--engine", "real", "--seed", "-1"],
        ["spectrum", real, "--seed", "-2"],
        ["perturb", path, "--seed", "-1"],
    ):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, argv


def test_perturb_requires_prime_field(tmp_path, capsys):
    path = write_algebra(tmp_path, zero_algebra(Rationals(), 2))
    assert main(["perturb", path, "--seed", "0"]) == 4
    capsys.readouterr()


# ---------------------------------------------------------------------------
# reports re-parse to identical values
# ---------------------------------------------------------------------------


def test_solution_report_round_trip_via_cli(tmp_path):
    rng = random.Random(5)
    A = random_structure_tensor(PrimeField(5), 2, rng)
    path = write_algebra(tmp_path, A)
    report = str(tmp_path / "sols.json")
    main(["solve", path, "--engine", "exhaustive", "--out", report])
    obj = formats.load_json(report)
    F, sols = formats.solutions_from_report(obj)
    assert formats.solution_report(
        F, obj["engine"], sols, certified=obj["certified"],
        infinite_family=obj["infinite_family"],
    ) == obj


# ---------------------------------------------------------------------------
# the error contract: every outcome has a documented exit code
# ---------------------------------------------------------------------------


def test_malformed_laurent_scalar_exit_2(tmp_path, capsys):
    field = {"kind": "laurent", "base": {"kind": "rationals"}, "prec": 4}
    path = tmp_path / "laurent.json"
    formats.save_json(path, {"field": field, "dim": 1, "alpha": [[[{"nu": "x", "coeffs": [1]}]]]})
    assert main(["check", str(path), "[1]"]) == 2
    capsys.readouterr()


def test_non_finite_real_file_exit_2(tmp_path, capsys):
    # json reads the literals NaN and Infinity, and an int may have no double
    path = tmp_path / "real.json"
    huge = "1" + "0" * 400
    for tol, alpha in [("NaN", "1.0"), ("Infinity", "1.0"), ("1e-10", "NaN"),
                       ("1e-10", "-Infinity"), ("1e-10", huge)]:
        path.write_text(
            f'{{"field": {{"kind": "real", "tol": {tol}}}, "dim": 1, "alpha": [[[{alpha}]]]}}'
        )
        for argv in (["check", str(path), "[1.0]"], ["spectrum", str(path)],
                     ["solve", str(path), "--engine", "real"]):
            assert main(argv) == 2, (tol, alpha, argv)
    capsys.readouterr()


def test_dimension_beyond_max_dim_exit_3(tmp_path, capsys):
    # the library builds any dimension; only a file is capped at MAX_DIM = 16
    assert zero_algebra(PrimeField(3), 17).dim == 17
    path = tmp_path / "zero17.json"
    formats.save_json(path, {"field": {"kind": "prime", "p": 3}, "dim": 17, "products": {}})
    assert main(["check", str(path), json.dumps([0] * 17)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "exc,code",
    [
        (errors.CharTwo("x"), 4),
        (errors.ValuationViolation("x"), 4),
        (errors.DivisionByZero("x"), 4),
        (errors.NotAnEigenvector("x"), 4),
        (errors.NotNilpotentAtGivenOrder("x"), 4),
        (errors.QuadAlgError("x"), 4),
        (errors.ParseError("x"), 2),
        (IsADirectoryError("x"), 2),
        (errors.DimensionMismatch("x"), 3),
        (errors.ReducibleModulus("x"), 5),
        (errors.BudgetExceeded("x"), 6),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_package_errors_map_to_documented_codes(exc, code, monkeypatch, capsys):
    def boom(spec):
        raise exc

    monkeypatch.setattr(cli, "parse_field_spec", boom)
    assert main(["witness", "--field", "prime:3"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unexpected_exception_exit_7_with_traceback(monkeypatch, capsys):
    def boom(spec):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "parse_field_spec", boom)
    assert main(["witness", "--field", "prime:3"]) == cli.INTERNAL_ERROR == 7
    assert "Traceback (most recent call last)" in capsys.readouterr().err


# (field descriptor, strategy for its scalars)
_VALID_FIELDS = [({"kind": "prime", "p": p}, st.integers(-3, 3)) for p in (2, 3, 5, 7)] + [
    ({"kind": "rationals"}, st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3"]))),
    ({"kind": "real", "tol": 1e-8}, st.one_of(st.integers(-3, 3), st.floats(-2, 2))),
    ({"kind": "ext", "p": 3, "modulus": [1, 0, 1]}, st.lists(st.integers(0, 2), max_size=2)),
    (
        {"kind": "laurent", "base": {"kind": "prime", "p": 3}, "prec": 4},
        st.fixed_dictionaries({"nu": st.integers(-1, 2), "coeffs": st.lists(st.integers(0, 2), max_size=2)}),
    ),
]
_BAD_FIELDS = st.sampled_from([
    {"kind": "prime", "p": 4},
    {"kind": "prime", "p": 5.0},
    {"kind": "prime"},
    {"kind": "octonions"},
    "prime",
    {"kind": "ext", "p": 3, "modulus": [1, 2, 1]},
    {"kind": "real", "tol": "x"},
    {"kind": "laurent", "base": {"kind": "rationals"}, "prec": 2.5},
])
_BAD_SCALARS = st.sampled_from(
    ["x", "1/0", "", 1.5, True, None, [7], {"nu": "x", "coeffs": [1]}, {"nu": 0, "coeffs": 3}]
)


@st.composite
def _cli_inputs(draw):
    """An algebra file (dim <= 3) and an element, with at most one fault."""
    field, scalar = draw(st.sampled_from(_VALID_FIELDS))
    n = draw(st.integers(1, 3))
    fault = draw(st.sampled_from([None, None, None, "field", "dim", "scalar", "shape"]))
    if fault == "scalar":
        scalar = st.one_of(scalar, _BAD_SCALARS)
    side = n + 1 if fault == "shape" else n
    obj = {"field": draw(_BAD_FIELDS) if fault == "field" else field}
    obj["dim"] = draw(st.sampled_from([0, n + 1, 17, "2", True])) if fault == "dim" else n
    vec = st.lists(scalar, min_size=side, max_size=side)
    if draw(st.booleans()):
        obj["alpha"] = draw(st.lists(st.lists(vec, min_size=side, max_size=side), min_size=side, max_size=side))
    else:
        keys = st.sampled_from([f"e{i}*e{k}" for i in range(1, side + 1) for k in range(1, side + 1)])
        obj["products"] = draw(st.dictionaries(keys, vec, max_size=3))
    return obj, draw(vec)


_COMMANDS = st.sampled_from([
    ["solve", "{alg}", "--engine", "exhaustive"],
    ["solve", "{alg}", "--engine", "exact2"],
    ["solve", "{alg}", "--engine", "real", "--restarts", "3"],
    ["spectrum", "{alg}", "--restarts", "3"],
    ["bezout", "{alg}", "--kmax", "2"],
    ["perturb", "{alg}", "--kmax", "1"],
])


@settings(max_examples=150, deadline=None)
@given(_cli_inputs(), _COMMANDS)
def test_fuzzed_files_exit_with_documented_codes(inputs, command):
    """Exit 0/1 only after an engine completed and wrote its report; no crash."""
    obj, element = inputs
    with tempfile.TemporaryDirectory() as tmp:
        alg = os.path.join(tmp, "a.json")
        out = os.path.join(tmp, "report.json")
        with open(alg, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        for argv in ([a.format(alg=alg) for a in command], ["check", alg, json.dumps(element)]):
            code = main(argv + ["--out", out])
            assert code in range(7), (argv, obj)
            if code in (0, 1):
                assert isinstance(formats.load_json(out), dict)
                os.remove(out)
            else:
                assert not os.path.exists(out)


@settings(max_examples=150, deadline=None)
@given(st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["field", "dim", "alpha", "products", "kind", "p"]),
                                            inner, max_size=4)),
    max_leaves=12,
))
def test_algebra_from_json_raises_only_package_errors(obj):
    try:
        formats.algebra_from_json(obj)
    except errors.QuadAlgError:
        pass


# ---------------------------------------------------------------------------
# numpy, the solver and dataclasses are loaded only by commands that use them
# ---------------------------------------------------------------------------


_IMPORT_PROBE = """
import json, sys
import quadalg, quadalg.cli
watch = json.loads(sys.argv[2])
assert not any(m in sys.modules for m in watch), "import quadalg.cli loaded " + repr(watch)
for argv in json.loads(sys.argv[1]):
    code = quadalg.cli.main(argv)
    print(json.dumps([argv[0], code, [m for m in watch if m in sys.modules]]))
"""


def _src():
    return os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _loaded_after(argvs, watch=("numpy",)):
    """[command, exit code, watched modules loaded so far] for each argv, in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs), json.dumps(watch)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=_src()), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]


def test_exact_commands_do_not_import_numpy(tmp_path):
    ff = write_algebra(tmp_path, StructureTensor(PrimeField(5), _diagonal(2)), "ff.json")
    F9 = finite_field(9)
    diag9 = [[[F9.from_int(c) for c in row] for row in plane] for plane in _diagonal(2)]
    ff9 = write_algebra(tmp_path, StructureTensor(F9, diag9), "ff9.json")
    bad = tmp_path / "bad.json"
    formats.save_json(bad, {"field": {"kind": "prime", "p": 3}, "dim": 2, "alpha": 5})
    ce = str(tmp_path / "ce.json")
    argvs = [
        ["counterexample", "--field", "rationals", "--modulus=-2,0,0,1", "--out", ce],
        ["solve", ce, "--engine", "exact2"],
        ["spectrum", ce],
        ["check", ff, "[1, 0]"],
        ["witness", "--field", "gf:9"],
        ["solve", str(bad), "--engine", "exhaustive"],
        ["witness", "--field", "gf:25"],
        ["check", ff9, "[[1, 0], [0, 0]]"],
    ]
    got = _loaded_after(argvs)
    assert [(cmd, code) for cmd, code, _ in got] == [
        ("counterexample", 0), ("solve", 1), ("spectrum", 1), ("check", 0), ("witness", 0), ("solve", 2),
        ("witness", 0), ("check", 0),
    ]
    assert not any(loaded for _, _, loaded in got)
    # the probe can see an import: the finite-field sweep loads numpy
    assert _loaded_after([["solve", ff, "--engine", "exhaustive"]]) == [["solve", 0, ["numpy"]]]


def test_commands_without_an_engine_load_no_solver(tmp_path):
    watch = ["quadalg.solver", "quadalg.ffenum", "numpy", "dataclasses"]
    ff = write_algebra(tmp_path, StructureTensor(PrimeField(5), _diagonal(2)), "ff.json")
    bad = tmp_path / "bad.json"
    formats.save_json(bad, {"field": {"kind": "prime", "p": 3}, "dim": 2, "alpha": 5})
    argvs = [
        ["counterexample", "--field", "prime:3", "--modulus=-1,-1,0,1", "--out", str(tmp_path / "ce.json")],
        ["check", ff, "[1, 0]"],
        ["witness", "--field", "gf:9"],
        ["solve", str(bad), "--engine", "exhaustive"],
    ]
    got = _loaded_after(argvs, watch)
    assert got == [["counterexample", 0, []], ["check", 0, []], ["witness", 0, []], ["solve", 2, []]]
    # an engine command loads the solver, and the probe sees it
    assert _loaded_after([["solve", ff, "--engine", "exhaustive"]], watch)[0][2] == watch[:3]


_PACKAGE_PROBE = """
import sys
import quadalg
print(sorted(m for m in sys.modules if m.startswith("quadalg")))
listed = dir(quadalg)  # before any name is resolved
assert all(name in listed for name in quadalg.__all__)
ns = {}
exec("from quadalg import *", ns)
assert sorted(set(ns) - {"__builtins__"}) == sorted(quadalg.__all__)
assert all(hasattr(quadalg, name) for name in quadalg.__all__)
assert quadalg.solver.solve_real is quadalg.solve_real  # submodules as attributes
assert quadalg.cli.main and quadalg.ffenum.solve_system
try:
    quadalg.no_such_name
except AttributeError:
    print("ok")
"""


def test_package_names_load_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", _PACKAGE_PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_src()), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["['quadalg']", "ok"]


def test_closed_stdout_exits_141_without_traceback():
    # the reader of stdout is gone before the report is written, as in
    # `quadalg counterexample ... | true`
    src = _src()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadalg", "counterexample", "--field", "rationals",
             "--modulus=-1,-1,0,0,0,1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.BROKEN_PIPE == 141
    assert proc.stderr == ""
