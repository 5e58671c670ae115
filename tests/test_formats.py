"""JSON interchange: algebra files, solution reports, counting reports."""

import random
from fractions import Fraction

import pytest

from quadalg import (
    DimensionMismatch,
    LaurentSeries,
    ParseError,
    Polynomial,
    PrimeField,
    Rationals,
    StructureTensor,
    build_system,
    counterexample_algebra,
    genericity_probe,
    random_structure_tensor,
    solve_exhaustive,
    zero_algebra,
)
from quadalg.formats import (
    algebra_from_json,
    algebra_to_json,
    counting_report,
    element_from_json,
    element_to_json,
    load_json,
    save_json,
    solution_report,
    solutions_from_report,
)

Q = Rationals()
F3 = PrimeField(3)


def test_algebra_round_trip_rationals():
    A = counterexample_algebra(Q, Polynomial(Q, [-2, 0, 0, 1]))
    assert algebra_from_json(algebra_to_json(A)) == A


def test_algebra_round_trip_finite_field():
    rng = random.Random(3)
    A = random_structure_tensor(F3, 3, rng, commutative=False)
    assert algebra_from_json(algebra_to_json(A)) == A


def test_algebra_round_trip_laurent():
    L = LaurentSeries(Q, 8)
    alpha = [[[L.series(1, [2]), L.zero()], [L.one(), L.zero()]],
             [[L.zero(), L.series(0, [1, 1])], [L.zero(), L.one()]]]
    A = StructureTensor(L, alpha)
    assert algebra_from_json(algebra_to_json(A)) == A


def test_rational_scalars_serialize_as_fraction_strings():
    A = counterexample_algebra(Q, Polynomial(Q, [-2, 0, 0, 1]))
    obj = algebra_to_json(A)
    assert obj["alpha"][1][1][0] == "2/1"


def test_table_shorthand_expands():
    obj = {
        "field": {"kind": "prime", "p": 3},
        "dim": 2,
        "products": {"e1*e1": [0, 1], "e1*e2": [1, 0], "e2*e1": [1, 0], "e2*e2": [1, 1]},
    }
    A = algebra_from_json(obj)
    B = counterexample_algebra(F3, Polynomial(F3, [-1, -1, 0, 1]))
    assert A == B


def test_table_shorthand_rejects_bad_keys():
    base = {"field": {"kind": "prime", "p": 3}, "dim": 2}
    with pytest.raises(ParseError):
        algebra_from_json({**base, "products": {"e1e2": [0, 0]}})
    with pytest.raises(ParseError):
        algebra_from_json({**base, "products": {"e1*e3": [0, 0]}})
    with pytest.raises(ParseError):
        algebra_from_json({**base, "products": {"e1*e1": [0, 0, 0]}})


def test_algebra_file_schema_errors():
    with pytest.raises(ParseError):
        algebra_from_json({"dim": 2, "alpha": []})
    with pytest.raises(ParseError):
        algebra_from_json({"field": {"kind": "prime", "p": 3}, "dim": 2})
    with pytest.raises(ParseError):
        algebra_from_json(
            {"field": {"kind": "prime", "p": 3}, "dim": 2, "alpha": [[[0, 0]]]}
        )
    with pytest.raises(ParseError):
        algebra_from_json({"field": {"kind": "prime", "p": 3}, "dim": True, "alpha": [[[0]]]})
    base = {"field": {"kind": "prime", "p": 3}, "dim": 2}
    for alpha in (5, [5, 5], [[5, 5], [5, 5]], "ab", [[[0, 0], [0, 0]], 7]):
        with pytest.raises(ParseError):
            algebra_from_json({**base, "alpha": alpha})
    for products in ([1, 2], 5, "e1*e1"):
        with pytest.raises(ParseError):
            algebra_from_json({**base, "products": products})
    # a well-formed file beyond MAX_DIM = 16, in both forms
    zero17 = [[[0] * 17 for _ in range(17)] for _ in range(17)]
    for body in ({"alpha": zero17}, {"products": {}}, {"dim": 10**9, "products": {}}):
        with pytest.raises(DimensionMismatch):
            algebra_from_json({**base, "dim": 17, **body})


def test_element_round_trip():
    x = (Fraction(1, 2), Fraction(-3))
    assert element_from_json(Q, element_to_json(Q, x)) == x


def test_solution_report_round_trip():
    A = zero_algebra(F3, 2)
    sols = solve_exhaustive(build_system(A))
    rep = solution_report(F3, "exhaustive", sols, certified=True)
    assert rep["count"] == 5
    assert rep["engine"] == "exhaustive"
    F, parsed = solutions_from_report(rep)
    assert F == F3
    assert [s.coords for s in parsed] == [s.coords for s in sols]
    assert [s.trivial for s in parsed] == [s.trivial for s in sols]


def test_counting_report_shape():
    rep = counting_report(genericity_probe(zero_algebra(F3, 2)))
    assert rep["p"] == 3
    assert rep["counts"] == {"1": 5, "2": 11, "3": 29, "4": 83}
    assert rep["verdict"] == "LikelyPositiveDimensional"


def test_save_and_load(tmp_path):
    A = counterexample_algebra(F3, Polynomial(F3, [-1, -1, 0, 1]))
    path = tmp_path / "algebra.json"
    save_json(path, algebra_to_json(A, provenance={"note": "test"}))
    obj = load_json(path)
    assert obj["provenance"] == {"note": "test"}
    assert algebra_from_json(obj) == A


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(path)
