"""Hand-worked checks of the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py

Every expected value below was worked out by hand, not by quadalg.
"""

import math
from fractions import Fraction

import oracles


def test_normalized_vectors_cover_projective_line_once():
    rows = sorted(map(tuple, oracles.normalized_vectors(3, 2).tolist()))
    assert rows == [(0, 1), (1, 0), (1, 1), (1, 2)]


def test_one_dimensional_algebra():
    # e*e = 3e over GF(5): x^2 * 3 = lam * x, so x = 1 gives lam = 3
    assert oracles.eigen_solutions_gf([[[3]]], 5) == {(0, 1), (1, 3)}
    assert oracles.eigenvalue_gf([[[3]]], [2], 5) == 1  # 3 * 2^2 = 12 = 1 * 2 mod 5
    assert oracles.spectrum_description({(0, 1), (1, 3)}, 1) == "AllNonzero"


def test_diagonal_algebra_has_two_to_the_n_solutions():
    diag = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    sols = oracles.eigen_solutions_gf(diag, 5)
    # x = (1, c): (1, c^2) = lam (1, c) forces lam = 1 and c in {0, 1}
    assert sols == {(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)}
    assert len(sols) == oracles.diagonal_count(2) == 4
    assert oracles.is_idempotent_gf(diag, [1, 1], 5)
    assert not oracles.is_absolute_nilpotent_gf(diag, [1, 1], 5)


def test_zero_algebra_count():
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    sols = oracles.eigen_solutions_gf(zero, 3)
    # every one of the 4 points of P^1(GF(3)) with lam = 0, plus the trivial point
    assert sols == {(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 1, 0)}
    assert len(sols) == oracles.zero_algebra_count(3, 2) == 5
    assert oracles.zero_algebra_count(25, 2) == 27
    assert oracles.spectrum_description(sols, 2) == "ZeroOnly"
    assert oracles.is_absolute_nilpotent_gf(zero, [1, 2], 3)
    assert not oracles.is_absolute_nilpotent_gf(zero, [0, 0], 3)


def test_perturbation_is_subtracted():
    # zero algebra of dim 1 minus 1 * (1 * x)^2: -x^2 = lam * x, so lam = -1
    assert oracles.eigen_solutions_gf([[[0]]], 7, ([1], [(1,)])) == {(0, 1), (1, 6)}


def test_quotient_tensor_over_q():
    # t^3 = 2 on the basis t, t^2: t*t = t^2, t*t^2 = 2 (a constant, dropped),
    # t^2*t^2 = 2t
    f = Fraction
    assert oracles.quotient_tensor([-2, 0, 0, 1]) == [
        [[f(0), f(1)], [f(0), f(0)]],
        [[f(0), f(0)], [f(2), f(0)]],
    ]


def test_quotient_over_gf3_has_empty_spectrum():
    # t^3 = t + 1: t*t = t^2, t*t^2 = t + 1 -> t, t^2*t^2 = t^2 + t
    alpha = oracles.quotient_tensor([-1, -1, 0, 1], 3)
    assert alpha == [[[0, 1], [1, 0]], [[1, 0], [1, 1]]]
    sols = oracles.eigen_solutions_gf(alpha, 3)
    assert sols == {(0, 0, 1)}
    assert oracles.spectrum_description(sols, 2) == "Empty"


def test_both_eigenvalue_shapes():
    # e1*e1 = e1, e2*e2 = 0: idempotent e1 and absolute nilpotent e2
    alpha = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    assert oracles.spectrum_description(oracles.eigen_solutions_gf(alpha, 3), 2) == "AllOfF"


def test_irreducibility():
    assert oracles.is_irreducible_mod_p([1, 0, 1], 3)  # t^2 + 1 has no root mod 3
    assert not oracles.is_irreducible_mod_p([1, 0, 1], 5)  # 2^2 + 1 = 0 mod 5
    assert oracles.is_irreducible_mod_p([-1, -1, 0, 1], 3)
    assert not oracles.is_irreducible_mod_p([0, 1, 0, 0, 1], 3)  # divisible by t


def test_random_irreducible_is_monic_of_the_degree():
    import random

    f = oracles.random_irreducible(3, 5, random.Random(0))
    assert len(f) == 6 and f[-1] == 1 and oracles.is_irreducible_mod_p(f, 3)


def test_gf9_witness_takes_the_value_one():
    # a^9 = a on F_9, so a^9 - a + 1 = 1 everywhere
    assert oracles.gf9_witness_values() == {(1, 0)}


def test_real_residuals():
    alpha = [[[2.0]]]  # e*e = 2e
    assert oracles.real_unit_residual(alpha, [1.0, 2.0]) == 0.0
    assert oracles.real_unit_residual(alpha, [-0.5, -1.0]) == 0.0  # same point, rescaled
    assert oracles.real_unit_residual(alpha, [1.0, 1.0]) == 1.0
    assert oracles.real_unit_residual(alpha, [0.0, 1.0]) == math.inf
    assert oracles.real_idempotent_residual(alpha, [0.5]) == 0.0
    assert oracles.real_nilpotent_residual([[[0.0]]], [3.0]) == 0.0
    assert oracles.real_nilpotent_residual(alpha, [0.0]) == math.inf
