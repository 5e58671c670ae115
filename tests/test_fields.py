"""Field backends: axioms, polynomial utilities, Laurent valuation machinery."""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from quadalg import (
    BudgetExceeded,
    DivisionByZero,
    ExtensionField,
    LaurentSeries,
    NotInValuationRing,
    NotIntegerCoefficients,
    ParseError,
    Polynomial,
    PrimeField,
    Rationals,
    Reals,
    ReducibleModulus,
    UnsupportedField,
    ZeroSeries,
    eisenstein_irreducible,
    field_from_json,
    finite_field,
    poly_has_root,
    polynomial_roots,
)
from quadalg import fields as fields_module
from quadalg.fields import certify_irreducible, is_prime

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F27 = ExtensionField(F3, [-1, -1, 0, 1])  # t^3 - t - 1


def naive_eval(F, coeffs, a):
    """Power-sum evaluation, independent of the Horner routine under test."""
    acc = F.zero()
    for i, c in enumerate(coeffs):
        term = c
        for _ in range(i):
            term = F.mul(term, a)
        acc = F.add(acc, term)
    return acc


# ---------------------------------------------------------------------------
# arithmetic and axioms
# ---------------------------------------------------------------------------


def test_rational_add():
    assert Q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def test_prime_mul_wraps():
    assert F3.mul(2, 2) == 1


def test_extension_mul_reduces_by_modulus():
    t = F27.gen()
    t2 = F27.mul(t, t)
    # t^3 = t + 1 under the modulus
    assert F27.mul(t2, t) == (1, 1, 0)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Q.div(Fraction(1), Fraction(0))
    with pytest.raises(DivisionByZero):
        F5.inv(0)
    L = LaurentSeries(Q)
    with pytest.raises(DivisionByZero):
        L.inv(L.zero())


@pytest.mark.parametrize(
    "F", [Q, F5, F27, finite_field(4), LaurentSeries(Q)], ids=lambda F: repr(F)
)
def test_field_axioms_random_triples(F):
    rng = random.Random(20240907)
    zero, one = F.zero(), F.one()
    for _ in range(1000):
        a, b, c = F.random(rng), F.random(rng), F.random(rng)
        assert F.eq(F.add(a, b), F.add(b, a))
        assert F.eq(F.add(F.add(a, b), c), F.add(a, F.add(b, c)))
        assert F.eq(F.mul(a, b), F.mul(b, a))
        assert F.eq(F.mul(F.mul(a, b), c), F.mul(a, F.mul(b, c)))
        assert F.eq(F.mul(a, F.add(b, c)), F.add(F.mul(a, b), F.mul(a, c)))
        assert F.eq(F.add(a, zero), a)
        assert F.eq(F.mul(a, one), a)
        assert F.eq(F.add(a, F.neg(a)), zero)
        if not F.is_zero(a):
            assert F.eq(F.mul(a, F.inv(a)), one)
            assert F.eq(F.div(b, a), F.mul(b, F.inv(a)))


def test_reals_equality_tolerance():
    R = Reals(1e-10)
    assert R.eq(1.0, 1.0 + 1e-12)
    assert not R.eq(1.0, 1.0 + 1e-8)
    assert not R.is_exact


def test_extension_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        ExtensionField(F3, [-1, 0, 1])  # t^2 - 1 = (t-1)(t+1)


def test_extension_characteristic_and_order():
    assert F27.characteristic == 3
    assert F27.order == 27
    assert len(list(F27.elements())) == 27


def test_scalar_index_round_trip():
    for i in range(27):
        assert F27.scalar_index(F27.scalar_from_index(i)) == i


# ---------------------------------------------------------------------------
# the sweep's digit arithmetic (ffenum.digit_ops) against the polynomial route
# ---------------------------------------------------------------------------


def _check_digit_ops(F, pairs):
    """Digit products (``dmul``) and digit-wise sums of indices against
    multiply-and-reduce and digit-wise addition on tuples, the index round
    trip, and extended-Euclid inverses, whose digit product with x is 1."""
    import numpy as np

    from quadalg import ffenum

    D, B, p = ffenum.digit_ops(F), F.base, F.base.p
    a, b = (D.digits(np.array([F.scalar_index(x) for x in xs])) for xs in zip(*pairs))
    prods, sums = (D.place @ D.dmul(a, b)).tolist(), (D.place @ ((a + b) % p)).tolist()
    for (x, y), xy, s in zip(pairs, prods, sums):
        assert F.scalar_from_index(xy) == F.mul(x, y)
        assert F.scalar_from_index(s) == F.add(x, y) == tuple(B.add(u, v) for u, v in zip(x, y))
        assert F.sub(x, y) == tuple(B.sub(u, v) for u, v in zip(x, y))
        i = sum(c * p**e for e, c in enumerate(x))
        assert F.scalar_index(x) == i and F.scalar_from_index(i) == x
    units = [x for x, _ in pairs if not F.is_zero(x)]
    for x in [x for x, _ in pairs if F.is_zero(x)]:
        with pytest.raises(DivisionByZero):
            F.inv(x)
    x, inv = (D.digits(np.array([F.scalar_index(u) for u in us])) for us in (units, map(F.inv, units)))
    assert (D.place @ D.dmul(x, inv) == 1).all()


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 125])
def test_digit_ops_match_polynomial_route_on_every_pair(q):
    F = finite_field(q)
    elems = list(F.elements())
    _check_digit_ops(F, list(itertools.product(elems, repeat=2)))
    assert [F.scalar_from_index(i) for i in range(q)] == elems


@pytest.mark.parametrize("q", [625, 2**16])
def test_digit_ops_match_polynomial_route_on_seeded_pairs(q):
    F = finite_field(q)
    rng = random.Random(q)
    pairs = [(F.random(rng), F.random(rng)) for _ in range(10_000)]
    _check_digit_ops(F, pairs + [(F.zero(), F.one()), (F.one(), F.zero())])


def test_extension_arithmetic_does_not_import_numpy():
    code = (
        "import sys; from quadalg.fields import finite_field; "
        "F = finite_field(625); a = F.mul(F.gen(), F.gen()); F.inv(a); F.add(a, a); "
        "print('numpy' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fields_module.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def test_root_witness_cubic_over_f3():
    f = Polynomial(F3, [1, -1, 0, 1], var="a")  # a^3 - a + 1
    assert poly_has_root(f) == (False, None)


def test_root_witness_cube_root_of_two():
    f = Polynomial(Q, [-2, 0, 0, 1], var="a")
    assert poly_has_root(f) == (False, None)


def test_root_witness_square_minus_one():
    f = Polynomial(Q, [-1, 0, 1], var="a")
    has, root = poly_has_root(f)
    assert has and f(root) == 0


def test_root_witness_char_two_variant():
    f = Polynomial(F2, [1, 0, -1, 1], var="a")  # a^3 - a^2 + 1
    assert poly_has_root(f) == (False, None)


@pytest.mark.parametrize("F", [F3, F5, finite_field(4), finite_field(9)], ids=repr)
def test_finite_root_search_matches_naive_evaluation(F):
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [F.random(rng) for _ in range(rng.randint(1, 5))]
        if all(F.is_zero(c) for c in coeffs):
            coeffs.append(F.one())
        f = Polynomial(F, coeffs)
        expected = sorted(
            (a for a in F.elements() if F.is_zero(naive_eval(F, f.coeffs, a))),
            key=F.scalar_index,
        )
        assert sorted(polynomial_roots(f), key=F.scalar_index) == expected


def test_rational_roots_with_denominators():
    # (2x - 1)(3x + 2)(x - 5) has roots 1/2, -2/3, 5
    f = Polynomial(Q, [Fraction(1)])
    for r in (Fraction(1, 2), Fraction(-2, 3), Fraction(5)):
        f = f * Polynomial(Q, [-r, Fraction(1)])
    assert set(polynomial_roots(f)) == {Fraction(1, 2), Fraction(-2, 3), Fraction(5)}


def test_finite_root_scan_checks_its_budget_first():
    # a^3 + 3 over GF(10^9 + 7) takes 4 * 10^9 Horner steps: refused before
    # the scan, which otherwise runs for minutes
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        poly_has_root(Polynomial(PrimeField(1_000_000_007), [3, 0, 0, 1]))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# Eisenstein
# ---------------------------------------------------------------------------


def test_eisenstein_cube_root_of_two():
    assert eisenstein_irreducible(Polynomial(Q, [-2, 0, 0, 1]), 2) is True


def test_eisenstein_fails_on_square_minus_one():
    assert eisenstein_irreducible(Polynomial(Q, [-1, 0, 1]), 2) is False


def test_eisenstein_quintic():
    # t^5 + 6t + 3: constant 3, middle 6 divisible by 3, 9 does not divide 3
    assert eisenstein_irreducible(Polynomial(Q, [3, 6, 0, 0, 0, 1]), 3) is True


def test_eisenstein_rejects_fractions():
    with pytest.raises(NotIntegerCoefficients):
        eisenstein_irreducible(Polynomial(Q, [Fraction(1, 2), Fraction(1)]), 2)


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def _monic(F, d):
    """Every monic polynomial of degree d over the finite field F."""
    for tail in itertools.product(list(F.elements()), repeat=d):
        yield Polynomial(F, list(tail) + [F.one()])


def _mobius(n):
    out, m = 1, 2
    while m * m <= n:
        if n % m == 0:
            n //= m
            if n % m == 0:
                return 0
            out = -out
        m += 1
    return -out if n > 1 else out


@pytest.mark.parametrize(
    "F,dmax",
    [(F2, 8), (F3, 5), (F5, 4), (finite_field(4), 3), (finite_field(9), 3)],
    ids=lambda x: repr(x),
)
def test_irreducible_count_matches_gauss(F, dmax):
    q = F.order
    for d in range(1, dmax + 1):
        gauss = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        assert sum(certify_irreducible(f) for f in _monic(F, d)) == gauss, d


def _divides_mod_p(g, f, p):
    """True when the monic g divides f over GF(p) (int coefficients, low to high)."""
    f = [c % p for c in f]
    while len(f) >= len(g):
        c = f.pop()
        for i in range(len(g) - 1):
            f[len(f) - len(g) + 1 + i] = (f[len(f) - len(g) + 1 + i] - c * g[i]) % p
    return not any(f)


def test_irreducibility_agrees_with_trial_division_over_f3():
    for d in range(1, 6):
        for f in _monic(F3, d):
            reducible = any(
                _divides_mod_p(list(tail) + [1], list(f.coeffs), 3)
                for e in range(1, d // 2 + 1)
                for tail in itertools.product(range(3), repeat=e)
            )
            assert certify_irreducible(f) is not reducible, f


@pytest.mark.parametrize(
    "q,modulus",
    [
        (4, (1, 1, 1)),
        (9, (1, 0, 1)),
        (25, (1, 1, 1)),
        (125, (1, 0, 1, 1)),
        (169, (1, 3, 1)),
        (625, (1, 0, 1, 1, 1)),
        (3125, (1, 0, 0, 0, 4, 1)),
        (59049, (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1)),
        (65536, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)),
    ],
)
def test_finite_field_canonical_modulus(q, modulus):
    assert finite_field(q).modulus == modulus


@pytest.mark.parametrize("q", [3**40, 7**9])
def test_finite_field_large_degree_is_fast(q):
    start = time.perf_counter()
    F = finite_field.__wrapped__(q)  # bypass the cache: time the search itself
    assert time.perf_counter() - start < 2
    assert F.order == q


def test_rational_irreducibility_by_reduction_mod_p():
    # t^5 - t - 1 has no Eisenstein prime, but is irreducible mod 2
    assert certify_irreducible(Polynomial(Q, [-1, -1, 0, 0, 0, 1]))
    # t^5 + (2/3)t + 2/3: Eisenstein at 2 on the integer form 3t^5 + 2t + 2
    assert certify_irreducible(Polynomial(Q, [Fraction(2, 3), Fraction(2, 3), 0, 0, 0, 1]))
    # t^4 + 1 and the minimal polynomial of 2^(1/3) + 3^(1/3) are irreducible
    # but reducible mod every prime: no certificate, and no guess
    for coeffs in ([1, 0, 0, 0, 1], [-125, 0, 0, -87, 0, 0, -15, 0, 0, 1]):
        with pytest.raises(UnsupportedField):
            certify_irreducible(Polynomial(Q, coeffs))


def test_rational_products_are_never_certified():
    rng = random.Random(20140301)
    certified = 0
    for _ in range(1000):
        f = Polynomial(Q, [1])
        for _ in range(2):
            d = rng.randint(1, 4)
            f = f * Polynomial(Q, [rng.randint(-6, 6) for _ in range(d)] + [rng.choice([-3, -2, -1, 1, 2, 3])])
        try:
            certified += certify_irreducible(f)
        except UnsupportedField:
            pass
    assert certified == 0


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------

L = LaurentSeries(Q, 16)


def test_valuation_of_leading_exponent():
    assert L.valuation(L.series(2, [1, 1])) == 2


def test_valuation_of_regular_constant():
    assert L.valuation(L.series(0, [3, 1])) == 0


def test_valuation_additive_under_product():
    a = L.series(1, [1, 1])
    b = L.series(-1, [2, 0, 1])
    ab = L.mul(a, b)
    assert L.valuation(ab) == 0
    # (1+t)(2+t^2) = 2 + 2t + t^2 + t^3
    assert ab == L.series(0, [2, 2, 1, 1])


def test_valuation_of_zero_raises():
    with pytest.raises(ZeroSeries):
        L.valuation(L.zero())


def test_residue_decompose_examples():
    const, tail = L.residue_decompose(L.series(0, [5, 2, 0, 1]))
    assert const == Fraction(5)
    assert tail == L.series(1, [2, 0, 1])
    const, tail = L.residue_decompose(L.series(2, [1]))
    assert const == 0 and tail == L.series(2, [1])


def test_residue_decompose_rejects_poles():
    with pytest.raises(NotInValuationRing):
        L.residue_decompose(L.series(-1, [1]))


def test_residue_decompose_round_trip_random():
    rng = random.Random(99)
    for _ in range(100):
        a = L.series(rng.randint(0, 3), [Q.random(rng) for _ in range(rng.randint(1, 5))])
        const, tail = L.residue_decompose(a)
        assert L.add(L.embed(const), tail) == a
        if not L.is_zero(tail):
            assert L.valuation(tail) >= 1
        if not Q.is_zero(const):
            assert L.valuation(L.embed(const)) == 0


def test_laurent_truncation_on_multiply():
    prec = 4
    Ls = LaurentSeries(Q, prec)
    a = Ls.series(0, [1, 1, 1, 1])
    sq = Ls.mul(a, a)
    assert len(sq[1]) <= prec


# ---------------------------------------------------------------------------
# construction helpers and serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,char", [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)])
def test_finite_field_constructor(q, char):
    F = finite_field(q)
    assert F.order == q
    assert F.characteristic == char
    assert len(set(map(F.scalar_index, F.elements()))) == q


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if _trial_division(n)
    ]


def test_is_prime_decides_large_moduli():
    assert PrimeField(10**18 + 3).p == 10**18 + 3
    for composite in (10**18 + 1, 3215031751):  # the latter: a strong pseudoprime to 2, 3, 5, 7
        assert not is_prime(composite)
        with pytest.raises(ValueError):
            PrimeField(composite)
    # beyond the bound where the fixed bases are proven to decide
    with pytest.raises(ValueError):
        is_prime(3_317_044_064_679_887_385_961_981)


def test_finite_field_rejects_non_prime_powers():
    for q in (6, 36, 10**18, 2**61 + 1):
        with pytest.raises(ValueError):
            finite_field(q)


def test_finite_field_finds_p_by_integer_roots():
    # no trial division up to sqrt(q): a 61-bit prime is found at once
    assert finite_field(2**61 - 1) == PrimeField(2**61 - 1)
    assert repr(finite_field(3**5)) == "GF(3^5)"
    assert repr(finite_field(2**16)) == "GF(2^16)"


def test_public_names_resolve():
    import quadalg

    assert len(quadalg.__all__) == len(set(quadalg.__all__)) == 65
    assert all(hasattr(quadalg, name) for name in quadalg.__all__)
    # module-level aliases of methods: F.add, F.to_json(), L.valuation,
    # L.residue_decompose, A.multiply, A.square, A.symmetrize
    for gone in ("field_arith", "field_to_json", "laurent_valuation", "residue_decompose",
                 "multiply", "quadratic_operator", "symmetrize"):
        assert not hasattr(quadalg, gone), gone


@pytest.mark.parametrize(
    "F",
    [Q, F3, F27, Reals(), Reals(1e-6), LaurentSeries(Q, 8), LaurentSeries(F5)],
    ids=lambda F: repr(F),
)
def test_descriptor_json_round_trip(F):
    assert field_from_json(F.to_json()) == F


def test_rational_scalar_serialization():
    assert Q.scalar_to_json(Fraction(-3, 7)) == "-3/7"
    assert Q.scalar_from_json("-3/7") == Fraction(-3, 7)
    assert Q.scalar_from_json(5) == Fraction(5)


@pytest.mark.parametrize(
    "d",
    [{"kind": "prime", "p": 5.0}, {"kind": "prime", "p": True},
     {"kind": "laurent", "base": {"kind": "rationals"}, "prec": 2.5}],
)
def test_descriptor_rejects_non_int_parameters(d):
    with pytest.raises(ParseError):
        field_from_json(d)


def test_ext_descriptor_reduces_mod_p():
    F = field_from_json({"kind": "ext", "p": 3, "modulus": [-1, -1, 0, 1]})
    assert F == F27


@pytest.mark.parametrize(
    "v",
    [{"nu": "x", "coeffs": [1]}, {"nu": True, "coeffs": [1]}, {"nu": 1.5, "coeffs": [1]},
     {"nu": 0, "coeffs": 3}, {"nu": 0, "coeffs": "12"}, {"nu": 0}, [0, [1]]],
)
def test_laurent_scalar_from_json_rejects_malformed(v):
    with pytest.raises(ParseError):
        L.scalar_from_json(v)


def test_laurent_scalar_serialization_round_trip():
    a = L.series(-2, [1, 0, 3])
    assert L.scalar_from_json(L.scalar_to_json(a)) == a
    assert L.scalar_to_json(L.zero()) == {"nu": 0, "coeffs": []}
