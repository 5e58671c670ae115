"""Structure tensors, the squaring operator, canonical elements, constructions."""

import random
from fractions import Fraction

import pytest

from quadalg import (
    CharTwo,
    DimensionMismatch,
    EvenOrTrivialDegree,
    NotAnEigenvector,
    NotAnExtensionField,
    NotNilpotentAtGivenOrder,
    ExtensionField,
    Polynomial,
    PrimeField,
    Rationals,
    Reals,
    ReducibleModulus,
    SigmaDescription,
    SolveConfig,
    SpectrumReport,
    StructureTensor,
    UnsupportedField,
    ZeroVector,
    absolute_nilpotent_from_nilpotent,
    circle_product,
    classify_spectrum,
    counterexample_algebra,
    eigencheck,
    eigenvalue_set,
    finite_field,
    is_absolute_nilpotent,
    is_idempotent,
    matrix_algebra,
    power,
    random_structure_tensor,
    rescale_to_canonical,
    restrict_scalars,
    solve_real,
    unit_eigenpair,
    zero_algebra,
)
from quadalg.algebra import flatten_element, is_zero_vector, nonzero_vectors

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
R = Reals()


def complex_as_real_algebra():
    # basis (1, i): 1*1 = 1, 1*i = i*1 = i, i*i = -1
    return StructureTensor(
        R, [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]]
    )


def f3_counterexample():
    return counterexample_algebra(F3, Polynomial(F3, [-1, -1, 0, 1]))


def q_counterexample():
    return counterexample_algebra(Q, Polynomial(Q, [-2, 0, 0, 1]))


# ---------------------------------------------------------------------------
# multiplication and the squaring operator
# ---------------------------------------------------------------------------


def test_one_dimensional_field_algebra():
    A = StructureTensor(Q, [[[Fraction(1)]]])
    assert A.multiply(A.element([2]), A.element([3])) == (Fraction(6),)


def test_complex_multiplication():
    C = complex_as_real_algebra()
    assert C.multiply((0.0, 1.0), (0.0, 1.0)) == (-1.0, 0.0)


def test_counterexample_table_product():
    B = f3_counterexample()
    assert B.multiply(B.element([1, 0]), B.element([0, 1])) == (1, 0)


def test_multiply_dimension_mismatch():
    A = StructureTensor(Q, [[[Fraction(1)]]])
    with pytest.raises(DimensionMismatch):
        A.multiply((Fraction(1), Fraction(2)), (Fraction(1),))


def test_bilinearity_random():
    rng = random.Random(5)
    for F in (Q, F5):
        A = random_structure_tensor(F, 3, rng, commutative=False)
        for _ in range(30):
            a, b = F.random(rng), F.random(rng)
            x = tuple(F.random(rng) for _ in range(3))
            xp = tuple(F.random(rng) for _ in range(3))
            y = tuple(F.random(rng) for _ in range(3))
            lhs = A.multiply(
                tuple(F.add(F.mul(a, u), F.mul(b, v)) for u, v in zip(x, xp)), y
            )
            rhs = tuple(
                F.add(F.mul(a, u), F.mul(b, v))
                for u, v in zip(A.multiply(x, y), A.multiply(xp, y))
            )
            assert all(F.eq(u, v) for u, v in zip(lhs, rhs))


def test_squaring_map_homogeneity():
    rng = random.Random(6)
    A = random_structure_tensor(F5, 3, rng)
    for _ in range(50):
        c = F5.random(rng)
        x = tuple(F5.random(rng) for _ in range(3))
        want = tuple(F5.mul(F5.mul(c, c), v) for v in A.square(x))
        assert A.square(tuple(F5.mul(c, v) for v in x)) == want


def test_squaring_of_zero():
    B = f3_counterexample()
    assert B.square(B.zero_element()) == (0, 0)


def test_counterexample_squaring_formula():
    # V((a, b)) = (2ab + b^2, a^2 + b^2) for the GF(3) quotient algebra
    B = f3_counterexample()
    for a in range(3):
        for b in range(3):
            want = ((2 * a * b + b * b) % 3, (a * a + b * b) % 3)
            assert B.square((a, b)) == want
    assert B.square((1, 1)) == (0, 2)


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------


def test_symmetrize_fixes_symmetric_tensor():
    rng = random.Random(8)
    A = random_structure_tensor(F5, 3, rng, commutative=True)
    assert A.symmetrize() == A


def test_symmetrize_averages():
    A = StructureTensor(
        Q,
        [
            [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]],
            [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]],
        ],
    )
    S = A.symmetrize()
    assert S.alpha[0][1][0] == Fraction(1, 2)
    assert S.alpha[1][0][0] == Fraction(1, 2)
    assert S.is_commutative()


def test_symmetrize_preserves_squaring_map():
    rng = random.Random(9)
    A = random_structure_tensor(F5, 2, rng, commutative=False)
    S = A.symmetrize()
    count = 0
    for x in nonzero_vectors(F5, 2):
        assert A.square(x) == S.square(x)
        count += 1
    assert count == 24


def test_symmetrize_char_two_rejected():
    A = zero_algebra(F2, 2)
    with pytest.raises(CharTwo):
        A.symmetrize()


# ---------------------------------------------------------------------------
# idempotents, nilpotents, eigenvectors
# ---------------------------------------------------------------------------


def test_complex_unit_is_idempotent():
    C = complex_as_real_algebra()
    assert is_idempotent(C, (1.0, 0.0))
    assert eigencheck(C, (1.0, 0.0)) == pytest.approx(1.0)


def test_null_square_basis_vector_is_absolute_nilpotent():
    A = zero_algebra(Q, 2)
    assert is_absolute_nilpotent(A, A.element([1, 0]))


def test_counterexample_has_no_canonical_elements():
    B = f3_counterexample()
    seen = 0
    for x in nonzero_vectors(F3, 2):
        assert not is_idempotent(B, x)
        assert not is_absolute_nilpotent(B, x)
        assert eigencheck(B, x) is None
        seen += 1
    assert seen == 8


def test_eigencheck_on_complex_imaginary_unit():
    C = complex_as_real_algebra()
    assert eigencheck(C, (0.0, 1.0)) is None


def test_eigencheck_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        eigencheck(zero_algebra(Q, 2), (Fraction(0), Fraction(0)))


def test_rescale_halves_doubling_eigenvector():
    A = StructureTensor(Q, [[[Fraction(2)]]])
    x = A.element([1])
    assert eigencheck(A, x) == Fraction(2)
    z = rescale_to_canonical(A, x, Fraction(2))
    assert z == (Fraction(1, 2),)
    assert is_idempotent(A, z)


def test_rescale_identity_for_lambda_one():
    C = complex_as_real_algebra()
    assert rescale_to_canonical(C, (1.0, 0.0), 1.0) == (1.0, 0.0)


def test_rescale_random_diagonal_over_f5():
    rng = random.Random(11)
    for _ in range(20):
        c = rng.randrange(1, 5)
        A = StructureTensor(F5, [[[c]]])
        e = (1,)
        lam = eigencheck(A, e)
        assert lam == c
        z = rescale_to_canonical(A, e, lam)
        assert is_idempotent(A, z)


def test_rescale_rejects_wrong_lambda():
    A = StructureTensor(Q, [[[Fraction(2)]]])
    with pytest.raises(NotAnEigenvector):
        rescale_to_canonical(A, A.element([1]), Fraction(3))


# ---------------------------------------------------------------------------
# quotient construction
# ---------------------------------------------------------------------------


def test_quotient_table_over_rationals():
    A = q_counterexample()
    e1, e2 = A.element([1, 0]), A.element([0, 1])
    assert A.multiply(e1, e1) == (0, 1)
    assert A.multiply(e1, e2) == (0, 0)
    assert A.multiply(e2, e1) == (0, 0)
    assert A.multiply(e2, e2) == (2, 0)
    assert A.is_commutative()


def test_quotient_table_over_f3():
    A = f3_counterexample()
    e1, e2 = A.element([1, 0]), A.element([0, 1])
    assert A.multiply(e1, e1) == (0, 1)
    assert A.multiply(e1, e2) == (1, 0)
    assert A.multiply(e2, e2) == (1, 1)
    assert A.is_commutative()


def test_quotient_rejects_even_or_trivial_degree():
    with pytest.raises(EvenOrTrivialDegree):
        counterexample_algebra(Q, Polynomial(Q, [1, 0, 1]))
    with pytest.raises(EvenOrTrivialDegree):
        counterexample_algebra(Q, Polynomial(Q, [1, 1]))


def test_quotient_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        counterexample_algebra(F3, Polynomial(F3, [0, -1, 0, 1]))  # t^3 - t


def test_quotient_of_degree_seven_rational_modulus():
    # t^7 - 3 is certified by Eisenstein at 3 once its root search finds no root
    A = counterexample_algebra(Q, Polynomial(Q, [-3, 0, 0, 0, 0, 0, 0, 1]))
    assert A.dim == 6
    assert A.is_commutative()


def test_quotient_rejects_inexact_field():
    with pytest.raises(UnsupportedField):
        counterexample_algebra(R, Polynomial(R, [-2.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "F,mod", [(Q, [-2, 0, 0, 1]), (F3, [-1, -1, 0, 1])], ids=["QQ", "GF(3)"]
)
def test_constant_line_is_an_ideal_for_circle_product(F, mod):
    phi = ExtensionField(F, mod)
    rng = random.Random(13)
    zero = phi.zero()
    for _ in range(50):
        c = F.random(rng)
        x = phi.embed(c)  # element of the constant line
        y = phi.random(rng)
        assert circle_product(phi, x, y) == zero
        assert circle_product(phi, y, x) == zero


# ---------------------------------------------------------------------------
# restriction of scalars
# ---------------------------------------------------------------------------


def test_restrict_gaussian_rationals():
    Qi = ExtensionField(Q, [1, 0, 1])
    A = StructureTensor(Qi, [[[Qi.one()]]])
    B = restrict_scalars(A)
    assert B.dim == 2 and B.field == Q
    e1, e2 = B.element([1, 0]), B.element([0, 1])
    assert B.multiply(e1, e1) == (1, 0)
    assert B.multiply(e1, e2) == (0, 1)
    assert B.multiply(e2, e2) == (-1, 0)
    assert is_idempotent(B, e1)


def test_restrict_f9_preserves_idempotent_census():
    F9 = finite_field(9)
    A = StructureTensor(F9, [[[F9.one()]]])
    B = restrict_scalars(A)
    assert B.dim == 2 and B.field == F3
    # direct census in the field itself
    direct = sum(1 for x in F9.elements() if F9.mul(x, x) == x)
    restricted = sum(
        1 for a in range(3) for b in range(3) if is_idempotent(B, (a, b))
    )
    assert direct == restricted == 2


def test_restrict_commutes_with_multiplication():
    F9 = finite_field(9)
    rng = random.Random(17)
    A = random_structure_tensor(F9, 2, rng, commutative=False)
    B = restrict_scalars(A)
    assert B.dim == 4
    for _ in range(100):
        x = tuple(F9.random(rng) for _ in range(2))
        y = tuple(F9.random(rng) for _ in range(2))
        lhs = flatten_element(F9, A.multiply(x, y))
        rhs = B.multiply(flatten_element(F9, x), flatten_element(F9, y))
        assert lhs == rhs


def test_restrict_requires_extension_field():
    with pytest.raises(NotAnExtensionField):
        restrict_scalars(zero_algebra(Q, 2))


# ---------------------------------------------------------------------------
# powers and the nilpotent reduction
# ---------------------------------------------------------------------------


def test_power_is_left_associated():
    rng = random.Random(19)
    A = random_structure_tensor(Q, 3, rng, commutative=False)
    x = tuple(Q.random(rng) for _ in range(3))
    assert power(A, x, 3) == A.multiply(A.multiply(x, x), x)
    assert power(A, x, 1) == x


def jordan_block_element(F, m):
    return tuple(
        F.one() if b == a + 1 else F.zero() for a in range(m) for b in range(m)
    )


def matrix_power_oracle(m, k):
    """Integer matrix arithmetic, independent of the tensor machinery."""
    N = [[1 if b == a + 1 else 0 for b in range(m)] for a in range(m)]
    P = [[1 if a == b else 0 for b in range(m)] for a in range(m)]
    for _ in range(k):
        P = [
            [sum(P[a][c] * N[c][b] for c in range(m)) for b in range(m)]
            for a in range(m)
        ]
    return tuple(Fraction(P[a][b]) for a in range(m) for b in range(m))


@pytest.mark.parametrize("m", [3, 4])
def test_nilpotent_reduction_matches_matrix_oracle(m):
    A = matrix_algebra(Q, m)
    x = jordan_block_element(Q, m)
    s = m - m // 2
    z = absolute_nilpotent_from_nilpotent(A, x, m)
    assert z == matrix_power_oracle(m, s)
    assert not is_zero_vector(Q, z)
    assert is_zero_vector(Q, A.square(z))


def test_nilpotent_reduction_order_two_returns_element():
    A = zero_algebra(Q, 2)
    x = A.element([1, 0])
    assert absolute_nilpotent_from_nilpotent(A, x, 2) == x


def test_nilpotent_reduction_rejects_wrong_order():
    A = matrix_algebra(Q, 3)
    x = jordan_block_element(Q, 3)
    with pytest.raises(NotNilpotentAtGivenOrder):
        absolute_nilpotent_from_nilpotent(A, x, 2)  # x^2 != 0
    with pytest.raises(NotNilpotentAtGivenOrder):
        absolute_nilpotent_from_nilpotent(A, x, 4)  # x^3 = 0 already


# ---------------------------------------------------------------------------
# spectrum classification
# ---------------------------------------------------------------------------


def test_spectrum_empty_for_counterexample():
    rep = classify_spectrum(f3_counterexample())
    assert rep.description is SigmaDescription.EMPTY
    assert rep.sigma_p == frozenset()
    assert rep.certified


def test_spectrum_zero_only_for_null_square():
    rep = classify_spectrum(zero_algebra(F3, 2))
    assert rep.description is SigmaDescription.ZERO_ONLY
    assert rep.nilpotent is not None and rep.idempotent is None


def test_spectrum_all_nonzero_for_diagonal_idempotents():
    D = StructureTensor(F5, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    rep = classify_spectrum(D)
    assert rep.description is SigmaDescription.ALL_NONZERO
    assert is_idempotent(D, rep.idempotent)


def test_spectrum_all_of_f_with_both_witnesses():
    # e1*e1 = e1 (idempotent), e2*e2 = 0 (nilpotent)
    A = StructureTensor(F5, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    rep = classify_spectrum(A)
    assert rep.description is SigmaDescription.ALL_OF_F
    assert rep.sigma_p == frozenset({0, 1})


def test_spectrum_report_is_an_immutable_record():
    rep = SpectrumReport.from_witnesses(idempotent=(1, 0), nilpotent=None, certified=True)
    assert rep == SpectrumReport(
        sigma_p=frozenset({1}), description=SigmaDescription.ALL_NONZERO,
        idempotent=(1, 0), nilpotent=None, certified=True,
    )
    assert hash(rep) == hash(SpectrumReport(*rep))
    with pytest.raises(AttributeError):
        rep.certified = False


def test_spectrum_complex_numeric():
    rep = classify_spectrum(complex_as_real_algebra())
    assert rep.sigma_p == frozenset({1})
    assert rep.description is SigmaDescription.ALL_NONZERO
    assert not rep.certified
    assert is_idempotent(complex_as_real_algebra(), rep.idempotent)


@pytest.mark.parametrize(
    "n, comm, i", [(2, True, 11), (2, False, 0), (3, True, 3), (4, False, 8), (7, True, 2)]
)
def test_spectrum_real_idempotent_read_off_eigenpair(n, comm, i):
    # a Newton search on x*x - x = 0 alone reported Empty on each of these,
    # although each has a unit eigenpair with lam != 0; 60 restarts keep the
    # test short and still reach an accepted pair on the n = 7 algebra
    A = random_structure_tensor(R, n, random.Random(f"{n}:{comm}:{i}"), commutative=comm)
    rep = classify_spectrum(A, SolveConfig(seed=i, max_restarts=60))
    assert rep.description is SigmaDescription.ALL_NONZERO
    assert is_idempotent(A, rep.idempotent)


def test_spectrum_real_nonzero_eigenvalue_gives_idempotent():
    # Vu = lam*u with lam != 0 rescales to the idempotent u/lam, so a
    # nonzero eigenvalue from solve_real means 1 is in sigma_p
    rng = random.Random(2024)
    for trial in range(16):
        n = 2 + trial % 4
        A = random_structure_tensor(R, n, rng, commutative=trial % 2 == 0)
        cfg = SolveConfig(seed=trial, max_restarts=10)
        _, lam = unit_eigenpair(A, solve_real(A, cfg))
        if abs(lam) >= 1e-3:
            assert 1 in classify_spectrum(A, cfg).sigma_p, (trial, n, lam)


def test_spectrum_rational_dim2_counterexample():
    rep = classify_spectrum(q_counterexample())
    assert rep.description is SigmaDescription.EMPTY
    assert rep.certified


def test_spectrum_rational_zero_algebra():
    rep = classify_spectrum(zero_algebra(Q, 2))
    assert rep.description is SigmaDescription.ZERO_ONLY


def test_spectrum_rational_infinite_family_with_idempotent():
    # V(a, b) = (a^2, ab) = a * (a, b): every direction eigen, ell = a
    A = StructureTensor(
        Q,
        [
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2)]],
            [[Fraction(0), Fraction(1, 2)], [Fraction(0), Fraction(0)]],
        ],
    )
    rep = classify_spectrum(A)
    assert rep.description is SigmaDescription.ALL_OF_F
    assert is_idempotent(A, rep.idempotent)
    assert is_absolute_nilpotent(A, rep.nilpotent)
    assert not is_zero_vector(Q, rep.nilpotent)


def test_spectrum_rational_infinite_family_sweep():
    # x*x = ell(x) * x: alpha[0][0] = (l1, 0), alpha[1][1] = (0, l2), and the
    # cross term (l2, l1) split at random between alpha[0][1] and alpha[1][0]
    rng = random.Random(71)
    z = Fraction(0)
    for trial in range(100):
        l1, l2 = (z, z) if trial % 5 == 0 else (Q.random(rng), Q.random(rng))
        s, t = Q.random(rng), Q.random(rng)
        A = StructureTensor(Q, [[[l1, z], [s, t]], [[l2 - s, l1 - t], [z, l2]]])
        rep = classify_spectrum(A)
        assert rep.certified
        if l1 == l2 == 0:
            assert rep.description is SigmaDescription.ZERO_ONLY
        else:
            assert rep.description is SigmaDescription.ALL_OF_F
            assert is_idempotent(A, rep.idempotent)
        assert not is_zero_vector(Q, rep.nilpotent)
        assert is_absolute_nilpotent(A, rep.nilpotent)
    # dimension 1: x*x = a*x, so the idempotent is 1/a, or 1 is absolutely nilpotent
    rep = classify_spectrum(StructureTensor(Q, [[[Fraction(-2, 3)]]]))
    assert rep.description is SigmaDescription.ALL_NONZERO and rep.idempotent == (Fraction(-3, 2),)
    rep = classify_spectrum(StructureTensor(Q, [[[z]]]))
    assert rep.description is SigmaDescription.ZERO_ONLY and rep.nilpotent == (1,)


def test_spectrum_rational_dim3_unsupported():
    with pytest.raises(UnsupportedField):
        classify_spectrum(zero_algebra(Q, 3))


def _check_trichotomy(A):
    # classify_spectrum against the exhaustive eigenvalue_set reference
    F = A.field
    full = set(F.elements())
    want = {
        SigmaDescription.EMPTY: set(),
        SigmaDescription.ZERO_ONLY: {F.zero()},
        SigmaDescription.ALL_NONZERO: full - {F.zero()},
        SigmaDescription.ALL_OF_F: full,
    }
    rep = classify_spectrum(A)
    assert rep.certified
    assert eigenvalue_set(A) == want[rep.description]
    for x in (rep.idempotent, rep.nilpotent):
        assert x is None or not is_zero_vector(F, x)
    assert rep.idempotent is None or is_idempotent(A, rep.idempotent)
    assert rep.nilpotent is None or is_absolute_nilpotent(A, rep.nilpotent)
    return rep


def test_trichotomy_on_random_f5_algebras():
    rng = random.Random(23)
    for _ in range(40):
        _check_trichotomy(random_structure_tensor(F5, 2, rng))


@pytest.mark.parametrize("q", [9, 25])
def test_trichotomy_on_random_extension_field_algebras(q):
    F = finite_field(q)
    rng = random.Random(q)
    for commutative in (True, False):
        for _ in range(5):
            _check_trichotomy(random_structure_tensor(F, 2, rng, commutative=commutative))


@pytest.mark.parametrize(
    "p,coeffs",
    [(3, [-1, -1, 0, 1]), (5, [1, 1, 0, 1]), (5, [1, -1, 0, 0, 0, 1])],
)
def test_trichotomy_on_quotient_counterexamples(p, coeffs):
    F = PrimeField(p)
    A = counterexample_algebra(F, Polynomial(F, coeffs))
    assert _check_trichotomy(A).description is SigmaDescription.EMPTY
