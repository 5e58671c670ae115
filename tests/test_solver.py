"""System builder, solution engines, extension counting, genericity probe."""

import itertools
import random
from fractions import Fraction

import pytest

from quadalg import (
    BudgetExceeded,
    ExtensionField,
    GenericityVerdict,
    LaurentSeries,
    Polynomial,
    PrimeField,
    QuadraticSystem,
    Rationals,
    Reals,
    SearchExhausted,
    SolveConfig,
    StructureTensor,
    UnsupportedField,
    ValuationViolation,
    WrongDimension,
    build_system,
    count_solutions_extension,
    counterexample_algebra,
    eigencheck,
    finite_field,
    genericity_probe,
    is_absolute_nilpotent,
    is_idempotent,
    perturb_system,
    polynomial_roots,
    random_structure_tensor,
    solve_exact_dim2,
    solve_exhaustive,
    solve_real,
    trivial_jacobian_check,
    unit_eigenpair,
    zero_algebra,
)
from quadalg import solver
from quadalg.solver import draw_perturbation, normalize_point

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
R = Reals()


def f3_counterexample():
    return counterexample_algebra(F3, Polynomial(F3, [-1, -1, 0, 1]))


def q_counterexample():
    return counterexample_algebra(Q, Polynomial(Q, [-2, 0, 0, 1]))


def complex_algebra():
    return StructureTensor(R, [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]])


def diagonal_f5():
    return StructureTensor(F5, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def projective_points(F, n):
    """The P^n oracle: canonical representatives (leftmost nonzero coordinate
    is 1), grouped by the position of that 1, tails in mixed radix."""
    elems = list(F.elements())
    for lead in range(n + 1):
        for tail in itertools.product(elems, repeat=n - lead):
            yield (F.zero(),) * lead + (F.one(),) + tail


def form_cubic(S):
    """Coefficients, lowest first, of c(u) = Q_1(1, u) u - Q_2(1, u) for a dim-2
    system: (1 : u) is an eigen-direction exactly when c(u) = 0, and (0 : 1)
    exactly when the u^3 coefficient is zero."""
    F = S.field
    q1, q2 = ([form.get(key, F.zero()) for key in ((0, 0), (0, 1), (1, 1))] for form in S.forms)
    return [F.neg(q2[0]), F.sub(q1[0], q2[1]), F.sub(q1[1], q2[2]), q1[2]]


def system_over(S, E):
    """The count oracle: the system of S's algebra built afresh over the
    extension E, its tensor, eps and phi embedded and ``build_system`` and
    ``perturb_system`` run in E's arithmetic."""
    emb = E.embed
    alpha = [[[emb(a) for a in row] for row in plane] for plane in S.tensor.alpha]
    T = build_system(StructureTensor(E, alpha))
    if S.perturbation is None:
        return T
    eps, phis = zip(*S.perturbation)
    return perturb_system(T, [emb(e) for e in eps], [tuple(map(emb, phi)) for phi in phis])


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------


def test_trivial_point_annihilates_every_system():
    rng = random.Random(31)
    for F in (Q, F5):
        for _ in range(10):
            A = random_structure_tensor(F, 3, rng)
            S = build_system(A)
            pt = (F.zero(),) * 3 + (F.one(),)
            assert all(F.is_zero(v) for v in S.evaluate(pt))


def test_eigenpairs_annihilate_the_system():
    D = StructureTensor(
        Q, [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
            [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]]
    )
    S = build_system(D)
    for x in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))):
        lam = eigencheck(D, x)
        assert all(Q.is_zero(v) for v in S.evaluate(x + (lam,)))


def test_complex_idempotent_point():
    S = build_system(complex_algebra())
    vals = S.evaluate((1.0, 0.0, 1.0))
    assert all(abs(v) < 1e-12 for v in vals)


def test_evaluate_agrees_with_tensor_route():
    rng = random.Random(37)
    for F in (Q, F5):
        A = random_structure_tensor(F, 3, rng, commutative=False)
        S = build_system(A)
        eps, phis = draw_perturbation(F, 3, rng)
        P = perturb_system(S, eps, phis)
        for _ in range(25):
            pt = tuple(F.random(rng) for _ in range(4))
            assert S.evaluate(pt) == S.residual_via_tensor(pt)
            assert P.evaluate(pt) == P.residual_via_tensor(pt)


def forms_by_accumulation(A):
    """The forms oracle: the tensor's nonzero entries summed into their pair
    i <= k one by one, then the sums the field calls zero dropped."""
    F, n = A.field, A.dim
    forms = [{} for _ in range(n)]
    for i, k, j, c in A._nonzeros:
        key = (min(i, k), max(i, k))
        forms[j][key] = F.add(forms[j].get(key, F.zero()), c)
    forms = [{k: v for k, v in form.items() if not F.is_zero(v)} for form in forms]
    for j, form in enumerate(forms):
        form[(j, n)] = F.neg(F.one())
    return forms


def test_build_system_matches_the_accumulated_forms():
    # 24 seeded tensors per field and n = 1..6, a third of the entries zero
    # and a quarter of the tensors with cancelling pairs alpha[k][i][j] =
    # -alpha[i][k][j].  Over R (tol 1e-10) most entries lie inside tol at
    # 4e-11 to 7e-11, where a pair sums past tol: such an entry is zero and
    # must be dropped before its pair is summed.  repr tells floats apart
    # bit for bit, and Fractions from ints.
    R10 = Reals(1e-10)
    fields = [F5, finite_field(9), Q, R10, LaurentSeries(Q)]
    rng = random.Random(59)

    def entry(F):
        if rng.random() < 1 / 3:
            return F.zero()
        if F is R10 and rng.random() < 0.75:
            return rng.choice((-1, 1)) * rng.uniform(4e-11, 7e-11)
        return F.random(rng)

    checked = 0
    for F in fields:
        for n in range(1, 7):
            for draw in range(24):
                al = [[[entry(F) for _ in range(n)] for _ in range(n)] for _ in range(n)]
                if draw % 4 == 0:
                    for i, k, j in itertools.product(range(n), repeat=3):
                        if i < k:
                            al[k][i][j] = F.neg(al[i][k][j])
                A = StructureTensor(F, al)
                got, want = build_system(A).forms, forms_by_accumulation(A)
                assert list(got) == want
                assert [{k: repr(v) for k, v in f.items()} for f in got] == [
                    {k: repr(v) for k, v in f.items()} for f in want
                ]
                checked += 1
    assert checked >= 720


# ---------------------------------------------------------------------------
# Jacobian at the trivial solution
# ---------------------------------------------------------------------------


def test_jacobian_minus_identity_over_q_and_f5():
    rng = random.Random(41)
    for F in (Q, F5):
        for _ in range(10):
            A = random_structure_tensor(F, 3, rng)
            assert trivial_jacobian_check(build_system(A))


def test_jacobian_minus_identity_survives_perturbation():
    rng = random.Random(43)
    A = random_structure_tensor(F5, 2, rng)
    S = build_system(A)
    eps, phis = draw_perturbation(F5, 2, rng)
    assert trivial_jacobian_check(perturb_system(S, eps, phis))


def test_jacobian_check_detects_a_broken_system():
    # drop the -lambda*xi_j terms: the Jacobian at the origin becomes zero
    A = diagonal_f5()
    S = build_system(A)
    broken = QuadraticSystem(
        F5, 2, [{k: v for k, v in f.items() if k[1] != 2} for f in S.forms]
    )
    # a lam coefficient of 2 at (0, n), and an extra (1, n) term in form 0
    doubled = QuadraticSystem(F5, 2, [{**S.forms[0], (0, 2): 2}, S.forms[1]])
    extra = QuadraticSystem(F5, 2, [{**S.forms[0], (1, 2): 1}, S.forms[1]])
    for system in (broken, doubled, extra):
        assert not trivial_jacobian_check(system)
        # the lam-eliminating sweep refuses forms not reading Q_j(x) - lam*xi_j
        with pytest.raises(ValueError, match="lam terms"):
            solve_exhaustive(system)
    # a lam^2 term leaves the Jacobian at the origin alone, but not the sweep
    squared = QuadraticSystem(F5, 2, [{**S.forms[0], (2, 2): 1}, S.forms[1]])
    with pytest.raises(ValueError, match="lam terms"):
        solve_exhaustive(squared)


# ---------------------------------------------------------------------------
# exhaustive engine
# ---------------------------------------------------------------------------


def test_exhaustive_counterexample_only_trivial():
    sols = solve_exhaustive(build_system(f3_counterexample()))
    assert len(sols) == 1 and sols[0].trivial
    assert sols[0].coords == (0, 0, 1)


def test_exhaustive_zero_algebra_solution_plane():
    sols = solve_exhaustive(build_system(zero_algebra(F3, 2)))
    assert {s.coords for s in sols} == {(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 1, 0), (0, 0, 1)}


def test_exhaustive_one_dimensional_over_f5():
    A = StructureTensor(F5, [[[1]]])
    sols = solve_exhaustive(build_system(A))
    assert {s.coords for s in sols} == {(0, 1), (1, 1)}


def test_exhaustive_is_duplicate_free_and_verified():
    rng = random.Random(47)
    for _ in range(10):
        A = random_structure_tensor(F5, 2, rng)
        S = build_system(A)
        sols = solve_exhaustive(S)
        coords = [s.coords for s in sols]
        assert len(coords) == len(set(coords))
        assert all(S.is_solution(c) for c in coords)
        assert sum(1 for s in sols if s.trivial) == 1


def test_exhaustive_budget_exceeded(monkeypatch):
    monkeypatch.setattr(solver, "ENUMERATION_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        solve_exhaustive(build_system(zero_algebra(F5, 3)))


def test_exhaustive_dim1_does_not_list_the_field(monkeypatch):
    # P^0 is one point: sweeping it must not materialize the field; the indices
    # of GF(3^40) and of the prime 2^64 - 59 do not even fit in int64
    monkeypatch.setattr(solver, "ENUMERATION_BUDGET", 2)
    for F in (PrimeField(4000037), finite_field(3**40), PrimeField(2**64 - 59)):
        monkeypatch.setattr(F, "elements", lambda: pytest.fail("the P^0 sweep listed the field"))
        c = F.from_int(-2)
        sols = solve_exhaustive(build_system(StructureTensor(F, [[[c]]])))
        assert [s.coords for s in sols] == [(F.one(), c), (F.zero(), F.one())]


def test_exhaustive_rejects_infinite_fields():
    with pytest.raises(UnsupportedField):
        solve_exhaustive(build_system(zero_algebra(Q, 2)))


def test_exhaustive_matches_scalar_reference(monkeypatch):
    # solve_exhaustive sweeps through the ffenum index backend; the scalar
    # loop over projective_points is the independent reference
    from quadalg import ffenum

    rng = random.Random(53)
    chunk = ffenum._CHUNK
    cases = [(F, n, chunk) for F in (F3, F5, finite_field(9), finite_field(25)) for n in (1, 2, 3)]
    # element budgets of 7 and 10 int64s (3 a row at n = 3): tiles of one
    # prefix against two or three of the 5 or 9 suffixes, so that tiles end
    # inside the suffix block; the zero prefix's row shares the last tile
    # over F_5 and follows alone over F_9
    cases += [(F5, 3, 7), (finite_field(9), 3, 10)]
    for F, n, chunk in cases:
        monkeypatch.setattr(ffenum, "_CHUNK", chunk)
        systems = [build_system(zero_algebra(F, n))]
        # the scalar reference takes seconds per full system over F_25 at
        # n = 3, so that size checks the zero algebra (652 solutions) only
        if (F.order, n) != (25, 3):
            for commutative in (True, False):
                A = random_structure_tensor(F, n, rng, commutative=commutative)
                systems.append(build_system(A))
            systems += [
                perturb_system(S, *draw_perturbation(F, n, rng)) for S in systems
            ]
        for S in systems:
            ref = [pt for pt in projective_points(F, n) if S.is_solution(pt)]
            assert [s.coords for s in solve_exhaustive(S)] == ref


@pytest.mark.parametrize("q", [9, 25])
def test_ffenum_table_arithmetic_matches_scalar_route(q):
    # the sweep's digit-wise sums and schoolbook products, on every pair of
    # indices, against the scalar field's addition and polynomial
    # multiply-and-reduce on coefficient tuples
    import numpy as np

    from quadalg import ffenum

    F = finite_field(q)
    D = ffenum.digit_ops(F)
    elems = list(F.elements())  # index order
    a, b = (v.ravel() for v in np.meshgrid(np.arange(q), np.arange(q)))
    pairs = [(elems[i], elems[j]) for i, j in zip(a.tolist(), b.tolist())]
    da, db = D.digits(a), D.digits(b)
    sums = D.place @ ((da + db) % D.p)
    prods = D.place @ D.dmul(da, db)
    assert [elems[i] for i in sums.tolist()] == [F.add(x, y) for x, y in pairs]
    assert [elems[i] for i in prods.tolist()] == [F.mul(x, y) for x, y in pairs]


def test_sweep_leaves_the_scalar_field_unchanged():
    # the sweep's digit arithmetic belongs to ffenum: a GF(625) sweep changes
    # neither the field's state nor its scalar products and inverses
    F = finite_field(625)
    state = dict(vars(F))
    rng = random.Random(71)
    pairs = [(F.random(rng), F.random(rng)) for _ in range(200)]
    pairs = [(x, y) for x, y in pairs if not F.is_zero(x)]
    before = [(F.mul(x, y), F.inv(x)) for x, y in pairs]
    S = build_system(random_structure_tensor(F, 2, rng, commutative=False))
    solve_exhaustive(S)
    assert vars(F) == state
    assert [(F.mul(x, y), F.inv(x)) for x, y in pairs] == before
    assert not hasattr(ExtensionField, "log_tables")


def test_scalar_sweep_matches_scalar_reference(monkeypatch):
    # the digit sweep over small extension fields against the full P^n
    # reference, with element budgets of 4 and 10 int64s: 1-row tiles (k*n
    # int64s a row), one suffix of a block each, and the zero prefix's row
    # alone
    from quadalg import ffenum

    rng = random.Random(61)
    cases = [(finite_field(q), 2, 1 << 16) for q in (9, 25, 27)]
    cases += [(finite_field(9), 2, 4), (finite_field(27), 2, 10), (finite_field(9), 3, 10)]
    for F, n, chunk in cases:
        monkeypatch.setattr(ffenum, "_CHUNK", chunk)
        A = random_structure_tensor(F, n, rng, commutative=False)
        systems = [build_system(zero_algebra(F, n)), build_system(A)]
        systems.append(perturb_system(systems[1], *draw_perturbation(F, n, rng)))
        for S in systems:
            ref = [pt for pt in projective_points(F, n) if S.is_solution(pt)]
            assert [s.coords for s in solve_exhaustive(S)] == ref


def test_exhaustive_over_gf65537_reads_off_the_cubic():
    # a prime above 2^16: the zero algebra's q + 2 rows in canonical order, and
    # a random algebra's directions exactly the roots of its binary cubic
    F = PrimeField(65537)
    q = F.order
    sols = solve_exhaustive(build_system(zero_algebra(F, 2)))
    assert [s.coords for s in sols] == [(1, u, 0) for u in range(q)] + [(0, 1, 0), (0, 0, 1)]
    S = build_system(random_structure_tensor(F, 2, random.Random(79), commutative=False))
    c = form_cubic(S)
    dirs = [(1, u) for u in polynomial_roots(Polynomial(F, c))]
    dirs += [(0, 1)] if F.is_zero(c[3]) else []
    assert [s.coords[:2] for s in solve_exhaustive(S)] == dirs + [(0, 0)]


def test_sweep_matches_the_projective_points_oracle():
    # seeded zero, random and perturbed systems over GF(2), 3, 5 and 7 at
    # n = 2..5 against the scalar loop over P^n.  Every direction solves the
    # zero algebra, so the rows whose lead lies in the suffix, swept after
    # all others and in canonical order, are all hits there.
    rng = random.Random(113)
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for n in range(2, 6):
            S = build_system(random_structure_tensor(F, n, rng, commutative=False))
            for T in (build_system(zero_algebra(F, n)), S, perturb_system(S, *draw_perturbation(F, n, rng))):
                ref = [pt for pt in projective_points(F, n) if T.is_solution(pt)]
                assert [s.coords for s in solve_exhaustive(T)] == ref, (p, n)


# (system, rows shape, sha256 of the int64 rows) for the benchmark's largest
# sweeps and the route edges: the digests of the rows the per-row
# pair-product sweep returned, which the prefix x suffix sweep must match
# bit for bit.  "quotient q f" is the quotient by the modulus f (lowest
# coefficient first), "random q n seed" a noncommutative random tensor and
# "zero q n" the zero algebra.
_PINNED_ROWS = [
    ("quotient 3 1,2,1,1,2,1,0,2,2,1", (0, 9), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("quotient 5 2,2,0,0,0,2,2,1", (0, 7), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("random 5 6 5", (3, 7), "50ad760db72071ddc8f80277403410d55937da03879d31c6186471d25441176f"),
    ("random 1000003 2 11", (3, 3), "b44c43658336f883c4b298993b1b9d5e44a8be1c3c4bb20a8bd6b37cb63f3ecb"),
    ("random 78125 2 5", (3, 3), "5cad6c5616da3298f3c54a76a547614bf0ace152d188d06cd613d1f841e0d395"),
    ("zero 625 3", (391251, 4), "104b4a607cfc056c1c8293926e2f8af4ee072a509f266dd4c56a8cea79f4c86a"),
]


@pytest.mark.parametrize("system, shape, digest", _PINNED_ROWS)
def test_sweep_rows_match_pinned_digests(system, shape, digest):
    import hashlib

    from quadalg import ffenum

    kind, q, *rest = system.split()
    F = finite_field(int(q))
    if kind == "quotient":
        A = counterexample_algebra(F, Polynomial(F, [int(c) for c in rest[0].split(",")]))
    elif kind == "random":
        A = random_structure_tensor(F, int(rest[0]), random.Random(int(rest[1])), commutative=False)
    else:
        A = zero_algebra(F, int(rest[0]))
    S = build_system(A)
    forms_idx = [{key: F.scalar_index(c) for key, c in form.items()} for form in S.forms]
    rows = ffenum.solve_system(F, S.n, forms_idx)
    assert rows.dtype.str == "<i8" and rows.shape == shape
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_exhaustive_at_the_largest_prime_reads_off_the_cubic():
    # every structure constant p - 1 at the largest prime the budget sweeps
    # (n = 2): coordinates, constants and pair products all sit near p - 1, so
    # an int64 overflow in the sweep's matmul would lose or invent rows
    p = 9999991
    F = PrimeField(p)
    S = build_system(StructureTensor(F, [[[p - 1] * 2] * 2] * 2))
    # c(u) = (1 + u)^2 (1 - u): roots 1 and -1, and c_3 != 0 rules out (0 : 1)
    assert form_cubic(S) == [1, 1, p - 1, p - 1]
    # Q_0(1, u) = -(1 + u)^2 is lam at (1 : u)
    want = [(1, u, -((1 + u) ** 2) % p) for u in (1, p - 1)]
    assert [s.coords for s in solve_exhaustive(S)] == want + [(0, 0, 1)]


@pytest.mark.parametrize("p, draws", [(144259, 4), (144271, 4), (208057, 4), (208067, 4), (1000003, 0)])
def test_sweep_is_exact_on_both_sides_of_the_unreduced_product_bound(p, draws):
    # at n = 2 each direction is x = (x_0, w), and above q = 10922 the sweep
    # builds its one-coordinate suffixes block by block, their pair products
    # reduced mod p.  The primes run from CI's two certificates (144271,
    # 208067) and their neighbours up to 1000003.  Every structure constant
    # p - 1 reads off the closed form of the largest prime's test; seeded
    # random tensors read off the roots of their cubic, which take seconds to
    # find over GF(1000003).
    F = PrimeField(p)
    S = build_system(StructureTensor(F, [[[p - 1] * 2] * 2] * 2))
    assert form_cubic(S) == [1, 1, p - 1, p - 1]
    want = [(1, u, -((1 + u) ** 2) % p) for u in (1, p - 1)]
    assert [s.coords for s in solve_exhaustive(S)] == want + [(0, 0, 1)]
    rng = random.Random(p)
    for i in range(draws):
        S = build_system(random_structure_tensor(F, 2, rng, commutative=i == 0))
        c = form_cubic(S)
        dirs = [(1, u) for u in polynomial_roots(Polynomial(F, c))]
        dirs += [(0, 1)] if F.is_zero(c[3]) else []
        assert [s.coords[:2] for s in solve_exhaustive(S)] == dirs + [(0, 0)]


@pytest.mark.parametrize("p", [208057, 208067])
def test_sweep_tiles_are_exact_on_both_sides_of_the_bound_at_n_3(monkeypatch, p):
    # at n = 3 and these primes the suffix is again one coordinate (m = 1),
    # but P^2 has 4e10 directions.  The sweep is run on one tile of its own
    # rows instead: prefixes (1, a) and suffixes w near 0 and p - 1, where
    # w^2 (p - 1) is largest, every row checked against the forms in Python
    # integers.  With every structure constant p - 1, Q_j(x) = -(x_0 + x_1 +
    # x_2)^2, so the tile holds the 24 hits (1, a, -1 - a) with lam = 0, and
    # (1, 1, 1) with lam = -9.
    import numpy as np

    from quadalg import ffenum

    F = PrimeField(p)
    assert ffenum._suffix_size(p, 3, 1) == 1
    prefixes, suffixes = np.r_[0:12, p - 12 : p], np.r_[0:16, p - 16 : p]

    def one_tile(F, ops, n, m):
        yield ffenum._tile(F, ops, n, m, prefixes, ffenum._suffix_rows(F, ops, m, suffixes), False)

    monkeypatch.setattr(ffenum, "_tiles", one_tile)
    rng = random.Random(p)
    systems = [build_system(StructureTensor(F, [[[p - 1] * 3] * 3] * 3))]
    systems += [build_system(random_structure_tensor(F, 3, rng, commutative=c)) for c in (True, False)]
    for S, planted in zip(systems, (25, None, None)):
        forms_idx = [{key: F.scalar_index(c) for key, c in form.items()} for form in S.forms]
        want = []
        for x in itertools.product([1], prefixes.tolist(), suffixes.tolist()):
            vals = [sum(c * x[i] * x[l] for (i, l), c in form.items() if l < 3) % p for form in forms_idx]
            if all(v == vals[0] * xj % p for v, xj in zip(vals, x)):
                want.append([*x, vals[0]])
        assert planted in (None, len(want))
        assert ffenum.solve_system(F, 3, forms_idx).tolist() == want


@pytest.mark.parametrize("q, n", [(7, 3), (25, 2)])
def test_sweep_reads_a_pair_in_either_order_and_sums_repeats(q, n):
    # each x_i*x_l coefficient c, i < l < n, split as a at (i, l) and c - a at
    # (l, i), or a third of the time written at (l, i) alone; the squares and
    # the lam terms are kept as they are
    from quadalg import ffenum

    F = finite_field(q)
    rng = random.Random(q)
    S = build_system(random_structure_tensor(F, n, rng, commutative=False))
    split = []
    for form in S.forms:
        out = {key: c for key, c in form.items() if key[0] == key[1] or key[1] == n}
        for i, l in itertools.combinations(range(n), 2):
            c, a = form.get((i, l), F.zero()), F.random(rng)
            if rng.random() < 1 / 3:
                out[(l, i)] = c
            else:
                out[(i, l)], out[(l, i)] = a, F.sub(c, a)
        split.append(out)
    assert any(i > l for form in split for i, l in form)

    def index(forms):
        return [{key: F.scalar_index(c) for key, c in form.items()} for form in forms]

    rows = ffenum.solve_system(F, n, index(split))
    assert len(rows) and rows.tolist() == ffenum.solve_system(F, n, index(S.forms)).tolist()
    solver._verify_solutions(QuadraticSystem(F, n, split), rows)


def test_digit_matrix_refuses_sums_past_2_53():
    # three digits of GF(2^31 - 1) times entries below p can sum past 2^53,
    # where float64 stops being exact
    import numpy as np

    from quadalg import ffenum

    with pytest.raises(OverflowError):
        ffenum.digit_ops(PrimeField(2**31 - 1)).linear(np.ones((1, 1, 3), dtype=np.int64))
    # no field within the budget trips it: the widest matrices are the
    # verifier's, six pairs of (x_1, x_2, lam) at n = 2, over the largest
    # prime swept and over GF(5^7)
    for F in (PrimeField(9999991), finite_field(5**7)):
        D = ffenum.digit_ops(F)
        assert D.linear(np.ones((D.k, 2, 6), dtype=np.int64)).dtype == np.float64


def _sweep_width(S):
    """The int64s a row takes in the sweep's tile temporaries: its digits times
    the n forms, so a budget of rows * width holds rows rows."""
    return getattr(S.field, "degree", 1) * S.n


def test_sweep_chunk_boundaries_match_the_reference(monkeypatch):
    # element budgets from 1 row up to the whole sweep, over GF(5) (one digit),
    # GF(9), GF(25) and GF(27).  The budget also sets the suffix length m, so the
    # tiles cover every shape: one prefix against all q^m suffixes or against
    # a block of them, narrower than q^m (tiles that end inside the suffix
    # range), runs of prefixes that end on a boundary of the prefix lead
    # blocks and inside one, and the zero prefix's rows alone in the last
    # tile or sharing it
    import numpy as np

    from quadalg import ffenum

    tile, seen = ffenum._tile, set()

    def spy(F, ops, n, m, prefixes, blk, zero):
        q, total = F.order, (F.order ** (n - m) - 1) // (F.order - 1)
        ends = np.cumsum(q ** np.arange(n - m - 1, -1, -1)).tolist()
        if len(prefixes):
            seen.add("one prefix" if len(prefixes) == 1 else "prefixes")
            end = int(prefixes[-1]) + 1
            if end < total:
                seen.add("on a lead boundary" if end in ends else "inside a lead block")
            if blk[0].shape[2] < q**m:
                seen.add("suffix block")
        if zero:
            seen.add("zero prefix sharing" if len(prefixes) else "zero prefix alone")
        return tile(F, ops, n, m, prefixes, blk, zero)

    monkeypatch.setattr(ffenum, "_tile", spy)
    rng = random.Random(109)
    for q, n in [(5, 3), (9, 2), (9, 3), (27, 2), (25, 2)]:
        F = finite_field(q)
        S = build_system(random_structure_tensor(F, n, rng, commutative=False))
        systems = [build_system(zero_algebra(F, n)), S, perturb_system(S, *draw_perturbation(F, n, rng))]
        for S in systems:
            ref = [pt for pt in projective_points(F, n) if S.is_solution(pt)]
            for rows in sorted({1, q - 1, q, q + 2, 2 * q + 2, q**2, q**2 + q + 2, q ** (n - 1) + 2 * q}):
                monkeypatch.setattr(ffenum, "_CHUNK", rows * _sweep_width(S))
                ffenum._single_tile.cache_clear()
                assert [s.coords for s in solve_exhaustive(S)] == ref, (q, n, rows)
    assert seen == {
        "one prefix", "prefixes", "on a lead boundary", "inside a lead block", "suffix block",
        "zero prefix sharing", "zero prefix alone",
    }


def _verifier_accepts(S, rows):
    import numpy as np

    try:
        solver._verify_solutions(S, np.array(rows, dtype=np.int64).reshape(-1, S.n + 1))
    except RuntimeError:
        return False
    return True


def _solves_via_tensor(S, row):
    F = S.field
    return all(F.is_zero(v) for v in S.residual_via_tensor(tuple(map(F.scalar_from_index, row))))


@pytest.mark.parametrize("q", [5, 1000003, 25, 625, 5**7])
def test_verifier_agrees_with_the_scalar_oracle(q):
    # the array verifier against residual_via_tensor, row by row, on the
    # sweep's rows (taken before any verification) and on random rows, over
    # prime fields and extension fields (25, 625, 5^7)
    from quadalg import ffenum

    rng = random.Random(q)
    F = finite_field(q)
    n = 3 if q < 1000 else 2
    systems = []
    for commutative in (True, False):
        S = build_system(random_structure_tensor(F, n, rng, commutative=commutative))
        systems += [S, perturb_system(S, *draw_perturbation(F, n, rng))]
    checked = 0
    for S in systems:
        forms_idx = [{key: F.scalar_index(c) for key, c in form.items()} for form in S.forms]
        rows = ffenum.solve_system(F, n, forms_idx).tolist()
        assert _verifier_accepts(S, rows)
        # a solution with lam moved, and uniformly random rows
        rows += [row[:-1] + [(row[-1] + 1) % q] for row in rows[:5]]
        rows += [[rng.randrange(q) for _ in range(n + 1)] for _ in range(60)]
        for row in rows:
            assert _verifier_accepts(S, [row]) == _solves_via_tensor(S, row), row
            checked += 1
    assert checked >= 240


def test_verifier_names_a_planted_bad_row():
    import re

    import numpy as np

    F = finite_field(25)
    S = build_system(zero_algebra(F, 3))
    rows = np.array(solver._solution_rows(S))
    bad = rows.copy()
    bad[100, -1] = 7  # lam != 0 at a point of the zero algebra
    pt = tuple(map(F.scalar_from_index, bad[100].tolist()))
    with pytest.raises(RuntimeError, match=re.escape(repr(pt))):
        solver._verify_solutions(S, bad)
    solver._verify_solutions(S, rows)


def test_verifier_has_no_int64_overflow_near_1e7():
    # coordinates, structure constants, eps and phi all near p - 1 at a prime
    # near 10^7: every product of two digits is near 10^14.  The planted row
    # solves the perturbed system; the verifier is called with no sweep.
    p = 9999991
    F = PrimeField(p)
    rng = random.Random(89)
    n = 3

    def near():
        return p - 1 - rng.randrange(5)

    for _ in range(5):
        alpha = [[[near() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        x, lam = [near() for _ in range(n)], near()
        eps = [near() for _ in range(n)]
        phis = [tuple(near() for _ in range(n)) for _ in range(n)]
        for j in range(n):
            # alpha[0][0][j] makes x*x - lam*x - eps_j*phi_j(x)^2 vanish at j
            rest = sum(alpha[i][l][j] * x[i] * x[l] for i in range(n) for l in range(n) if i or l)
            phi_x = sum(c * xi for c, xi in zip(phis[j], x))
            want = lam * x[j] + eps[j] * phi_x * phi_x - rest
            alpha[0][0][j] = want * pow(x[0] * x[0], -1, p) % p
        S = build_system(StructureTensor(F, alpha))
        P = perturb_system(S, eps, phis)
        rows = [x + [lam], x + [near()], [near() for _ in range(n + 1)], [p - 1] * (n + 1)]
        assert _verifier_accepts(P, [rows[0]])
        for T in (S, P):
            for row in rows:
                assert _verifier_accepts(T, [row]) == _solves_via_tensor(T, row), row


def test_verifier_checks_a_system_without_tensor_from_its_forms():
    F = finite_field(9)
    S = build_system(random_structure_tensor(F, 3, random.Random(97)))
    bare = QuadraticSystem(F, S.n, S.forms)
    rows = solver._solution_rows(S).tolist()
    assert [s.coords for s in solve_exhaustive(bare)] == [s.coords for s in solve_exhaustive(S)]
    for row in rows[:3] + [[1, 2, 3, 4], [0, 1, 5, 8]]:
        pt = tuple(map(F.scalar_from_index, row))
        assert _verifier_accepts(bare, [row]) == bare.is_solution(pt)


def test_verifier_chunks_end_inside_lead_blocks(monkeypatch):
    # element budgets of 7 and 10 int64s: the zero algebra's 31 rows over F_5
    # at n = 3 (lead blocks of 25, 5 and 1) are verified 1 and 2 rows at a
    # time (4 int64s a row), so chunks end inside the second block.  Lists
    # and counts still match the P^n reference, and a bad row in the last
    # chunk is caught.
    import numpy as np

    from quadalg import ffenum

    rng = random.Random(101)
    for chunk in (7, 10):
        monkeypatch.setattr(ffenum, "_CHUNK", chunk)
        for n, k in ((3, 1), (2, 2)):
            S = build_system(random_structure_tensor(F5, n, rng, commutative=False))
            systems = [build_system(zero_algebra(F5, n)), S, perturb_system(S, *draw_perturbation(F5, n, rng))]
            for S in systems:
                T = system_over(S, finite_field(5**k)) if k > 1 else S
                ref = [pt for pt in projective_points(T.field, n) if T.is_solution(pt)]
                assert [s.coords for s in solve_exhaustive(T)] == ref
                assert count_solutions_extension(S, k) == len(ref)
        rows = np.array(solver._solution_rows(build_system(zero_algebra(F5, 3))))
        rows[-1, -1] = 1  # lam = 1 at a point of the zero algebra
        with pytest.raises(RuntimeError):
            solver._verify_solutions(build_system(zero_algebra(F5, 3)), rows)


def test_counting_builds_no_field_scalars(monkeypatch):
    # count_solutions_extension sweeps and verifies the GF(p) system on its
    # own indices, reads the length of the verified rows, and builds no
    # scalar of GF(p^k): neither an embedded constant nor a row's point
    from quadalg import ExtensionField

    rng = random.Random(103)
    systems = [build_system(zero_algebra(F5, 2)), build_system(zero_algebra(F3, 3))]
    for F, n in ((F5, 2), (F3, 3), (F5, 3)):
        for commutative in (True, False):
            S = build_system(random_structure_tensor(F, n, rng, commutative=commutative))
            systems += [S, perturb_system(S, *draw_perturbation(F, n, rng))]
    want = {}
    for i, S in enumerate(systems):
        p = S.field.p
        for k in (2, 3):
            want[i, k] = len(solve_exhaustive(system_over(S, finite_field(p**k))))
    for name in ("scalar_from_index", "embed"):
        monkeypatch.setattr(ExtensionField, name, lambda self, a: pytest.fail("a count built a scalar"))
    assert {(i, k): count_solutions_extension(S, k) for i, S in enumerate(systems) for k in (2, 3)} == want


def test_spectrum_witnesses_are_the_first_solutions_of_each_kind():
    from quadalg import classify_spectrum, rescale_to_canonical

    rng = random.Random(107)
    algebras = [zero_algebra(F5, 3), diagonal_f5(), StructureTensor(F5, [[[3]]])]
    for F, n in ((F3, 3), (F5, 2), (PrimeField(7), 3), (finite_field(9), 2)):
        for commutative in (True, False):
            algebras += [random_structure_tensor(F, n, rng, commutative=commutative) for _ in range(4)]
    for A in algebras:
        sols = [s for s in solve_exhaustive(build_system(A)) if not s.trivial]
        nil = next((s.coords[:-1] for s in sols if A.field.is_zero(s.lam)), None)
        idem = next(
            (rescale_to_canonical(A, s.coords[:-1], s.lam) for s in sols if not A.field.is_zero(s.lam)),
            None,
        )
        rep = classify_spectrum(A)
        assert (rep.nilpotent, rep.idempotent) == (nil, idem)


def test_scaling_invariance_of_solutions():
    rng = random.Random(59)
    for _ in range(10):
        A = random_structure_tensor(F5, 2, rng)
        c = rng.randrange(1, 5)
        S_a = build_system(A)
        S_ca = build_system(A.scale(c))
        sols_a = {s.coords for s in solve_exhaustive(S_a)}
        sols_ca = {s.coords for s in solve_exhaustive(S_ca)}
        mapped = {
            normalize_point(F5, s[:2] + (F5.mul(c, s[2]),)) for s in sols_a
        }
        assert mapped == sols_ca


def test_projective_point_enumeration_is_canonical():
    pts = list(projective_points(F3, 2))
    assert len(pts) == 13
    assert len(set(pts)) == 13
    for pt in pts:
        lead = next(i for i, c in enumerate(pt) if c != 0)
        assert pt[lead] == 1


# ---------------------------------------------------------------------------
# exact dimension-2 engine
# ---------------------------------------------------------------------------


def test_exact2_counterexample_has_no_rational_direction():
    res = solve_exact_dim2(q_counterexample())
    assert res.solutions == () and not res.infinite_family


def test_exact2_diagonal_directions():
    D = StructureTensor(
        Q, [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
            [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]]]
    )
    res = solve_exact_dim2(D)
    assert not res.infinite_family
    got = {s.coords for s in res.solutions}
    one, zero = Fraction(1), Fraction(0)
    assert got == {(one, zero, one), (zero, one, one), (one, one, one)}


def test_exact2_zero_algebra_infinite_family():
    res = solve_exact_dim2(zero_algebra(Q, 2))
    assert res.infinite_family
    assert all(s.lam == 0 for s in res.solutions)


def test_exact2_engine_guards():
    with pytest.raises(UnsupportedField):
        solve_exact_dim2(zero_algebra(F3, 2))
    with pytest.raises(WrongDimension):
        solve_exact_dim2(zero_algebra(Q, 3))


def test_exact2_agrees_with_exhaustive_mod_p():
    rng = random.Random(61)
    p = 7
    Fp = PrimeField(p)
    for _ in range(15):
        ints = [[[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        A = StructureTensor(Q, [[[Fraction(v) for v in r] for r in pl] for pl in ints])
        res = solve_exact_dim2(A)
        if res.infinite_family:
            continue
        B = StructureTensor(Fp, [[[v % p for v in r] for r in pl] for pl in ints])
        fin = {s.coords for s in solve_exhaustive(build_system(B))}
        for s in res.solutions:
            # solutions are normalized with a leading 1, so denominators are
            # units mod p unless p divides one; skip those rare cases
            try:
                reduced = tuple(
                    (c.numerator * pow(c.denominator, -1, p)) % p for c in s.coords
                )
            except ValueError:
                continue
            assert normalize_point(Fp, reduced) in fin


# ---------------------------------------------------------------------------
# real engine
# ---------------------------------------------------------------------------


def test_real_engine_finds_complex_idempotent():
    sol = solve_real(complex_algebra())
    assert sol.residual <= 1e-9
    x, lam = unit_eigenpair(complex_algebra(), sol)
    assert lam == pytest.approx(1.0, abs=1e-7)
    assert abs(x[0]) == pytest.approx(1.0, abs=1e-7)


def test_real_engine_zero_algebra():
    sol = solve_real(zero_algebra(R, 4))
    x, lam = unit_eigenpair(zero_algebra(R, 4), sol)
    assert lam == pytest.approx(0.0, abs=1e-9)
    # every unit pair has lam = 0, which does not rescale to an idempotent
    assert solver.find_idempotent_real(zero_algebra(R, 4)) is None


def test_real_idempotents_pass_the_field_check():
    # x = u/mu off a unit pair misses x*x = x by |Vu - mu*u| / mu^2, past the
    # field's per-coordinate tolerance for small |mu|: 7 of these 64 did
    # when the search accepted every pair within residual_tol
    found = 0
    for n in range(2, 6):
        for comm in (True, False):
            for s in range(8):
                A = random_structure_tensor(R, n, random.Random(f"{n}:{comm}:{s}"), commutative=comm)
                x = solver.find_idempotent_real(A)
                if x is not None:
                    found += 1
                    assert is_idempotent(A, x), (n, comm, s)
    assert found >= 57


def test_real_nilpotents_pass_the_field_check(planted_nilpotent):
    # |Vu| <= residual_tol bounds the 2-norm of x*x, not each coordinate by
    # the field's tolerance: 17 of these 100 missed x*x = 0 when the search
    # accepted every pair within residual_tol
    for n in range(2, 7):
        for comm in (True, False):
            for s in range(10):
                A = planted_nilpotent(n, comm, s)
                x = solver.find_absolute_nilpotent_real(A)
                assert x is not None and is_absolute_nilpotent(A, x), (n, comm, s)


def test_real_engine_lambda_is_rayleigh_value():
    rng = random.Random(67)
    import numpy as np

    for trial in range(10):
        A = random_structure_tensor(R, 3, rng)
        sol = solve_real(A, SolveConfig(seed=trial))
        x, lam = unit_eigenpair(A, sol)
        v = A.square(tuple(map(float, x)))
        assert lam == pytest.approx(float(np.dot(v, x)), abs=1e-7)


def test_real_engine_exhausts_when_budget_is_too_small(monkeypatch):
    rng = random.Random(89)
    A = random_structure_tensor(R, 5, rng)
    monkeypatch.setattr(solver, "MAX_NEWTON_ITER", 1)
    with pytest.raises(SearchExhausted):
        solve_real(A, SolveConfig(residual_tol=1e-15, max_restarts=1))


def test_real_engine_rejects_exact_fields():
    with pytest.raises(UnsupportedField):
        solve_real(zero_algebra(Q, 2))


# ---------------------------------------------------------------------------
# extension counting, with an independent cubic-count oracle for n = 2
# ---------------------------------------------------------------------------


def cubic_count_oracle(A, E):
    """1 + number of eigen-directions, counted through the proportionality cubic.

    Embeds the 2-dimensional tensor into the finite field E and sweeps
    P^1(E); independent of the enumeration engine under test.
    """
    emb = E.embed if hasattr(E, "embed") else (lambda a: a)
    al = [[[emb(a) for a in row] for row in plane] for plane in A.alpha]
    q1 = (al[0][0][0], E.add(al[0][1][0], al[1][0][0]), al[1][1][0])
    q2 = (al[0][0][1], E.add(al[0][1][1], al[1][0][1]), al[1][1][1])
    c3 = E.neg(q2[0])
    c2 = E.sub(q1[0], q2[1])
    c1 = E.sub(q1[1], q2[2])
    c0 = E.sub(q1[2], E.zero())
    if all(E.is_zero(c) for c in (c0, c1, c2, c3)):
        return 1 + E.order + 1
    count = 1  # trivial solution
    if E.is_zero(c3):
        count += 1  # direction (1 : 0)
    for u in E.elements():
        u2 = E.mul(u, u)
        val = E.add(
            E.add(E.mul(c3, E.mul(u2, u)), E.mul(c2, u2)), E.add(E.mul(c1, u), c0)
        )
        if E.is_zero(val):
            count += 1
    return count


def test_extension_counts_one_dimensional():
    A = StructureTensor(F5, [[[1]]])
    for k in (1, 2, 3):
        assert count_solutions_extension(A, k) == 2


def test_extension_counts_counterexample_frozen():
    B = f3_counterexample()
    got = {k: count_solutions_extension(B, k) for k in (1, 2, 3)}
    assert got == {1: 1, 2: 1, 3: 4}
    for k in (1, 2, 3):
        E = finite_field(3**k)
        assert got[k] == cubic_count_oracle(B, E)


def test_extension_counts_match_cubic_oracle_random():
    rng = random.Random(71)
    for _ in range(8):
        A = random_structure_tensor(F5, 2, rng)
        for k in (1, 2):
            E = finite_field(5**k)
            assert count_solutions_extension(A, k) == cubic_count_oracle(A, E)


def test_extension_counts_are_galois_stable_above_2_16():
    # over GF(5^7), whose one-coordinate suffixes are swept in blocks: the
    # eigen-directions are the roots of a binary cubic over F_5, whose
    # irreducible factors have degree <= 3, and neither 2 nor 3 divides 7, so
    # no new direction appears
    rng = random.Random(83)
    A = random_structure_tensor(F5, 2, rng)
    B = random_structure_tensor(F5, 2, rng, commutative=False)
    systems = [build_system(A), build_system(B)]
    systems.append(perturb_system(systems[1], *draw_perturbation(F5, 2, rng)))
    for S in systems:
        if all(F5.is_zero(c) for c in form_cubic(S)):
            continue
        assert count_solutions_extension(S, 7) == count_solutions_extension(S, 1)


def test_extension_counts_require_prime_base():
    with pytest.raises(UnsupportedField):
        count_solutions_extension(zero_algebra(finite_field(4), 2), 2)


@pytest.mark.parametrize("k", [100, 150])
def test_extension_count_checks_its_budget_before_building_the_field(k):
    # |P^1(F_{3^k})| is far past the budget: the count refuses before it
    # certifies a modulus of degree k, which took seconds
    import time

    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        count_solutions_extension(zero_algebra(F3, 2), k)
    assert time.perf_counter() - t0 < 0.25


def _prime_systems(p, n, rng):
    """Zero, random (non-commutative and commutative) and perturbed systems over GF(p)."""
    F = PrimeField(p)
    S = build_system(random_structure_tensor(F, n, rng, commutative=False))
    return [
        build_system(zero_algebra(F, n)),
        S,
        perturb_system(S, *draw_perturbation(F, n, rng)),
        build_system(random_structure_tensor(F, n, rng, commutative=True)),
    ]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_extension_sweep_on_prime_indices_matches_the_rebuilt_system(p):
    # a GF(p) system swept over GF(p^k) on its own indices returns, array for
    # array, the rows of the system rebuilt over GF(p^k) (``system_over``); so
    # does a hand-built system with the same forms and no tensor, verified
    # from its forms.  Where P^n(GF(p^k)) is small, the rows are also the
    # points that solve the rebuilt system in scalar arithmetic.
    import numpy as np

    rng = random.Random(p)
    for n in (2, 3):
        systems = _prime_systems(p, n, rng)
        for k in (2, 3, 4):
            E = finite_field(p**k)
            if n == 3 and E.order > 125:
                continue  # 10^5 or more directions a system
            for S in systems:
                T = system_over(S, E)
                want = solver._solution_rows(T)
                if (E.order ** (n + 1) - 1) // (E.order - 1) <= 3000:
                    ref = [pt for pt in projective_points(E, n) if T.is_solution(pt)]
                    assert [tuple(map(E.scalar_from_index, r)) for r in want.tolist()] == ref[:-1]
                for U in (S, QuadraticSystem(S.field, n, S.forms)):
                    rows = solver._solution_rows(U, E)
                    assert rows.dtype == want.dtype and np.array_equal(rows, want), (p, n, k)
                    assert count_solutions_extension(U, k) == len(want) + 1


@pytest.mark.parametrize("q", [9, 27, 125, 2401, 5**7])
def test_extension_verifier_refuses_a_wrong_digit_above_digit_0(q):
    # lam moved to (lam + p) mod q keeps digit 0 of every coordinate, so only
    # a check that reads E's higher digits refuses the row; x_lead = 1 makes
    # g_lead = lam - lam', so the row is never a solution
    import re

    E = finite_field(q)
    p = E.base.p
    for S in _prime_systems(p, 2, random.Random(q)):
        rows = solver._solution_rows(S, E)
        for i in sorted({0, len(rows) // 2, len(rows) - 1}) if len(rows) else ():
            bad = rows.copy()
            bad[i, -1] = (bad[i, -1] + p) % q
            assert (bad % p == rows % p).all()
            pt = tuple(map(E.scalar_from_index, bad[i].tolist()))
            with pytest.raises(RuntimeError, match=re.escape(repr(pt))):
                solver._verify_solutions(S, bad, E)
            with pytest.raises(RuntimeError, match=re.escape(repr(pt))):
                solver._verify_solutions(QuadraticSystem(S.field, 2, S.forms), bad, E)


def test_probe_checks_its_budget_before_any_sweep(monkeypatch):
    # over F_{5^11} the |P^1| + 1 = 5^11 + 2 points exceed the budget, while
    # k = 1..10 fit it: the probe refuses before it sweeps any of them
    from quadalg import ffenum

    monkeypatch.setattr(ffenum, "solve_system", lambda *args: pytest.fail("swept before the budget check"))
    with pytest.raises(BudgetExceeded):
        genericity_probe(diagonal_f5(), SolveConfig(k_max=11))
    solver._check_budget(5**10, 2)  # 9,765,627 points
    # dimension 1 sweeps 2 points over every extension
    solver._check_budget(5**40, 1)
    probe = genericity_probe(StructureTensor(F5, [[[1]]]), SolveConfig(k_max=40))
    assert probe.counts == {k: 2 for k in range(1, 41)}


def test_probe_descent_matches_direct_counts():
    # the probe sweeps only k > k_max/2 and reads each smaller degree's count
    # off the rows that Frobenius^d fixes; the direct sweep of every F_{p^k}
    # must agree, on the zero algebra (every direction a row), random tensors
    # and their perturbations
    rng = random.Random(131)
    checked = 0
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for n in (1, 2, 3, 4):
            for k_max in range(1, 7):
                if p ** (k_max * (n - 1)) > 10**5:
                    continue
                S = build_system(random_structure_tensor(F, n, rng, commutative=False))
                systems = [build_system(zero_algebra(F, n)), S]
                systems.append(perturb_system(S, *draw_perturbation(F, n, rng)))
                for S in systems:
                    counts = genericity_probe(S, SolveConfig(k_max=k_max)).counts
                    assert counts == {k: count_solutions_extension(S, k) for k in range(1, k_max + 1)}
                    assert list(counts) == list(range(1, k_max + 1))
                    checked += 1
    assert checked >= 150


def test_counts_monotone_along_divisibility():
    rng = random.Random(73)
    for _ in range(6):
        A = random_structure_tensor(F5, 2, rng)
        counts = genericity_probe(A).counts
        assert counts[1] >= 1
        assert counts[1] <= counts[2] <= counts[4]
        assert counts[1] <= counts[3]


def test_probe_zero_algebra_positive_dimensional():
    probe = genericity_probe(zero_algebra(F3, 2))
    assert probe.counts == {1: 5, 2: 11, 3: 29, 4: 83}
    assert probe.verdict is GenericityVerdict.LIKELY_POSITIVE_DIMENSIONAL


def test_probe_one_dimensional_generic():
    probe = genericity_probe(StructureTensor(F5, [[[1]]]))
    assert probe.counts == {1: 2, 2: 2, 3: 2, 4: 2}
    assert probe.verdict is GenericityVerdict.LIKELY_GENERIC


def test_probe_diagonal_generic_at_bound():
    probe = genericity_probe(diagonal_f5())
    assert probe.counts == {1: 4, 2: 4, 3: 4, 4: 4}
    assert probe.verdict is GenericityVerdict.LIKELY_GENERIC
    assert probe.bound == 4


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------


def test_zero_perturbation_is_identity():
    A = diagonal_f5()
    S = build_system(A)
    P = perturb_system(S, [0, 0], [(0, 0), (0, 0)])
    assert P.forms == S.forms


def test_laurent_perturbation_specializes_back():
    L = LaurentSeries(Q, 16)
    base = q_counterexample()
    alpha = [[[L.embed(a) for a in row] for row in plane] for plane in base.alpha]
    A = StructureTensor(L, alpha)
    S = build_system(A)
    t = L.gen()
    phis = [
        (L.one(), L.zero()),
        (L.zero(), L.one()),
    ]
    P = perturb_system(S, [t, t], phis)
    # the trivial solution survives and the Jacobian stays -I
    assert all(L.is_zero(v) for v in P.evaluate((L.zero(), L.zero(), L.one())))
    assert trivial_jacobian_check(P)
    # setting t = 0 (the constant part) recovers the unperturbed values
    rng = random.Random(79)
    Sq = build_system(base)
    for _ in range(20):
        pt_q = tuple(Q.random(rng) for _ in range(3))
        pt_l = tuple(L.embed(c) for c in pt_q)
        vals_q = Sq.evaluate(pt_q)
        for vq, vl in zip(vals_q, P.evaluate(pt_l)):
            const, _tail = L.residue_decompose(vl)
            assert const == vq


def test_perturbation_valuation_guards():
    L = LaurentSeries(Q, 16)
    A = StructureTensor(L, [[[L.one()]]])
    S = build_system(A)
    with pytest.raises(ValuationViolation):
        perturb_system(S, [L.one()], [(L.one(),)])  # eps is a unit, not in the ideal
    with pytest.raises(ValuationViolation):
        perturb_system(S, [L.gen()], [(L.series(-1, [1]),)])  # phi has a pole


def test_random_perturbation_mostly_generic_over_f5():
    Z = zero_algebra(F5, 2)
    S = build_system(Z)
    cfg = SolveConfig(k_max=3)
    generic = 0
    draws = 40
    for seed in range(draws):
        rng = random.Random(seed)
        eps, phis = draw_perturbation(F5, 2, rng)
        probe = genericity_probe(perturb_system(S, eps, phis), cfg)
        if probe.verdict is GenericityVerdict.LIKELY_GENERIC:
            generic += 1
    assert generic >= 0.9 * draws


def test_draw_perturbation_laurent_valuations():
    L = LaurentSeries(Q, 16)
    rng = random.Random(83)
    eps, phis = draw_perturbation(L, 3, rng)
    for e in eps:
        assert L.is_zero(e) or L.valuation(e) >= 1
    for phi in phis:
        for c in phi:
            assert L.is_zero(c) or L.valuation(c) >= 0


# ---------------------------------------------------------------------------
# Records: immutable named tuples
# ---------------------------------------------------------------------------


def test_solve_config_defaults_keywords_and_validation():
    cfg = SolveConfig()
    assert (cfg.residual_tol, cfg.max_restarts, cfg.k_max, cfg.seed) == (1e-9, 200, 4, 0)
    assert SolveConfig(seed=3, k_max=2) == SolveConfig(1e-9, 200, 2, 3)
    assert hash(SolveConfig(seed=3)) == hash(SolveConfig(seed=3))
    for bad in ({"max_restarts": 0}, {"k_max": -1}, {"residual_tol": 0.0}, {"seed": -1},
                {"residual_tol": float("inf")}, {"residual_tol": float("nan")}):
        with pytest.raises(ValueError):
            SolveConfig(**bad)
    with pytest.raises(AttributeError):
        cfg.seed = 1


def test_solution_records_are_immutable_named_tuples():
    sol = solver.ProjectiveSolution((1, 2, 3), trivial=False)
    assert sol.residual == 0.0 and sol.lam == 3
    assert sol == solver.ProjectiveSolution(coords=(1, 2, 3), trivial=False, residual=0.0)
    assert sol == ((1, 2, 3), False, 0.0)  # a tuple: iterates and compares as one
    assert len({sol, solver.ProjectiveSolution((1, 2, 3), False)}) == 1
    res = solver.Dim2Result(solutions=(sol,), infinite_family=False)
    probe = solver.ProbeReport(p=3, counts={1: 2}, verdict=GenericityVerdict.LIKELY_GENERIC, bound=4)
    for record, field in ((sol, "trivial"), (res, "infinite_family"), (probe, "bound")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert res.solutions == (sol,) and probe.counts == {1: 2}
    with pytest.raises(TypeError):
        solver.ProjectiveSolution((1,))  # `trivial` has no default
