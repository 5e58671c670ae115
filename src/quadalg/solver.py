"""Projective eigenvector systems and their solution engines.

For an n-dimensional algebra the eigenvector condition x*x = lam*x becomes
n homogeneous quadratic forms in the n+1 projective unknowns
(xi_1, ..., xi_n, lam):

    g_j = sum_ik alpha[i][k][j] xi_i xi_k  -  lam xi_j

A system is its algebra's structure tensor (``QuadraticSystem``, or
``build_system``): g_j is read off the squaring map, (x*x)_j - lam xi_j.
A perturbed system, g_j - eps_j * phi_j(x)^2, is the system of the algebra
alpha[i][k][j] - eps_j * phi_j[i] * phi_j[k] (``perturb_system``).  The
point (0 : ... : 0 : 1) always solves the system and is called trivial;
every nontrivial solution gives an eigenvector.  Engines:

* ``solve_exhaustive``        -- sweep over a finite field (the oracle
                                 engine): lam is eliminated, so it sweeps the
                                 directions x in P^{n-1} through ``ffenum``,
                                 derives lam from x, and appends the trivial
                                 point; n = 1 is answered in closed form
* ``solve_exact_dim2``        -- exact rational engine for n = 2 via the
                                 proportionality cubic
* ``solve_real``              -- multistart damped Newton over the reals for
                                 unit eigenpairs, the search that the real
                                 idempotent and nilpotent searches read too
* ``count_solutions_extension`` / ``genericity_probe`` -- distinct-point
                                 counts over extension fields F_{p^k} and the
                                 bounded-count heuristic, which reads k <=
                                 k_max/2 off the larger sweeps by Frobenius

The finite-field sweep reads the algebra's structure tensor, and every row
it returns is re-verified on arrays from the same tensor by a check that
folds and evaluates it its own way (``_verify_solutions``).
"""

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import ffenum
from .algebra import (
    StructureTensor,
    eigencheck,
    is_absolute_nilpotent,
    is_idempotent,
    is_zero_vector,
    projective_pivot,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    SearchExhausted,
    UnsupportedField,
    ValuationViolation,
    WrongDimension,
)
from .fields import (
    ENUMERATION_BUDGET,
    LaurentSeries,
    Polynomial,
    PrimeField,
    Rationals,
    Reals,
    finite_field,
    polynomial_roots,
)

MAX_NEWTON_ITER = 100  # Newton steps per restart of the real engine


class SolveConfig(namedtuple("SolveConfig", "residual_tol max_restarts k_max seed")):
    """Tunables the CLI flags set; a fixed seed makes runs deterministic.

    Not settable: the sweep budget ``fields.ENUMERATION_BUDGET`` and ``MAX_NEWTON_ITER``.
    """

    __slots__ = ()

    def __new__(cls, residual_tol=1e-9, max_restarts=200, k_max=4, seed=0):
        if not 0 < residual_tol < math.inf or max_restarts <= 0 or k_max <= 0 or seed < 0:
            raise ValueError("config values must be positive, residual_tol finite, seed >= 0")
        return super().__new__(cls, residual_tol, max_restarts, k_max, seed)


class ProjectiveSolution(namedtuple("ProjectiveSolution", "coords trivial residual", defaults=(0.0,))):
    """A normalized point (xi_1 : ... : xi_n : lam) annihilating the system.

    Exact fields: leftmost nonzero coordinate is 1.  Reals: scaled so the
    largest absolute coordinate is 1 (and positive); `residual` is the
    eigen-residual at the unit-norm representative of x.
    """

    __slots__ = ()

    @property
    def lam(self):
        return self.coords[-1]


def normalize_point(F, coords):
    """Canonical projective representative (see ProjectiveSolution)."""
    coords = tuple(coords)
    if is_zero_vector(F, coords):
        raise ValueError("cannot normalize the zero point")
    c = F.inv(coords[projective_pivot(F, coords)])  # 1.0 / pivot over the reals
    return tuple(F.mul(c, x) for x in coords)


class QuadraticSystem:
    """The eigenvector system of an algebra: its field, its dimension n and
    its structure tensor, nothing else.  The n forms over the n+1 variables
    (xi, lam) are g_j = (xi*xi)_j - lam*xi_j, read off the tensor's squaring
    map; the trivial solution is built in.
    """

    __slots__ = ("field", "n", "tensor")

    def __init__(self, A):
        self.field, self.n, self.tensor = A.field, A.dim, A

    def evaluate(self, point):
        """Values (g_1, ..., g_n) at a projective point of length n+1."""
        if len(point) != self.n + 1:
            raise DimensionMismatch(f"expected {self.n + 1} coordinates")
        F = self.field
        x, lam = point[: self.n], point[self.n]
        v = self.tensor.square(x)
        return tuple(F.sub(v[j], F.mul(lam, x[j])) for j in range(self.n))

    def is_solution(self, point):
        F = self.field
        return all(F.is_zero(v) for v in self.evaluate(point))


def build_system(A):
    """The eigenvector system of an algebra (``QuadraticSystem``)."""
    return QuadraticSystem(A)


def perturb_system(S, eps, phis):
    """The system of the perturbed algebra alpha'[i][k][j] = alpha[i][k][j] -
    eps_j * phi_j[i] * phi_j[k], that is the forms g_j - eps_j * phi_j(x)^2;
    degree and the trivial solution survive, and since the result is again an
    algebra's system, perturbations compose.

    Over a Laurent-series field each eps_j must sit in the maximal ideal
    (valuation offset >= 1) and each phi_j coefficient in the valuation ring.
    """
    F, n = S.field, S.n
    if len(eps) != n or len(phis) != n:
        raise DimensionMismatch("need one eps and one phi per form")
    if isinstance(F, LaurentSeries):
        for e in eps:
            if e[1] and e[0] < 1:
                raise ValuationViolation(f"eps has valuation offset {e[0]} < 1")
        for phi in phis:
            for c in phi:
                if c[1] and c[0] < 0:
                    raise ValuationViolation("phi coefficient has a pole")
    phis = [tuple(phi) for phi in phis]
    if any(len(phi) != n for phi in phis):
        raise DimensionMismatch("phi must have one coefficient per xi variable")
    al = S.tensor.alpha
    alpha = [
        [[F.sub(al[i][k][j], F.mul(eps[j], F.mul(phis[j][i], phis[j][k]))) for j in range(n)] for k in range(n)]
        for i in range(n)
    ]
    return build_system(StructureTensor(F, alpha))


def affine_jacobian_at_origin(S):
    """Jacobian of f_j(x) = g_j(x, 1) at x = 0, read through ``S.evaluate``.

    g_j is quadratic and (0 : ... : 0 : 1) solves it, so along e_i its only
    term in lam is xi_i*lam, and column i is g(e_i, 1) - g(e_i, 0): exact in
    every characteristic, with no division.
    """
    F, n = S.field, S.n
    zero, one = F.zero(), F.one()
    basis = [tuple(one if l == i else zero for l in range(n)) for i in range(n)]
    cols = [map(F.sub, S.evaluate(e + (one,)), S.evaluate(e + (zero,))) for e in basis]
    return [list(row) for row in zip(*cols)]


def trivial_jacobian_check(S):
    """True iff ``affine_jacobian_at_origin`` is minus the identity.

    This holds by construction for every ``QuadraticSystem`` (the only linear
    part of f_j is -xi_j, and perturbations vanish to second order), so the
    check validates how ``evaluate`` implements the lam term rather than the
    mathematics.
    """
    F = S.field
    zero, mone = F.zero(), F.neg(F.one())
    J = affine_jacobian_at_origin(S)
    return all(F.eq(c, mone if i == j else zero) for j, row in enumerate(J) for i, c in enumerate(row))


# ---------------------------------------------------------------------------
# Exhaustive engine over finite fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _variable_pairs(n):
    """The pairs i <= l of the n+1 variables but (n, n), row by row, as two
    index arrays, and the 0/1 matrix that adds the coefficients of x_i*x_l
    and x_l*x_i, at row (n+1)*i + l and (n+1)*l + i, into the pair's column."""
    import numpy as np

    left, right = (a[:-1] for a in np.triu_indices(n + 1))
    cols = np.arange(len(left))
    fold = np.zeros(((n + 1) ** 2, len(left)), dtype=np.int64)
    fold[(n + 1) * left + right, cols] = fold[(n + 1) * right + left, cols] = 1
    return left, right, fold


def _verify_solutions(T, rows, E):
    """Raise RuntimeError, naming the point, unless every index row solves
    x*x = lam*x in the algebra of T.

    T holds the base-p digits of the structure constants, T[:, i, l, j] those
    of alpha[i][l][j] (``ffenum.digit_ops(F).scalar_digits``), and the rows,
    an (m, n+1) int64 array, index E: F, or GF(p^k) over a prime F, whose
    low digit holds F's constants.  The rows are checked in chunks of about
    ``ffenum._CHUNK`` int64s on base-p digit arrays, with the sweep's float64
    kernel (``ffenum.digit_ops``, from the modulus) but not its fold or its
    tiles: the pair products x_i*x_l and lam*x_j (``dmul``), brought under p
    (``reduce``), go through one matmul against a matrix that sums
    alpha[i][l][j] and alpha[l][i][j] by a 0/1 matmul (``_variable_pairs``;
    multiplying by a constant is a k x k matrix over GF(p), ``linear``),
    exact since every partial sum is an integer below 2^53 (``linear`` raises
    otherwise), and the values x*x - lam*x are reduced mod p once.
    """
    if not len(rows):
        return
    import numpy as np

    n, D = T.shape[1], ffenum.digit_ops(E)
    # G[:, i, l, j]: the digits of the coefficient of x_i*x_l in g_j, where
    # variable n is lam
    G = np.zeros((D.k, n + 1, n + 1, n), dtype=np.int64)
    G[: len(T), :n, :n] = T
    G[0, range(n), n, range(n)] = -1  # G is left unreduced: ``linear`` reduces it
    left, right, fold = _variable_pairs(n)
    C = G.reshape(D.k, (n + 1) ** 2, n).transpose(0, 2, 1) @ fold  # (k, form, pair)
    used = C.any(axis=(0, 1))  # pairs in no term are dropped
    left, right = left[used], right[used]
    W = D.linear(C[:, :, used])
    step = max(1, ffenum._CHUNK // (D.k * max(len(left), n + 1)))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        d = D.digits(chunk.T)  # (k, n+1, rows)
        vals = D.apply(W, D.reduce(D.dmul(d[:, left], d[:, right]))).astype(np.int64) % D.p
        if vals.any():
            bad = np.flatnonzero(vals.any(axis=(0, 1)))[0]
            pt = tuple(E.scalar_from_index(int(i)) for i in chunk[bad])
            raise RuntimeError(f"engine returned a non-solution {pt!r}")


def _check_budget(q, n):
    """Raise BudgetExceeded unless the |P^{n-1}| + 1 points a sweep over GF(q) counts fit."""
    if (total := (q**n - 1) // (q - 1) + 1) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{total} projective points exceed budget {ENUMERATION_BUDGET}")


def _solution_rows(A, k=None):
    """The field E swept and the index rows (x : lam) over E of the nontrivial
    solutions of x*x = lam*x in the algebra A, verified.

    E is A.field, or with k given GF(p^k) over the prime A.field
    (UnsupportedField otherwise, ValueError for k < 1), where A's indices
    stand; TypeError unless A is a StructureTensor.  A direction x solves
    with lam = (x*x)_lead at the leftmost nonzero coordinate of x (scaled to
    1).  ``fields.ENUMERATION_BUDGET`` bounds the points swept, |P^{n-1}(E)|
    + 1 (``_check_budget``), and with them the sweep's time; it is checked
    before GF(p^k) is built.  For n >= 2 the tensor becomes base-p digits
    once, T; ``ffenum.solve_system`` sweeps the directions x in P^{n-1}(E)
    on T, and the rows, an (m, n+1) int64 array in canonical order, pass
    ``_verify_solutions`` on T.  For n = 1 E is A.field, never built larger,
    and the rows are the indices of ``_dim1_solution``, an object array of
    Python ints (the indices of GF(3^40) do not fit int64).
    """
    import numpy as np

    if not isinstance(A, StructureTensor):
        raise TypeError("expected a StructureTensor or QuadraticSystem")
    F, n = A.field, A.dim
    if k is None:
        if not F.finite:
            raise UnsupportedField("exhaustive enumeration needs a finite field")
        k = 1
    elif not isinstance(F, PrimeField):
        raise UnsupportedField("extension counts need a prime base field")
    elif k < 1:
        raise ValueError("extension degree must be >= 1")
    _check_budget(F.order**k, n)
    if n == 1:
        return F, np.array([list(map(F.scalar_index, _dim1_solution(A).coords))], dtype=object)
    E = finite_field(F.p**k) if k > 1 else F
    T = ffenum.digit_ops(F).scalar_digits(A.alpha)
    rows = ffenum.solve_system(E, n, T)
    _verify_solutions(T, rows, E)
    return E, rows


def _dim1_solution(A):
    """The one nontrivial solution (1 : c) of a dim-1 algebra over its field and
    every extension: P^0 is the one direction (1), and 1*1 = c*1, c = alpha[0][0][0]."""
    return ProjectiveSolution((A.field.one(), A.alpha[0][0][0]), trivial=False)


def _nontrivial_solutions(F, rows):
    """ProjectiveSolutions of index rows given as lists of Python ints."""
    return [ProjectiveSolution(tuple(map(F.scalar_from_index, row)), trivial=False) for row in rows]


@lru_cache(maxsize=32)
def _trivial_solution(F, n):
    return ProjectiveSolution((F.zero(),) * n + (F.one(),), trivial=True)


def solve_exhaustive(S):
    """All projective solutions over a finite field, complete and duplicate-free.

    The nontrivial ones are read off ``_solution_rows`` (see there for the
    sweep, its budget and its checks), in the order of the canonical
    enumeration of P^n; the trivial point (0 : ... : 0 : 1) comes last.
    """
    E, rows = _solution_rows(S.tensor)
    return _nontrivial_solutions(E, rows.tolist()) + [_trivial_solution(E, S.n)]


# ---------------------------------------------------------------------------
# Exact rational engine, dimension 2
# ---------------------------------------------------------------------------


class Dim2Result(namedtuple("Dim2Result", "solutions infinite_family")):
    """Rational eigen-directions of a 2-dimensional rational algebra.

    When the proportionality cubic vanishes identically every direction is an
    eigen-direction; `infinite_family` is set and `solutions` holds sample
    directions (the coordinate axes, the diagonal, and the kernel of the
    eigenvalue form) rather than an exhaustive list.
    """

    __slots__ = ()


def solve_exact_dim2(A):
    """All rational eigen-directions of a 2-dimensional rational algebra.

    Eliminates lam through the cubic c(a, b) = (Vx)_1 b - (Vx)_2 a, whose
    projective rational roots are exactly the eigen-directions; each root's
    eigenvalue is recovered by coordinate division.  The trivial projective
    solution is not listed.
    """
    F = A.field
    if not isinstance(F, Rationals):
        raise UnsupportedField("exact dim-2 engine works over the rationals")
    if A.dim != 2:
        raise WrongDimension(f"exact dim-2 engine got dim {A.dim}")
    al = A.alpha
    q1 = (al[0][0][0], F.add(al[0][1][0], al[1][0][0]), al[1][1][0])
    q2 = (al[0][0][1], F.add(al[0][1][1], al[1][0][1]), al[1][1][1])
    # c(a,b) = q1(a,b)*b - q2(a,b)*a, coefficients of a^3, a^2 b, a b^2, b^3
    c3 = F.neg(q2[0])
    c2 = F.sub(q1[0], q2[1])
    c1 = F.sub(q1[1], q2[2])
    c0 = q1[2]
    one, zero = F.one(), F.zero()
    if all(F.is_zero(c) for c in (c0, c1, c2, c3)):
        dirs = [(one, zero), (zero, one), (one, one)]
        u = A.square((one, zero))[0]
        v = A.square((zero, one))[1]
        if not (F.is_zero(u) and F.is_zero(v)):
            kernel = normalize_point(F, (F.neg(v), u))
            if kernel not in dirs:
                dirs.append(kernel)
        sols = tuple(
            ProjectiveSolution(d + (eigencheck(A, d),), trivial=False) for d in dirs
        )
        return Dim2Result(sols, infinite_family=True)
    dirs = []
    if F.is_zero(c3):
        dirs.append((one, zero))
    for r in polynomial_roots(Polynomial(F, [c0, c1, c2, c3], var="u")):
        dirs.append(normalize_point(F, (r, one)))
    sols = []
    for d in dirs:
        lam = eigencheck(A, d)
        if lam is None:
            raise RuntimeError(f"cubic root {d!r} is not an eigen-direction (engine bug)")
        sols.append(ProjectiveSolution(d + (lam,), trivial=False))
    return Dim2Result(tuple(sols), infinite_family=False)


# ---------------------------------------------------------------------------
# Real engine
# ---------------------------------------------------------------------------

# numpy is imported inside each function of the real engine, not at module
# level, so the exact engines and the CLI commands that use only them run
# without loading it.


def _first_unit_eigenpair(A, cfg, seed, accept, lam=None):
    """The first accepted unit eigenpair (u, mu, residual) of a real algebra,
    by multistart damped Newton, or None once the restarts run out.

    Solves Vu - mu*u = 0, |u|^2 = 1 from unit starts drawn with ``seed``; a
    restart returns its pair once |Vu - mu*u| <= ``cfg.residual_tol`` at the
    normalized iterate and ``accept(u, mu)`` holds; until then it keeps
    taking Newton steps.  With ``lam=None`` the unknowns are
    (u, mu), mu seeded as <Vu, u>; otherwise mu is pinned to ``lam`` and the
    n+1 equations in u are solved by least squares.
    """
    import numpy as np

    if not isinstance(A.field, Reals):
        raise UnsupportedField("the real engine needs a Reals algebra")
    n = A.dim
    T = np.array(A.alpha, dtype=float)
    S = 0.5 * (T + T.transpose(1, 0, 2))  # symmetric part: Vu depends on it alone
    free = lam is None

    def square(u):
        return np.einsum("ikj,i,k->j", S, u, u)

    # mu = 0 (the nilpotent search) skips the shifts by mu: they change no
    # value and took about a tenth of its time
    def shifted(u, mu):  # Vu - mu*u
        return square(u) - mu * u if mu else square(u)

    def residual(z):
        u, mu = (z[:n], z[n]) if free else (z, lam)
        return np.concatenate([shifted(u, mu), [u @ u - 1.0]])

    def jacobian(z):
        u, mu = (z[:n], z[n]) if free else (z, lam)
        J = np.zeros((n + 1, n + 1 if free else n))
        # d(Vu)_j / du_i = 2 * sum_k S[i,k,j] u_k
        J[:n, :n] = 2.0 * np.einsum("ikj,k->ji", S, u)
        if mu:
            J[:n, :n] -= mu * np.eye(n)
        if free:
            J[:n, n] = -u
        J[n, :n] = 2.0 * u
        return J

    rng = np.random.default_rng(seed)
    for _ in range(cfg.max_restarts):
        u = rng.normal(size=n)
        u = u / np.linalg.norm(u)
        z = np.concatenate([u, [u @ square(u)]]) if free else u
        for _ in range(MAX_NEWTON_ITER):
            nrm = np.linalg.norm(z[:n])
            if nrm >= 1e-6:  # smaller iterates drift to 0, not to a unit root
                u = z[:n] / nrm
                mu = u @ square(u) if free else lam
                res = np.linalg.norm(shifted(u, mu))
                if res <= cfg.residual_tol and accept(u, mu):
                    return u, mu, res
            H = residual(z)
            J = jacobian(z)
            try:
                if free:
                    delta = np.linalg.solve(J, -H)
                else:
                    delta = np.linalg.lstsq(J, -H, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            base = np.linalg.norm(H)
            t = 1.0
            while t > 1e-12:
                if np.linalg.norm(residual(z + t * delta)) < (1.0 - 1e-4 * t) * base:
                    break
                t *= 0.5
            if t <= 1e-12:
                break
            z = z + t * delta
            if not np.all(np.isfinite(z)):
                break
    return None


def solve_real(A, cfg=None):
    """One eigenpair of a real algebra: the first pair of the unit eigen-search.

    The search (``_first_unit_eigenpair``, lam free and seeded as <Vx, x>) also
    feeds the idempotent and absolute-nilpotent searches; restarts are
    deterministic for a fixed seed.  It accepts a pair once ``eigencheck``
    accepts the reported direction, scaled by its pivot, at the field's
    tolerance.  A real eigenvector always exists for finite-dimensional real
    algebras, so exhausting the restarts signals a bug, not a math outcome.
    """
    cfg = cfg if cfg is not None else SolveConfig()

    def scaled(u, mu):
        coords = [*u, mu]
        pivot = coords[projective_pivot(A.field, coords)]
        return tuple(float(c / pivot) for c in coords)

    def accept(u, mu):
        return eigencheck(A, scaled(u, mu)[: A.dim]) is not None

    pair = _first_unit_eigenpair(A, cfg, cfg.seed, accept)
    if pair is None:
        raise SearchExhausted(
            f"no eigenpair within {cfg.max_restarts} restarts (residual_tol={cfg.residual_tol})"
        )
    u, mu, res = pair
    return ProjectiveSolution(scaled(u, mu), trivial=False, residual=float(res))


def unit_eigenpair(A, sol):
    """Recover the unit-norm eigenpair (x, lam) from a projective real solution."""
    import numpy as np

    n = A.dim
    x = np.array(sol.coords[:n], dtype=float)
    s = np.linalg.norm(x)
    if s == 0:
        raise ValueError("trivial solution has no eigenvector")
    return x / s, sol.coords[n] / s


def find_idempotent_real(A, cfg=None):
    """Search for x with x*x = x; returns the element or None (not a nonexistence proof).

    The unit search accepts a pair Vu = mu*u once 0 < |mu| <= 1e3 and
    ``algebra.is_idempotent`` accepts x = u/mu at the field's tolerance.
    """
    cfg = cfg if cfg is not None else SolveConfig()

    def rescaled(u, mu):
        return tuple(map(float, u / mu))

    def accept(u, mu):
        return 0 < abs(mu) <= 1e3 and is_idempotent(A, rescaled(u, mu))

    pair = _first_unit_eigenpair(A, cfg, cfg.seed + 1, accept)
    return None if pair is None else rescaled(*pair[:2])


def find_absolute_nilpotent_real(A, cfg=None):
    """Search for unit x with x*x = 0 (the unit search with lam pinned to 0).

    The search accepts u once ``algebra.is_absolute_nilpotent`` does.
    """
    cfg = cfg if cfg is not None else SolveConfig()

    def accept(u, _):
        return is_absolute_nilpotent(A, tuple(map(float, u)))

    pair = _first_unit_eigenpair(A, cfg, cfg.seed + 2, accept, lam=0.0)
    return None if pair is None else tuple(map(float, pair[0]))


# ---------------------------------------------------------------------------
# Extension counting and the genericity probe
# ---------------------------------------------------------------------------


def _subfield_count(E, rows, d):
    """How many index rows over E = GF(p^k) lie over GF(p^d), d | k: those whose
    x, lead 1, Frobenius^d fixes (Lidl and Niederreiter, *Finite Fields*, 2.3),
    each image one matmul on digits, ``ffenum._CHUNK`` int64s at a time.
    GF(p) fixes all."""
    if isinstance(E, PrimeField):
        return len(rows)
    D, M = ffenum.digit_ops(E), ffenum.frobenius(E, d)
    step = max(1, ffenum._CHUNK // (D.k * rows.shape[1]))
    fixed = 0
    for start in range(0, len(rows), step):
        x = D.digits(rows[start : start + step, :-1].T)  # (k, n, rows)
        moved = (D.apply(M, x) - x) / D.p  # an integer exactly where x is fixed
        fixed += int((moved.round() == moved).all(axis=(0, 1)).sum())
    return fixed


def count_solutions_extension(A_or_S, k):
    """Distinct projective solutions over F_{p^k} (multiplicities not counted),
    swept and verified on the GF(p) algebra, a system's tensor, as it stands
    (``_solution_rows``)."""
    return len(_solution_rows(getattr(A_or_S, "tensor", A_or_S), k)[1]) + 1  # and the trivial point


class GenericityVerdict(Enum):
    LIKELY_GENERIC = "LikelyGeneric"
    LIKELY_POSITIVE_DIMENSIONAL = "LikelyPositiveDimensional"


class ProbeReport(namedtuple("ProbeReport", "p counts verdict bound")):
    __slots__ = ()


def genericity_probe(A_or_S, cfg=None):
    """Counts over F_{p^k}, k = 1..k_max, against the Bezout bound 2^n.

    Only k in (k_max/2, k_max] is swept, largest first, so the first sweep
    checks the budget of them all before any is run (``_solution_rows``, which
    also refuses a base field that is not prime).  Each smaller d divides one
    such k, its smallest multiple m, and counts the rows over F_{p^m} that
    Frobenius^d fixes (``_subfield_count``).  A count above 2^n anywhere
    indicates a positive-dimensional solution set; counts bounded by 2^n
    throughout are consistent with finitely many solutions over the closure.
    Verdicts are heuristic, hence "Likely".
    """
    cfg = cfg if cfg is not None else SolveConfig()
    A = getattr(A_or_S, "tensor", A_or_S)  # a system's algebra
    half, counts = cfg.k_max // 2, dict.fromkeys(range(1, cfg.k_max + 1))
    for k in range(cfg.k_max, half, -1):
        E, rows = _solution_rows(A, k)
        counts[k] = len(rows) + 1
        for d in range(1, half + 1):
            if d * (half // d + 1) == k:
                counts[d] = _subfield_count(E, rows, d) + 1
    bound = 2**A.dim
    verdict = GenericityVerdict.LIKELY_POSITIVE_DIMENSIONAL
    if max(counts.values()) <= bound:
        verdict = GenericityVerdict.LIKELY_GENERIC
    return ProbeReport(A.field.p, counts, verdict, bound)


def draw_perturbation(F, n, rng):
    """Random (eps, phis) for perturb_system, honoring valuation constraints."""
    if isinstance(F, LaurentSeries):
        eps = [
            F.series(rng.randint(1, 2), [F.base.random(rng) for _ in range(2)])
            for _ in range(n)
        ]
        phis = [
            tuple(
                F.series(rng.randint(0, 1), [F.base.random(rng)]) for _ in range(n)
            )
            for _ in range(n)
        ]
        return eps, phis
    eps = [F.random(rng) for _ in range(n)]
    phis = [tuple(F.random(rng) for _ in range(n)) for _ in range(n)]
    return eps, phis
