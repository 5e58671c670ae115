"""Projective eigenvector systems and their solution engines.

For an n-dimensional algebra the eigenvector condition x*x = lam*x becomes
n homogeneous quadratic forms in the n+1 projective unknowns
(xi_1, ..., xi_n, lam):

    g_j = sum_ik alpha[i][k][j] xi_i xi_k  -  lam xi_j   (optionally
          minus eps_j * phi_j(x)^2 for a perturbed system)

The point (0 : ... : 0 : 1) always solves the unperturbed and perturbed
system and is called trivial; every nontrivial solution yields an
eigenvector.  Engines:

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

Every solution a sweep returns is re-verified through an evaluation route
independent of the engine that produced it: the finite-field rows on arrays,
from the structure tensor (``_verify_solutions``).
"""

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from . import ffenum
from .algebra import StructureTensor, eigencheck, is_absolute_nilpotent, is_idempotent
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
    if F.is_exact:
        pivot = next((i for i, c in enumerate(coords) if not F.is_zero(c)), None)
        if pivot is None:
            raise ValueError("cannot normalize the zero point")
        c = F.inv(coords[pivot])
    else:
        pivot = max(range(len(coords)), key=lambda i: abs(coords[i]))
        if F.is_zero(coords[pivot]):
            raise ValueError("cannot normalize the zero point")
        c = 1.0 / coords[pivot]
    return tuple(F.mul(c, x) for x in coords)


class QuadraticSystem:
    """The n forms g_j as sparse quadratic monomial maps over n+1 variables.

    ``forms[j]`` maps a variable pair (i, k), i <= k, to its coefficient;
    variable n is lam.  The source tensor is kept so solutions can be
    re-verified through the squaring map, independently of this expansion.
    """

    __slots__ = ("field", "n", "forms", "tensor", "perturbation")

    def __init__(self, field, n, forms, tensor=None, perturbation=None):
        self.field = field
        self.n = n
        self.forms = tuple(dict(f) for f in forms)
        self.tensor = tensor
        self.perturbation = perturbation

    def evaluate(self, point):
        """Values (g_1, ..., g_n) at a projective point of length n+1."""
        if len(point) != self.n + 1:
            raise DimensionMismatch(f"expected {self.n + 1} coordinates")
        F = self.field
        out = []
        for form in self.forms:
            acc = F.zero()
            for (i, k), c in form.items():
                acc = F.add(acc, F.mul(c, F.mul(point[i], point[k])))
            out.append(acc)
        return tuple(out)

    def residual_via_tensor(self, point):
        """Same values computed from the structure tensor (independent route)."""
        if self.tensor is None:
            raise ValueError("system carries no source tensor")
        F = self.field
        x, lam = point[: self.n], point[self.n]
        v = self.tensor.square(x)
        out = [F.sub(v[j], F.mul(lam, x[j])) for j in range(self.n)]
        if self.perturbation is not None:
            for j, (eps, phi) in enumerate(self.perturbation):
                lin = F.zero()
                for i in range(self.n):
                    lin = F.add(lin, F.mul(phi[i], x[i]))
                out[j] = F.sub(out[j], F.mul(eps, F.mul(lin, lin)))
        return tuple(out)

    def is_solution(self, point):
        F = self.field
        return all(F.is_zero(v) for v in self.evaluate(point))


def build_system(A):
    """The eigenvector system of an algebra, with the trivial solution built in.

    Form j holds -1 at (j, n) and, at each pair i <= k where it is nonzero,
    alpha[i][i][j] if i = k, else alpha[i][k][j] + alpha[k][i][j], an entry
    the field calls zero dropped before the pair is summed.  The order of a
    form's keys is not part of the contract.
    """
    F, n, al = A.field, A.dim, A.alpha
    is_zero, mone = F.is_zero, F.neg(F.one())
    forms = []
    for j in range(n):
        form = {}
        for i in range(n):
            for k in range(i, n):
                a, b = al[i][k][j], al[k][i][j]
                c = b if is_zero(a) else a if i == k or is_zero(b) else F.add(a, b)
                if not is_zero(c):
                    form[(i, k)] = c
        form[(j, n)] = mone
        forms.append(form)
    return QuadraticSystem(F, n, forms, tensor=A)


def perturb_system(S, eps, phis):
    """Forms g_j - eps_j * phi_j(x)^2; degree and the trivial solution survive.

    Over a Laurent-series field each eps_j must sit in the maximal ideal
    (valuation offset >= 1) and each phi_j coefficient in the valuation ring.
    """
    F = S.field
    n = S.n
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
    two = F.from_int(2)
    forms = []
    for j in range(n):
        form = dict(S.forms[j])
        e = eps[j]
        phi = tuple(phis[j])
        if len(phi) != n:
            raise DimensionMismatch("phi must have one coefficient per xi variable")
        if not F.is_zero(e):
            for i in range(n):
                for k in range(i, n):
                    c = F.mul(e, F.mul(phi[i], phi[k]))
                    if i != k:
                        c = F.mul(two, c)
                    if F.is_zero(c):
                        continue
                    key = (i, k)
                    form[key] = F.sub(form.get(key, F.zero()), c)
        forms.append({k: v for k, v in form.items() if not F.is_zero(v)})
    pert = tuple((eps[j], tuple(phis[j])) for j in range(n))
    return QuadraticSystem(F, n, forms, tensor=S.tensor, perturbation=pert)


def affine_jacobian_at_origin(S):
    """Jacobian of f_j(x) = g_j(x, 1) at x = 0.

    At (0 : ... : 0 : 1) only the xi_i*lam terms have a nonzero
    xi_i-derivative, so entry (j, i) is the coefficient of (i, n) in form j.
    """
    F, n = S.field, S.n
    return [[form.get((i, n), F.zero()) for i in range(n)] for form in S.forms]


def trivial_jacobian_check(S):
    """True iff the affine Jacobian at the origin is minus the identity.

    This holds analytically for every system built here (the only linear part
    of f_j is -xi_j, and perturbations vanish to second order), so the check
    validates the implementation rather than the mathematics.
    """
    F, n = S.field, S.n
    zero, mone = F.zero(), F.neg(F.one())
    return all(
        F.eq(form.get((i, n), zero), mone if i == j else zero)
        for j, form in enumerate(S.forms)
        for i in range(n)
    )


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


def _verify_solutions(S, rows, E=None):
    """Raise RuntimeError, naming the point, unless every index row solves S.

    The rows, an (m, n+1) int64 array, index E: S.field, or GF(p^k) over a
    prime S.field, whose low digit holds S's constants.  They are checked in
    chunks of about ``ffenum._CHUNK`` int64s on base-p digit arrays, with
    the sweep's float64 kernel (``ffenum.digit_ops``, from the modulus): the
    pair products x_i*x_l and lam*x_j (``dmul``), brought under p
    (``reduce``), go through one matmul against a matrix built from the
    structure tensor (multiplying by a constant is a k x k matrix over GF(p),
    ``linear``), exact since every partial sum is an integer below 2^53
    (``linear`` raises otherwise), and the values x*x - lam*x are reduced mod
    p once.  A perturbation subtracts eps_j * phi_j(x)^2, that is
    eps_j*phi_ji*phi_jl at the pair (i, l) of form j, its constants multiplied
    on digits too.  A system with no tensor is checked the same way.
    """
    if not len(rows):
        return
    import numpy as np

    E, n = E or S.field, S.n
    D, DS = ffenum.digit_ops(E), ffenum.digit_ops(S.field)
    # G[:, i, l, j]: the digits of the coefficient of x_i*x_l in g_j, where
    # variable n is lam
    G = np.zeros((D.k, n + 1, n + 1, n), dtype=np.int64)
    if S.tensor is None:
        for j, form in enumerate(S.forms):
            for (i, l), c in form.items():
                G[: DS.k, i, l, j] = DS.scalar_digits(c)
    else:
        G[: DS.k, :n, :n] = DS.scalar_digits(S.tensor.alpha)
        G[0, range(n), n, range(n)] = -1  # G is left unreduced: ``linear`` reduces it
        if S.perturbation is not None:
            eps = DS.scalar_digits([e for e, _ in S.perturbation])  # (k, j)
            phi = DS.scalar_digits([cs for _, cs in S.perturbation])  # (k, j, i)
            prods = DS.dmul(DS.dmul(eps[:, :, None], phi)[..., None] % DS.p, phi[:, :, None, :])
            G[: DS.k, :n, :n] -= prods.transpose(0, 2, 3, 1).astype(np.int64)
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


def _require_eigen_form(S):
    """Raise unless every form reads g_j = Q_j(x) - lam*x_j, lam-free Q_j."""
    n = S.n
    if not trivial_jacobian_check(S) or any((n, n) in form for form in S.forms):
        raise ValueError(f"form j must read Q_j(x) - lam*x_j, its lam terms {{(j, {n}): -1}}")


def _check_budget(q, n):
    """Raise BudgetExceeded unless the |P^{n-1}| + 1 points a sweep over GF(q) counts fit."""
    if (total := (q**n - 1) // (q - 1) + 1) > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{total} projective points exceed budget {ENUMERATION_BUDGET}")


def _solution_rows(S, E=None):
    """Index rows (x : lam) of the nontrivial solutions over a finite field, verified.

    The field swept, E, is S.field or GF(p^k) over a prime S.field, where S's
    form indices stand.  Each form must read g_j = Q_j(x) - lam*x_j (ValueError
    otherwise), so x != 0 solves the system exactly when Q(x) = lam*x, with
    lam = Q_lead(x) at the leftmost nonzero coordinate of x (scaled to 1).
    ``fields.ENUMERATION_BUDGET`` bounds the points swept, |P^{n-1}(E)| + 1
    (``_check_budget``), and with them the sweep's time.  For n >= 2
    ``ffenum.solve_system`` sweeps the directions x in P^{n-1}(E) and the
    rows, an (m, n+1) int64 array in canonical order, pass
    ``_verify_solutions``.  P^0 is the single direction (1), and g_0 =
    c*x_0^2 - lam*x_0 vanishes at (1 : c), so for n = 1 the rows are the list
    [(1, index of c)], Python ints with no numpy (the indices of GF(3^40) do
    not fit int64).
    """
    F, E = S.field, E or S.field
    if not F.finite:
        raise UnsupportedField("exhaustive enumeration needs a finite field")
    _require_eigen_form(S)
    _check_budget(E.order, S.n)
    if S.n == 1:
        return [(1, F.scalar_index(S.forms[0].get((0, 0), F.zero())))]
    forms_idx = [{key: F.scalar_index(c) for key, c in form.items()} for form in S.forms]
    rows = ffenum.solve_system(E, S.n, forms_idx)
    _verify_solutions(S, rows, E)
    return rows


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
    rows = _solution_rows(S)
    sols = _nontrivial_solutions(S.field, rows if S.n == 1 else rows.tolist())
    return sols + [_trivial_solution(S.field, S.n)]


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


def _unit_eigenpairs(A, cfg, seed, lam=None, accept=None):
    """Unit eigenpairs (u, mu, residual) of a real algebra, by multistart damped Newton.

    Solves Vu - mu*u = 0, |u|^2 = 1 from unit starts drawn with ``seed``; a
    restart yields at most one pair, once |Vu - mu*u| <= ``cfg.residual_tol``
    at the normalized iterate and ``accept(u, mu)``, if given, holds; until
    then it keeps taking Newton steps.  With ``lam=None`` the unknowns are
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
                if res <= cfg.residual_tol and (accept is None or accept(u, mu)):
                    yield u, mu, res
                    break
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


def solve_real(A, cfg=None):
    """One eigenpair of a real algebra: the first pair of the unit eigen-search.

    The search (``_unit_eigenpairs``, lam free and seeded as <Vx, x>) also
    feeds the idempotent and absolute-nilpotent searches; restarts are
    deterministic for a fixed seed.  It accepts a pair once ``eigencheck``
    accepts the reported direction, scaled by its pivot, at the field's
    tolerance.  A real eigenvector always exists for finite-dimensional real
    algebras, so exhausting the restarts signals a bug, not a math outcome.
    """
    cfg = cfg if cfg is not None else SolveConfig()

    def scaled(u, mu):
        coords = [*u, mu]
        pivot = max(coords, key=abs)  # the first coordinate of largest modulus
        return tuple(float(c / pivot) for c in coords)

    def accept(u, mu):
        return eigencheck(A, scaled(u, mu)[: A.dim]) is not None

    for u, mu, res in _unit_eigenpairs(A, cfg, cfg.seed, accept=accept):
        return ProjectiveSolution(scaled(u, mu), trivial=False, residual=float(res))
    raise SearchExhausted(
        f"no eigenpair within {cfg.max_restarts} restarts (residual_tol={cfg.residual_tol})"
    )


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

    for u, mu, _ in _unit_eigenpairs(A, cfg, cfg.seed + 1, accept=accept):
        return rescaled(u, mu)
    return None


def find_absolute_nilpotent_real(A, cfg=None):
    """Search for unit x with x*x = 0 (the unit search with lam pinned to 0).

    The search accepts u once ``algebra.is_absolute_nilpotent`` does.
    """
    cfg = cfg if cfg is not None else SolveConfig()

    def accept(u, _):
        return is_absolute_nilpotent(A, tuple(map(float, u)))

    for u, _, _ in _unit_eigenpairs(A, cfg, cfg.seed + 2, lam=0.0, accept=accept):
        return tuple(map(float, u))
    return None


# ---------------------------------------------------------------------------
# Extension counting and the genericity probe
# ---------------------------------------------------------------------------


def _as_system(A_or_S):
    if isinstance(A_or_S, StructureTensor):
        return build_system(A_or_S)
    if isinstance(A_or_S, QuadraticSystem):
        return A_or_S
    raise TypeError("expected a StructureTensor or QuadraticSystem")


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
    swept and verified on the GF(p) system as it stands (``_solution_rows``)."""
    S = _as_system(A_or_S)
    F = S.field
    if not isinstance(F, PrimeField):
        raise UnsupportedField("extension counting needs a prime base field")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    _check_budget(F.p**k, S.n)  # before GF(p^k) is built
    # dimension 1 always counts 2, (1 : alpha) and the trivial point, over
    # every extension, so GF(p^k) is never built for it
    E = finite_field(F.p**k) if k > 1 and S.n > 1 else F
    return len(_solution_rows(S, E)) + 1  # the rows and the trivial point


class GenericityVerdict(Enum):
    LIKELY_GENERIC = "LikelyGeneric"
    LIKELY_POSITIVE_DIMENSIONAL = "LikelyPositiveDimensional"


class ProbeReport(namedtuple("ProbeReport", "p counts verdict bound")):
    __slots__ = ()


def genericity_probe(A_or_S, cfg=None):
    """Counts over F_{p^k}, k = 1..k_max, against the Bezout bound 2^n.

    Only k in (k_max/2, k_max] is swept; each smaller d divides one such k, its
    smallest multiple m, and counts the rows over F_{p^m} that Frobenius^d
    fixes (``_subfield_count``).  A count above 2^n anywhere indicates a
    positive-dimensional solution set; counts bounded by 2^n throughout are
    consistent with finitely many solutions over the closure.  Verdicts are
    heuristic, hence "Likely".  The budget is checked at k_max, the largest
    sweep, before any is run.
    """
    cfg = cfg if cfg is not None else SolveConfig()
    S = _as_system(A_or_S)
    F = S.field
    if not isinstance(F, PrimeField):
        raise UnsupportedField("the genericity probe needs a prime base field")
    _check_budget(F.p**cfg.k_max, S.n)
    bound = 2**S.n
    half, counts = cfg.k_max // 2, dict.fromkeys(range(1, cfg.k_max + 1))
    for k in range(half + 1, cfg.k_max + 1):
        E = finite_field(F.p**k) if k > 1 and S.n > 1 else F
        rows = _solution_rows(S, E)
        counts[k] = len(rows) + 1
        for d in range(1, half + 1):
            if d * (half // d + 1) == k:
                counts[d] = _subfield_count(E, rows, d) + 1
    verdict = GenericityVerdict.LIKELY_POSITIVE_DIMENSIONAL
    if max(counts.values()) <= bound:
        verdict = GenericityVerdict.LIKELY_GENERIC
    return ProbeReport(F.p, counts, verdict, bound)


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
