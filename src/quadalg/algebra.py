"""Structure-constant algebras and the squaring operator.

An n-dimensional algebra over a field F is stored as its structure tensor
``alpha[i][k][j]``: the product of basis vectors e_i * e_k has j-th
coordinate ``alpha[i][k][j]``.  Elements are plain tuples of n field
scalars.  The squaring map x -> x*x is the quadratic operator whose
eigenvectors (x != 0 with x*x = lam*x) span the one-dimensional
subalgebras; the two distinguished cases are idempotents (lam = 1) and
absolute nilpotents (lam = 0), and every eigenvector rescales to one of
those two.

Tensors and elements are immutable and all operations are pure.
"""

import itertools
from collections import namedtuple
from enum import Enum

from .errors import (
    CharTwo,
    DimensionMismatch,
    EvenOrTrivialDegree,
    FieldMismatch,
    NotAnEigenvector,
    NotAnExtensionField,
    NotNilpotentAtGivenOrder,
    UnsupportedField,
    ZeroVector,
)
from .fields import ExtensionField, Polynomial, Rationals, Reals

MAX_DIM = 16  # checked where a dimension arrives: files, counterexample moduli


class StructureTensor:
    """An algebra given by its cubic array of structure constants."""

    __slots__ = ("field", "dim", "alpha", "_nonzeros")

    def __init__(self, field, alpha):
        alpha = tuple(tuple(tuple(row) for row in plane) for plane in alpha)
        n = len(alpha)
        if n < 1:
            raise DimensionMismatch("an algebra needs dimension >= 1")
        for i, plane in enumerate(alpha):
            if len(plane) != n:
                raise DimensionMismatch("structure tensor is not cubic")
            for k, row in enumerate(plane):
                if len(row) != n:
                    raise DimensionMismatch("structure tensor is not cubic")
                for j, a in enumerate(row):
                    if not field.contains(a):
                        raise FieldMismatch(
                            f"alpha[{i}][{k}][{j}] = {a!r} is not a scalar of {field!r}"
                        )
        self.field = field
        self.dim = n
        self.alpha = alpha
        nz = []
        for i in range(n):
            for k in range(n):
                for j in range(n):
                    if not field.is_zero(alpha[i][k][j]):
                        nz.append((i, k, j, alpha[i][k][j]))
        self._nonzeros = tuple(nz)

    def element(self, coords):
        """Coerce a sequence (ints allowed) into an element of this algebra."""
        F = self.field
        out = []
        for c in coords:
            if isinstance(c, int) and not isinstance(c, bool) and not F.contains(c):
                out.append(F.from_int(c))
            elif F.contains(c):
                out.append(c)
            else:
                raise FieldMismatch(f"coordinate {c!r} does not belong to {F!r}")
        if len(out) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(out)}")
        return tuple(out)

    def zero_element(self):
        return (self.field.zero(),) * self.dim

    def multiply(self, x, y):
        """Coordinates of the product x*y."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length does not match algebra dimension")
        F = self.field
        out = [F.zero()] * self.dim
        for i, k, j, a in self._nonzeros:
            out[j] = F.add(out[j], F.mul(a, F.mul(x[i], y[k])))
        return tuple(out)

    def square(self, x):
        """The quadratic operator: x -> x*x."""
        return self.multiply(x, x)

    def is_commutative(self):
        a = self.alpha
        n = self.dim
        F = self.field
        return all(
            F.eq(a[i][k][j], a[k][i][j])
            for i in range(n)
            for k in range(i + 1, n)
            for j in range(n)
        )

    def symmetrize(self):
        """The commutative tensor (alpha[ik] + alpha[ki]) / 2 with the same squaring map."""
        F = self.field
        if F.characteristic == 2:
            raise CharTwo("symmetrization divides by two")
        half = F.inv(F.from_int(2))
        a = self.alpha
        n = self.dim
        new = [
            [
                [F.mul(half, F.add(a[i][k][j], a[k][i][j])) for j in range(n)]
                for k in range(n)
            ]
            for i in range(n)
        ]
        return StructureTensor(F, new)

    def scale(self, c):
        """The tensor with every entry multiplied by c."""
        F = self.field
        new = [
            [[F.mul(c, a) for a in row] for row in plane] for plane in self.alpha
        ]
        return StructureTensor(F, new)

    def __eq__(self, other):
        return (
            isinstance(other, StructureTensor)
            and other.field == self.field
            and other.alpha == self.alpha
        )

    def __hash__(self):
        return hash((self.field, self.alpha))

    def __repr__(self):
        return f"StructureTensor(dim={self.dim}, field={self.field!r})"


def zero_algebra(field, n):
    """The n-dimensional algebra with identically zero multiplication."""
    z = field.zero()
    return StructureTensor(field, [[[z] * n for _ in range(n)] for _ in range(n)])


def matrix_algebra(field, m):
    """Full m x m matrix algebra as an m^2-dimensional structure tensor.

    Basis index of the matrix unit E_ab is a*m + b; E_ab * E_cd is E_ad when
    b == c and zero otherwise.
    """
    n = m * m
    z, one = field.zero(), field.one()
    alpha = [[[z] * n for _ in range(n)] for _ in range(n)]
    for a in range(m):
        for b in range(m):
            for d in range(m):
                alpha[a * m + b][b * m + d][a * m + d] = one
    return StructureTensor(field, alpha)


def random_structure_tensor(field, n, rng, commutative=True):
    """A random tensor; slices are symmetric when `commutative` is set."""
    alpha = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if commutative and k < i:
                continue
            for j in range(n):
                c = field.random(rng)
                alpha[i][k][j] = c
                if commutative:
                    alpha[k][i][j] = c
    return StructureTensor(field, alpha)


def is_zero_vector(field, x):
    return all(field.is_zero(c) for c in x)


def is_idempotent(A, x):
    """True when x*x = x.  The zero vector passes vacuously."""
    return _eq_vec(A.field, A.square(x), x)


def is_absolute_nilpotent(A, x):
    """True when x*x = 0.  For x = 0 this is trivially true; searches skip 0."""
    return is_zero_vector(A.field, A.square(x))


def _eq_vec(F, x, y):
    return all(F.eq(a, b) for a, b in zip(x, y))


def eigencheck(A, x):
    """The scalar lam with x*x = lam*x, or None when x*x is not proportional to x."""
    F = A.field
    if is_zero_vector(F, x):
        raise ZeroVector("eigencheck needs a nonzero vector")
    v = A.square(x)
    if F.is_exact:
        pivot = next(i for i, c in enumerate(x) if not F.is_zero(c))
    else:
        pivot = max(range(len(x)), key=lambda i: abs(x[i]))
    lam = F.div(v[pivot], x[pivot])
    for j in range(A.dim):
        if not F.eq(v[j], F.mul(lam, x[j])):
            return None
    return lam


def rescale_to_canonical(A, x, lam):
    """Scale an eigenvector to an idempotent (lam != 0) or return the nilpotent (lam = 0)."""
    F = A.field
    found = eigencheck(A, x)
    if found is None or not F.eq(found, lam):
        raise NotAnEigenvector(f"x*x != {lam!r} * x")
    if F.is_zero(lam):
        return tuple(x)
    c = F.inv(lam)
    return tuple(F.mul(c, xi) for xi in x)


def power(A, x, k):
    """Left-associated power x^k = ((x*x)*x)*... for k >= 1."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    acc = tuple(x)
    for _ in range(k - 1):
        acc = A.multiply(acc, x)
    return acc


def absolute_nilpotent_from_nilpotent(A, x, r):
    """From x^r = 0, x^(r-1) != 0 produce z = x^s, s = r - floor(r/2), with z*z = 0.

    The algebra must be power-associative on the subalgebra generated by x
    (caller-asserted); the returned element is verified to square to zero.
    """
    if r < 2:
        raise ValueError("nilpotency order must be >= 2")
    F = A.field
    if not is_zero_vector(F, power(A, x, r)):
        raise NotNilpotentAtGivenOrder(f"x^{r} != 0")
    if is_zero_vector(F, power(A, x, r - 1)):
        raise NotNilpotentAtGivenOrder(f"x^{r - 1} = 0")
    s = r - r // 2
    z = power(A, x, s)
    if is_zero_vector(F, z) or not is_zero_vector(F, A.square(z)):
        raise ValueError("reduction failed: algebra is not power-associative on x")
    return z


def circle_product(phi, x, y):
    """(x - pi(x)) * (y - pi(y)) in the extension field phi, pi = constant part."""
    if not isinstance(phi, ExtensionField):
        raise NotAnExtensionField("circle product lives in an extension field")
    zb = phi.base.zero()
    return phi.mul((zb,) + tuple(x[1:]), (zb,) + tuple(y[1:]))


def counterexample_algebra(F, f):
    """The quotient algebra Phi/F for Phi = F[t]/(f), f irreducible of odd degree d > 1.

    Phi carries the product (x - pi(x))(y - pi(y)) where pi projects onto the
    constant line; that line is an ideal, and the quotient on the basis of the
    images of t, t^2, ..., t^(d-1) is a commutative (d-1)-dimensional algebra
    whose squaring operator has no eigenvectors over F.  A degree above
    MAX_DIM + 1 is refused (DimensionMismatch) before f is certified.
    """
    if not F.is_exact:
        raise UnsupportedField("the quotient construction needs an exact field")
    if not isinstance(f, Polynomial) or f.field != F:
        raise FieldMismatch("modulus must be a polynomial over F")
    d = f.degree
    if d <= 1 or d % 2 == 0:
        raise EvenOrTrivialDegree(f"modulus degree must be odd and > 1, got {d}")
    if d - 1 > MAX_DIM:
        raise DimensionMismatch(f"dimension {d - 1} outside 1..{MAX_DIM}")
    phi = ExtensionField(F, f)  # raises ReducibleModulus if f factors
    t = phi.gen()
    pows = [phi.one()]
    for _ in range(2 * (d - 1)):
        pows.append(phi.mul(pows[-1], t))
    n = d - 1
    z = F.zero()
    alpha = [[[z] * n for _ in range(n)] for _ in range(n)]
    for a in range(1, d):
        for b in range(1, d):
            s = pows[a + b]
            for c in range(1, d):
                alpha[a - 1][b - 1][c - 1] = s[c]
    return StructureTensor(F, alpha)


def restrict_scalars(A):
    """View an l-dimensional algebra over base[t]/(m) as an (l*deg)-dimensional base algebra.

    Uses the power basis of the extension: new basis index (a, i) -> a*e + i
    stands for t^i times the a-th old basis vector.  Idempotents and absolute
    nilpotents are preserved under the induced identification of elements.
    """
    phi = A.field
    if not isinstance(phi, ExtensionField):
        raise NotAnExtensionField("restriction of scalars needs an extension field")
    base = phi.base
    e = phi.degree
    l = A.dim
    m = l * e
    t = phi.gen()
    pows = [phi.one()]
    for _ in range(2 * e - 2):
        pows.append(phi.mul(pows[-1], t))
    z = base.zero()
    alpha = [[[z] * m for _ in range(m)] for _ in range(m)]
    for a in range(l):
        for b in range(l):
            for c in range(l):
                s0 = A.alpha[a][b][c]
                if all(base.is_zero(x) for x in s0):
                    continue
                for i in range(e):
                    for j in range(e):
                        w = phi.mul(s0, pows[i + j])
                        for k in range(e):
                            alpha[a * e + i][b * e + j][c * e + k] = w[k]
    return StructureTensor(base, alpha)


def flatten_element(phi, x):
    """Map an element of a Phi-algebra to its restriction-of-scalars coordinates."""
    out = []
    for s in x:
        out.extend(s)
    return tuple(out)


# ---------------------------------------------------------------------------
# Spectrum classification
# ---------------------------------------------------------------------------


class SigmaDescription(Enum):
    EMPTY = "Empty"
    ZERO_ONLY = "ZeroOnly"
    ALL_NONZERO = "AllNonzero"
    ALL_OF_F = "AllOfF"


class SpectrumReport(
    namedtuple("SpectrumReport", "sigma_p description idempotent nilpotent certified")
):
    """Membership of 0 and 1 in the eigenvalue set, with witnesses.

    `sigma_p` is a frozenset, `description` a SigmaDescription, and each
    witness a tuple or None.  `certified` is False for numeric (real-field)
    searches, where an absent witness means "not found", never "nonexistent".
    """

    __slots__ = ()

    @classmethod
    def from_witnesses(cls, idempotent, nilpotent, certified):
        sp = set()
        if nilpotent is not None:
            sp.add(0)
        if idempotent is not None:
            sp.add(1)
        desc = {
            frozenset(): SigmaDescription.EMPTY,
            frozenset({0}): SigmaDescription.ZERO_ONLY,
            frozenset({1}): SigmaDescription.ALL_NONZERO,
            frozenset({0, 1}): SigmaDescription.ALL_OF_F,
        }[frozenset(sp)]
        return cls(frozenset(sp), desc, idempotent, nilpotent, certified)


def nonzero_vectors(field, n):
    """All nonzero coordinate vectors of length n over a finite field."""
    for x in itertools.product(list(field.elements()), repeat=n):
        if not is_zero_vector(field, x):
            yield x


def eigenvalue_set(A):
    """The full eigenvalue set of the squaring operator, by exhaustion (finite field).

    A pure-Python sweep of all q^n vectors with no enumeration budget: the
    slow reference that ``classify_spectrum`` is tested against.
    """
    F = A.field
    if not F.finite:
        raise UnsupportedField("exhaustive eigenvalue set needs a finite field")
    out = set()
    for x in nonzero_vectors(F, A.dim):
        lam = eigencheck(A, x)
        if lam is not None:
            out.add(lam)
    return out


def classify_spectrum(A, cfg=None):
    """Decide whether 0 and 1 are eigenvalues of the squaring operator.

    Over a finite field the witnesses are read off the verified solution
    rows of the exhaustive sweep (certified), within the fixed
    ``fields.ENUMERATION_BUDGET``: a larger sweep raises BudgetExceeded.
    Over the reals both witnesses come from the solver's unit eigen-search
    (an idempotent u/lam off a pair with lam != 0, a nilpotent with lam
    pinned to 0) and the report is flagged as uncertified.  Over the
    rationals only dimensions 1 and 2 are supported (exact elimination);
    larger rational problems are refused.
    """
    F = A.field
    if isinstance(F, Rationals):
        return _classify_rationals(A)
    if not (F.finite or isinstance(F, Reals)):
        raise UnsupportedField(f"spectrum classification unsupported over {F!r}")
    from . import solver

    if F.finite:
        rows = solver._solution_rows(solver.build_system(A))
        if A.dim > 1:
            import numpy as np

            # only the first row with lam = 0 and the first with lam != 0 are read
            zero = rows[:, -1] == 0
            rows = rows[sorted(int(np.argmax(z)) for z in (zero, ~zero) if z.any())].tolist()
        return _report_from_solutions(A, solver._nontrivial_solutions(F, rows))
    idem = solver.find_idempotent_real(A, cfg)
    nil = solver.find_absolute_nilpotent_real(A, cfg)
    return SpectrumReport.from_witnesses(idem, nil, certified=False)


def _classify_rationals(A):
    from . import solver

    if A.dim == 1:
        # x*x = alpha*x for every x, so the one direction (1) has lam = alpha
        sols = [solver.ProjectiveSolution((A.field.one(), A.alpha[0][0][0]), trivial=False)]
    elif A.dim == 2:
        # infinite family: the samples hold an axis with lam != 0 whenever
        # lam is not identically 0, and the kernel of lam
        sols = solver.solve_exact_dim2(A).solutions
    else:
        raise UnsupportedField("rational spectrum classification needs dim <= 2")
    return _report_from_solutions(A, sols)


def _report_from_solutions(A, sols):
    """Certified report read off exact projective solutions (x : lam)."""
    F = A.field
    idem = nil = None
    for sol in sols:
        if sol.trivial:
            continue
        x = sol.coords[:-1]
        lam = sol.coords[-1]
        if F.is_zero(lam):
            if nil is None:
                nil = x
        elif idem is None:
            idem = rescale_to_canonical(A, x, lam)
    return SpectrumReport.from_witnesses(idem, nil, certified=True)
