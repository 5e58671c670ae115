"""Independent oracles for the benchmark's correctness checks.

Nothing here imports quadalg.  Every oracle works from raw integer or float
structure tensors (``alpha[i][k][j]`` is the j-th coordinate of e_i * e_k)
with its own arithmetic, so a fault in the program cannot hide in the check.
"""

import itertools
from fractions import Fraction

import numpy as np

DESCRIPTIONS = {
    (False, False): "Empty",
    (True, False): "ZeroOnly",
    (False, True): "AllNonzero",
    (True, True): "AllOfF",
}


# ---------------------------------------------------------------------------
# Prime fields
# ---------------------------------------------------------------------------


def normalized_vectors(p, n):
    """Every nonzero x in GF(p)^n whose leftmost nonzero coordinate is 1, as rows."""
    blocks = []
    for lead in range(n):
        m = n - lead - 1
        tails = np.array(
            list(itertools.product(range(p), repeat=m)), dtype=np.int64
        ).reshape(p**m, m)
        block = np.zeros((len(tails), n), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1 :] = tails
        blocks.append(block)
    return np.concatenate(blocks)


def square_mod(alpha, X, p):
    """Rows V(x) = x*x mod p for the rows x of X."""
    return np.einsum("ikj,Ni,Nk->Nj", np.asarray(alpha, dtype=np.int64), X, X) % p


def eigen_solutions_gf(alpha, p, perturbation=None):
    """All projective solutions (x_1, ..., x_n, lam) of x*x = lam*x over GF(p).

    Brute force: every normalized x is tried against every lam in GF(p).  A
    point with x != 0 has exactly one representative with x normalized, and
    x = 0 gives only the trivial point (0 : ... : 0 : 1).  A perturbation
    ``(eps, phis)`` subtracts eps_j * (phi_j . x)^2 from the j-th form.
    """
    alpha = np.asarray(alpha, dtype=np.int64)
    n = alpha.shape[0]
    X = normalized_vectors(p, n)
    V = square_mod(alpha, X, p)
    if perturbation is not None:
        eps, phis = perturbation
        L = X @ np.asarray(phis, dtype=np.int64).T % p
        V = (V - np.asarray(eps, dtype=np.int64) * L * L) % p
    sols = {(0,) * n + (1,)}
    for lam in range(p):
        hit = np.all(V == (lam * X) % p, axis=1)
        sols.update(tuple(int(c) for c in x) + (lam,) for x in X[hit])
    return sols


def spectrum_description(sols, n):
    """The eigenvalue-set shape read off the lam values of nontrivial solutions.

    0 is an eigenvalue iff some nontrivial lam is 0; every nonzero scalar is
    one iff some nontrivial lam is nonzero (an eigenvector rescales freely).
    """
    lams = [s[n] for s in sols if any(s[:n])]
    return DESCRIPTIONS[(any(l == 0 for l in lams), any(l != 0 for l in lams))]


def is_idempotent_gf(alpha, x, p):
    X = np.array([x], dtype=np.int64) % p
    return bool(np.all(square_mod(alpha, X, p) == X))


def is_absolute_nilpotent_gf(alpha, x, p):
    X = np.array([x], dtype=np.int64) % p
    return bool(X.any() and not square_mod(alpha, X, p).any())


def eigenvalue_gf(alpha, x, p):
    """lam with x*x = lam*x for nonzero x, or None."""
    X = np.array([x], dtype=np.int64) % p
    V = square_mod(alpha, X, p)
    for lam in range(p):
        if np.all(V == (lam * X) % p):
            return lam
    return None


def diagonal_count(n):
    """Projective solutions of V(x) = (x_1^2, ..., x_n^2): x in {0,1}^n, lam = 1, plus trivial."""
    return 2**n


def zero_algebra_count(q, n):
    """Projective solutions for the zero algebra over F_q: every (x : 0), plus trivial."""
    return (q**n - 1) // (q - 1) + 1


# ---------------------------------------------------------------------------
# Polynomials: irreducible moduli and quotient algebras
# ---------------------------------------------------------------------------


def _poly_mod(a, m, p):
    """a mod m over GF(p) (coefficients low to high, m monic)."""
    a = [c % p for c in a]
    d = len(m) - 1
    while len(a) > d:
        c = a.pop()
        if c:
            for i in range(d):
                a[len(a) - d + i] = (a[len(a) - d + i] - c * m[i]) % p
    return a


def is_irreducible_mod_p(coeffs, p):
    """Trial division by every monic polynomial of degree 1 .. deg/2."""
    d = len(coeffs) - 1
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            if not any(_poly_mod(coeffs, list(tail) + [1], p)):
                return False
    return True


def random_irreducible(p, d, rng):
    """A uniformly drawn monic irreducible of degree d over GF(p) (low to high)."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(d)] + [1]
        if coeffs[0] and is_irreducible_mod_p(coeffs, p):
            return coeffs


def quotient_tensor(modulus, p=None):
    """Structure tensor of the quotient algebra of F[t]/(modulus) by the constants.

    Basis: images of t, ..., t^(d-1); e_a * e_b is t^(a+b) reduced mod the
    monic modulus with its constant coefficient dropped.  Works over GF(p), or
    over Q (exact fractions) when p is None.
    """
    d = len(modulus) - 1
    red = lambda c: c % p if p is not None else Fraction(c)
    m = [red(c) for c in modulus]
    pows = [[red(1)] + [red(0)] * (d - 1)]
    for _ in range(2 * (d - 1)):
        prev = pows[-1]
        top = prev[-1]
        shifted = [red(0)] + prev[:-1]
        pows.append([red(s - top * m[i]) for i, s in enumerate(shifted)])
    return [
        [[pows[a + b][c] for c in range(1, d)] for b in range(1, d)]
        for a in range(1, d)
    ]


def gf9_witness_values():
    """Values of a^9 - a + 1 on all of F_9 = F_3[i]/(i^2 + 1), as (re, im) pairs."""

    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1]) % 3, (u[0] * v[1] + u[1] * v[0]) % 3)

    values = set()
    for a in itertools.product(range(3), repeat=2):
        acc = (1, 0)
        for _ in range(9):
            acc = mul(acc, a)
        values.add(((acc[0] - a[0] + 1) % 3, (acc[1] - a[1]) % 3))
    return values


# ---------------------------------------------------------------------------
# Reals
# ---------------------------------------------------------------------------


def real_square(alpha, x):
    return np.einsum("ikj,i,k->j", np.asarray(alpha, dtype=float), x, x)


def real_unit_residual(alpha, coords):
    """||V(x) - lam x|| at the unit representative of a projective (x : lam)."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    x = np.asarray(coords[:n], dtype=float)
    s = np.linalg.norm(x)
    if s == 0.0:
        return float("inf")
    xu, lam = x / s, coords[n] / s
    return float(np.linalg.norm(real_square(alpha, xu) - lam * xu))


def real_idempotent_residual(alpha, x):
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(real_square(alpha, x) - x))


def real_nilpotent_residual(alpha, x):
    """||V(u)|| at u = x/|x|; infinite for x = 0."""
    x = np.asarray(x, dtype=float)
    s = np.linalg.norm(x)
    if s == 0.0:
        return float("inf")
    return float(np.linalg.norm(real_square(alpha, x / s)))
