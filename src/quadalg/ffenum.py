"""Vectorized exhaustive enumeration over the finite fields within budget.

Field elements are addressed by integer index: for GF(p) the index is the
residue itself, for GF(p^k) it is sum(c_i * p^i) over the coefficient tuple.
Index 0 is zero and index 1 is one in both cases, and c < p is the constant c
in every GF(p^k).  A sweep within the budget has q <= 10^7, so a product of
two reduced digits, or of three at k = 1, fits in int64.

A direction x of P^{n-1}, leftmost nonzero coordinate x_lead = 1, solves the
eigenvector system g_j = Q_j(x) - lam*x_j exactly when Q(x) = lam*x with
lam = Q_lead(x).  ``solve_system`` sweeps every direction in one loop, in
canonical order (by lead, then tails in mixed radix), a chunk at a time with
about ``_CHUNK`` int64s in its largest temporary.  GF(p^k) of order up to 2^16
is evaluated term by term on discrete-log tables built once per field
(``_ExtOps``); every other field on base-p digits (``digit_ops``), all forms
by one float64 matmul of the pair products x_i*x_l against a coefficient
matrix, each form value then reduced mod p once.  Every partial sum of that
matmul is an integer below 2^53, so it is exact whatever order BLAS adds in
(the method of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 2008).  The
solver verifies the rows on digit arrays, which never read the tables.

numpy is imported by the functions that use it, so importing this module (and
the solver module, which imports it) does not load numpy.
"""

from functools import lru_cache
from itertools import accumulate

from .fields import PrimeField, _digits, _divisors, _ppowmod, _ptrim, is_prime

# Element budget: about the most int64s a chunk's temporaries hold (digits x pairs x rows)
_CHUNK = 1 << 15
# Largest order of a GF(p^k) swept on discrete-log tables (``_ExtOps``)
_TABLE_LIMIT = 1 << 16


class _ExtOps:
    """Discrete-log arithmetic of GF(p^k) on element indices.

    With g the first element in index order whose multiplicative order is
    n = q - 1, and log 0 stored as 2n:

    * ``exp[i]``  -- the index of g^(i mod n) for 0 <= i < 2n, and 0 for
      2n <= i <= 4n, so ``exp[log[a] + log[b]]`` is the index of a*b for
      every a and b, zero included;
    * ``log[a]``  -- the i < n with g^i = a, or 2n for a = 0;
    * ``zech[i]`` -- Zech's logarithm Z(i), with 1 + g^i = g^Z(i), or 2n
      where 1 + g^i = 0, so a + b = g^(log a + Z(log b - log a)) for nonzero
      a and b, the difference taken mod n (Lidl and Niederreiter, *Finite
      Fields*).

    The three are C-int arrays, about 1.6 MB at q = 2^16.
    """

    def __init__(self, F):
        import numpy as np

        base, p, k, q = F.base, F.base.p, F.degree, F.order
        n = q - 1
        # g^(n/r) != 1 for every prime r dividing n
        primes = [r for r in _divisors(n) if is_prime(r)]
        for cand in range(1, q):
            g = _ptrim(base, _digits(cand, p, k))
            if all(_ppowmod(base, g, n // r, F.modulus) != [1] for r in primes):
                break
        # M maps the digits of y to those of g*y
        M = digit_ops(F).linear(np.reshape(_digits(cand, p, k), (k, 1, 1)))
        # P holds the digits of g^0 .. g^(m-1) as columns and M multiplies by
        # g^m, so each pass doubles m
        P = np.eye(k, 1)
        while P.shape[1] < n:
            P = np.concatenate([P, M @ P % p], axis=1)
            M = M @ M % p
        powers = (p ** np.arange(k) @ P[:, :n]).astype(np.intc)
        self.n = n
        self.exp = np.concatenate([powers, powers, np.zeros(2 * n + 1, np.intc)])
        self.log = np.full(q, 2 * n, np.intc)
        self.log[powers] = np.arange(n, dtype=np.intc)
        # 1 + a adds one to the lowest digit of a's index
        self.zech = self.log[powers - powers % p + (powers + 1) % p]

    def mul(self, a, b):
        # log 0 points past the powers of g, where exp reads 0
        return self.exp[self.log[a] + self.log[b]]

    def add(self, a, b):
        import numpy as np

        la, lb = self.log[a], self.log[b]
        out = self.exp[la + self.zech[(lb - la) % self.n]]
        return np.where(a == 0, b, np.where(b == 0, a, out))


class _PolyOps:
    """GF(p^k) on the k base-p digits of each index, digit s along axis 0, from
    the modulus f alone (no tables); GF(p) is the case k = 1, f = t.

    Two digit arrays multiply by a schoolbook product folded back by the
    residues of t^(k+i).  Multiplying by a constant a = sum of a_u t^u is the
    k x k matrix sum of a_u T_u over GF(p), where column s of T_u, the matrix
    of y -> t^u * y, holds the digits of t^(u+s) mod f (``linear``).
    """

    def __init__(self, F):
        import numpy as np

        self.prime = isinstance(F, PrimeField)
        p, f = (F.p, (0, 1)) if self.prime else (F.base.p, F.modulus)
        k = len(f) - 1
        # t^e mod f for e < 2k - 1: t * t^e shifts the digits up a place and
        # folds the top one by t^k = -(f_0 + ... + f_{k-1} t^(k-1))
        powers = [[int(s == e) for s in range(k)] for e in range(k)]
        for _ in range(k - 1):
            top = powers[-1]
            powers.append([(lo - top[-1] * c) % p for lo, c in zip([0] + top[:-1], f)])
        ar = np.arange(k)
        self.p, self.k, self.place = p, k, p**ar
        powers = np.array(powers, dtype=np.int64)
        self.red = powers[k:].T.copy()
        # by_digit[u, r, s]: digit r of t^(u+s) mod f, so by_digit[u] is T_u
        self.by_digit = powers[np.add.outer(ar, ar)].transpose(0, 2, 1).copy()

    def digits(self, a):
        """Digit s of every index along a new axis 0 (a scalar gets shape (k, 1))."""
        import numpy as np

        a = np.asarray(a)
        return a[None] // self.place.reshape((-1,) + (1,) * max(a.ndim, 1)) % self.p

    def dmul(self, da, db):
        """Digits of the products of two digit arrays: a schoolbook product,
        then the digits t^(k+i), i < k - 1, folded back by their residues.
        Exact in int64 while k^2 p^3 < 2^63 (k >= 2), as within the budget."""
        import numpy as np

        k = self.k
        prod = da[0] * db
        if k > 1:
            prod = np.concatenate([prod, np.zeros((k - 1,) + prod.shape[1:], np.int64)])
            for i in range(1, k):
                prod[i : i + k] += da[i] * db
            low = prod[:k]
            low += (self.red @ prod[k:].reshape(k - 1, -1)).reshape(low.shape)
            prod = low
        prod %= self.p
        return prod

    def scalar_digits(self, x):
        """Digits, along a new axis 0, of a nested sequence of field scalars
        (a scalar of GF(p^k) is its tuple of k digits, lowest first)."""
        import numpy as np

        a = np.array(x, dtype=np.int64)
        return a[None] if self.prime else a.transpose(-1, *range(a.ndim - 1))

    def linear(self, C):
        """The float64 matrix, entries reduced mod p, of y -> z, z_o = sum over
        i of c_oi * y_i, from the (k, n_out, n_in) digits of the c_oi.  It maps
        a digit array of shape (k, n_in, ...) to one of shape (k, n_out, ...)
        through ``apply``.  Raises OverflowError unless k*n_in*(p-1)^2 < 2^53,
        so that ``apply`` is exact on digits reduced mod p."""
        import numpy as np

        k, n_out, n_in = C.shape
        if k * n_in * (self.p - 1) ** 2 >= 1 << 53:
            raise OverflowError(f"{k * n_in} products of digits mod {self.p} can sum past 2^53")
        W = np.einsum("uoi,urs->rosi", C, self.by_digit) % self.p
        return W.reshape(k * n_out, k * n_in).astype(np.float64)

    @staticmethod
    def apply(W, y):
        """W (from ``linear``) applied to the int64 array y by a float64 matmul,
        returned as int64 and not reduced mod p.  Exact while every sum of
        products is below 2^53, as ``linear`` assures for y reduced mod p."""
        import numpy as np

        z = (W @ y.reshape(W.shape[1], -1)).astype(np.int64)
        return z.reshape((y.shape[0], -1) + y.shape[2:])


@lru_cache(maxsize=32)
def digit_ops(F):
    """The table-free digit arithmetic of F, GF(p) included (k = 1)."""
    return _PolyOps(F)


@lru_cache(maxsize=32)
def _tables(F):
    return _ExtOps(F)


def _ops_cached(F):
    """The sweep's arithmetic, built once per field: tables up to ``_TABLE_LIMIT``, else digits."""
    if isinstance(F, PrimeField) or F.order > _TABLE_LIMIT:
        return digit_ops(F)
    return _tables(F)


def solve_system(F, n, forms_idx):
    """Index rows of the nontrivial projective solutions, in canonical order.

    The rows form an (m, n+1) int64 array, one row (x_1, ..., x_n, lam) per
    solution.  ``forms_idx[j]`` maps variable pairs to coefficient indices and
    must have the shape g_j = Q_j(x) - lam*x_j; only its quadratic part Q_j
    (the keys without variable n) is read.
    """
    import numpy as np

    ops = _ops_cached(F)
    digits = isinstance(ops, _PolyOps)
    q, k = F.order, ops.k if digits else 1
    # (form, pair, coefficient index) of every term of Q, grouped by form
    terms = [(j, key, c) for j, form in enumerate(forms_idx) for key, c in form.items() if n not in key]
    pairs = sorted({key for _, key, _ in terms}) or [(0, 0)]  # no empty arrays
    left, right = np.array(pairs, dtype=np.int64).T
    if digits:
        # C[:, j, i, l]: the digits of the coefficient of x_i*x_l in Q_j
        J, I, L, c = np.array([(j, *key, c) for j, key, c in terms], dtype=np.int64).reshape(-1, 4).T
        C = np.zeros((k, n, n, n), dtype=np.int64)
        C[:, J, I, L] = ops.digits(c)
        W = ops.linear(C[:, :, left, right])
        # at k = 1 the pair products enter the matmul unreduced while every sum
        # of len(pairs) of them times entries of W stays below 2^53
        reduce = k > 1 or len(pairs) * (ops.p - 1) ** 3 >= 1 << 53
    # place[j] = q^(n-1-j) is the size of lead block j and the place of x_j, and
    # v = g + shift[lead] is direction g's place in its block, with 1 at the lead
    place = [q ** (n - 1 - j) for j in range(n)]
    place, ends = np.array([place, list(accumulate(place))], dtype=np.int64)
    shift = 2 * place - ends
    # digit s of x_j is v // unit[s, j] % radix: base p on digits, q on tables
    radix, unit = (ops.p, np.multiply.outer(ops.place, place)) if digits else (q, place[None])
    total, step = int(ends[-1]), max(1, _CHUNK // (k * max(len(pairs), n)))
    blocks = [np.zeros((0, n + 1), dtype=np.int64)]
    for start in range(0, total, step):
        g = np.arange(start, min(start + step, total), dtype=np.int64)
        lead = np.searchsorted(ends, g, side="right")
        v = g + shift[lead]
        d = v // unit[..., None] % radix  # (k, n, rows)
        at = (lead, np.arange(len(g)))
        if digits:
            prods = ops.dmul(d[:, left], d[:, right]) if reduce else d[:, left] * d[:, right]
            vals = ops.apply(W, prods)
            vals %= radix
            lam = vals[(slice(None),) + at]
            hit = (vals == ops.dmul(lam[:, None], d)).all(axis=(0, 1))
            lam = ops.place @ lam
        else:
            x = d[0]
            prods = {pair: ops.mul(x[pair[0]], x[pair[1]]) for pair in pairs}
            vals, last = np.zeros_like(x), None
            for j, pair, c in terms:
                term = ops.mul(c, prods[pair])
                vals[j] = ops.add(vals[j], term) if j == last else term
                last = j
            lam = vals[at]
            hit = (vals == ops.mul(lam, x)).all(axis=0)
        if hit.any():
            blocks.append(np.vstack([v[hit] // place[:, None] % q, lam[hit]]).T)
    return np.concatenate(blocks)
