"""Vectorized exhaustive enumeration over the finite fields within budget.

Field elements are addressed by integer index: for GF(p) the index is the
residue itself, for GF(p^k) it is sum(c_i * p^i) over the coefficient tuple.
Index 0 is zero and index 1 is one in both cases.  GF(p^k) of order up to
``fields.INDEXED_ORDER_LIMIT`` is served by its discrete-log tables
(``fields.LogTables``): products by log/antilog lookup, sums by Zech's
logarithm.  Larger GF(p^k) works on the base-p digits of the indices.  A sweep
within the budget has q <= 10^7, so every product formed fits in int64.

The eigenvector system g_j = Q_j(x) - lam*x_j has a solution (x : lam) with
x != 0 exactly when Q(x) is parallel to x, and then lam is fixed by x: with
the leftmost nonzero coordinate of x scaled to 1, lam = Q_lead(x).  So the
sweep runs over the directions x in P^{n-1} only and derives lam; the caller,
``solver.solve_exhaustive``, appends the trivial point (0 : ... : 0 : 1).
Directions are enumerated in canonical order (leftmost-nonzero-is-1, grouped
by lead position, tails in mixed radix with the leftmost free digit most
significant), so the rows come out in canonical P^n order.

numpy is imported by the functions that use it, so importing this module (and
the solver module, which imports it) does not load numpy.
"""

from functools import lru_cache

from .fields import PrimeField

_CHUNK = 1 << 16


class _PrimeOps:
    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return (a * b) % self.p

    def add(self, a, b):
        return (a + b) % self.p


class _ExtOps:
    """numpy views of the field's LogTables (see there for the layout)."""

    def __init__(self, F):
        import numpy as np

        T = F.log_tables()
        self.n = T.n
        self.exp, self.log, self.zech = (
            np.frombuffer(t, dtype=np.intc) for t in (T.exp, T.log, T.zech)
        )

    def mul(self, a, b):
        # log 0 points past the powers of g, where exp reads 0
        return self.exp[self.log[a] + self.log[b]]

    def add(self, a, b):
        import numpy as np

        la, lb = self.log[a], self.log[b]
        out = self.exp[la + self.zech[(lb - la) % self.n]]
        return np.where(a == 0, b, np.where(b == 0, a, out))


class _PolyOps:
    """GF(p^k) on the k base-p digits of each index, with no tables: a
    schoolbook product, then reduction by the rows t^(k+i) mod f, i < k - 1."""

    def __init__(self, F):
        import numpy as np

        p, k = F.base.p, F.degree
        self.p, self.k, self.place = p, k, p ** np.arange(k, dtype=np.int64)
        rows, x = [], F.scalar_from_index(p ** (k - 1))
        for _ in range(k - 1):
            x = F.mul(x, F.gen())
            rows.append(x)
        self.red = np.array(rows, dtype=np.int64).reshape(k - 1, k).T.copy()

    def _digits(self, a):
        # digit s of every index along axis 0
        return a // self.place[:, None] % self.p

    def mul(self, a, b):
        import numpy as np

        da, db, k = self._digits(a), self._digits(b), self.k
        prod = np.zeros((2 * k - 1,) + np.broadcast_shapes(da.shape, db.shape)[1:], np.int64)
        for i in range(k):
            prod[i : i + k] += da[i] * db
        return self.place @ ((prod[:k] + self.red @ prod[k:]) % self.p)

    def add(self, a, b):
        return self.place @ ((self._digits(a) + self._digits(b)) % self.p)


@lru_cache(maxsize=32)
def _ops_cached(F):
    if isinstance(F, PrimeField):
        return _PrimeOps(F.p)
    return _ExtOps(F) if F.has_log_tables else _PolyOps(F)


def solve_system(F, n, forms_idx):
    """Index rows (length n+1) of the nontrivial projective solutions, in order.

    ``forms_idx[j]`` maps variable pairs to coefficient indices and must have
    the shape g_j = Q_j(x) - lam*x_j; only its quadratic part Q_j (the keys
    without variable n) is read.
    """
    import numpy as np

    ops = _ops_cached(F)
    q = F.order
    quad = [{key: c for key, c in form.items() if n not in key} for form in forms_idx]
    rows = []
    for lead in range(n):
        m = n - 1 - lead
        count = q**m
        for start in range(0, count, _CHUNK):
            vals = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
            # coordinates before the lead are zero, so terms touching them vanish
            x = {lead: np.ones(len(vals), dtype=np.int64)}
            for t in range(m):
                x[lead + 1 + t] = (vals // q ** (m - 1 - t)) % q
            values = []
            for form in quad:
                acc = np.zeros(len(vals), dtype=np.int64)
                for (i, k), cidx in form.items():
                    if i >= lead and k >= lead:
                        term = ops.mul(x[i], x[k])
                        acc = ops.add(acc, ops.mul(cidx, term))
                values.append(acc)
            lam = values[lead]
            mask = np.ones(len(vals), dtype=bool)
            for j, v in enumerate(values):
                if j < lead:
                    mask &= v == 0
                elif j > lead:
                    mask &= v == ops.mul(lam, x[j])
            for r in np.nonzero(mask)[0]:
                rows.append(
                    (0,) * lead
                    + tuple(int(x[pos][r]) for pos in range(lead, n))
                    + (int(lam[r]),)
                )
    return rows
