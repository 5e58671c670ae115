"""Vectorized exhaustive enumeration over small finite fields.

Field elements are addressed by integer index: for GF(p) the index is the
residue itself, for GF(p^k) it is sum(c_i * p^i) over the coefficient tuple.
Index 0 is zero and index 1 is one in both cases.  Over GF(p^k) the sweep
reads the field's own discrete-log tables (``fields.LogTables``) through
numpy views: multiplication by log/antilog lookup, addition by Zech's
logarithm.

The eigenvector system g_j = Q_j(x) - lam*x_j has a solution (x : lam) with
x != 0 exactly when Q(x) is parallel to x, and then lam is fixed by x: with
the leftmost nonzero coordinate of x scaled to 1, lam = Q_lead(x).  So the
sweep runs over the directions x in P^{n-1} only and derives lam; the caller,
``solver.solve_exhaustive``, appends the trivial point (0 : ... : 0 : 1).
Directions are enumerated in canonical order (leftmost-nonzero-is-1, grouped
by lead position, tails in mixed radix with the leftmost free digit most
significant), so the rows come out in the order of the canonical P^n
enumeration in the solver module.

numpy is imported by the functions that use it, so importing this module (and
the solver module, which imports it) does not load numpy.
"""

from functools import lru_cache

from .fields import INDEXED_ORDER_LIMIT, ExtensionField, PrimeField

_CHUNK = 1 << 16


def supports(F):
    """True when the index backend can handle this field."""
    if isinstance(F, PrimeField):
        return F.p <= INDEXED_ORDER_LIMIT
    return isinstance(F, ExtensionField) and F.has_log_tables


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


@lru_cache(maxsize=32)
def _ops_cached(F):
    if isinstance(F, PrimeField):
        return _PrimeOps(F.p)
    return _ExtOps(F)


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
