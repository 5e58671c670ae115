"""Vectorized exhaustive enumeration over small finite fields.

Field elements are addressed by integer index: for GF(p) the index is the
residue itself, for GF(p^k) it is sum(c_i * p^i) over the coefficient tuple.
Index 0 is zero and index 1 is one in both cases.  Multiplication uses
discrete log/antilog tables against a fixed generator; addition works on a
precomputed digit table.

The eigenvector system g_j = Q_j(x) - lam*x_j has a solution (x : lam) with
x != 0 exactly when Q(x) is parallel to x, and then lam is fixed by x: with
the leftmost nonzero coordinate of x scaled to 1, lam = Q_lead(x).  So the
sweep runs over the directions x in P^{n-1} only, derives lam, and appends
the trivial point (0 : ... : 0 : 1).  Directions are enumerated in canonical
order (leftmost-nonzero-is-1, grouped by lead position, tails in mixed radix
with the leftmost free digit most significant), so the rows come out in the
order of the canonical P^n enumeration in the solver module.

numpy is imported by the functions that use it, so importing this module (and
the solver module, which imports it) does not load numpy.
"""

from functools import lru_cache

from .fields import ExtensionField, PrimeField

_CHUNK = 1 << 16
_MAX_ORDER = 1 << 16


def supports(F):
    """True when the index backend can handle this field."""
    if isinstance(F, PrimeField):
        return F.p <= _MAX_ORDER
    return (
        isinstance(F, ExtensionField)
        and isinstance(F.base, PrimeField)
        and F.order <= _MAX_ORDER
    )


class _PrimeOps:
    def __init__(self, p):
        self.p = p

    def mul(self, a, b):
        return (a * b) % self.p

    mul_scalar = mul

    def add(self, a, b):
        return (a + b) % self.p


class _ExtOps:
    def __init__(self, F):
        import numpy as np

        q = F.order
        p = F.base.p
        k = F.degree
        one = F.one()
        # the first element in index order whose powers reach all of F^*
        # is the generator, and its powers are the antilog table
        for cand in range(2, q):
            g = F.scalar_from_index(cand)
            powers = [one]
            acc = g
            while acc != one:
                powers.append(acc)
                acc = F.mul(acc, g)
            if len(powers) == q - 1:
                break
        else:
            raise RuntimeError("no generator found (not a field?)")
        exp = np.array([F.scalar_index(a) for a in powers], dtype=np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1, dtype=np.int64)
        idx = np.arange(q, dtype=np.int64)
        digits = np.empty((q, k), dtype=np.int64)
        for i in range(k):
            digits[:, i] = (idx // p**i) % p
        self.q = q
        self.p = p
        self.exp = exp
        self.log = log
        self.digits = digits
        self.p_pows = np.array([p**i for i in range(k)], dtype=np.int64)

    def mul(self, a, b):
        import numpy as np

        out = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def mul_scalar(self, c, a):
        import numpy as np

        if c == 0:
            return np.zeros_like(a)
        out = self.exp[(self.log[c] + self.log[a]) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def add(self, a, b):
        return ((self.digits[a] + self.digits[b]) % self.p) @ self.p_pows


@lru_cache(maxsize=32)
def _ops_cached(F):
    if isinstance(F, PrimeField):
        return _PrimeOps(F.p)
    return _ExtOps(F)


def solve_system(F, n, forms_idx):
    """Index rows (length n+1) of all projective solutions, in canonical order.

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
                        acc = ops.add(acc, ops.mul_scalar(cidx, term))
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
    rows.append((0,) * n + (1,))
    return rows
