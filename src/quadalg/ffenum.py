"""Vectorized exhaustive enumeration over the finite fields within budget.

Field elements are addressed by integer index: for GF(p) the index is the
residue itself, for GF(p^k) it is sum(c_i * p^i) over the coefficient tuple.
Index 0 is zero and index 1 is one in both cases, and c < p is the constant c
in every GF(p^k).

A direction x of P^{n-1}, leftmost nonzero coordinate x_lead = 1, solves the
eigenvector system g_j = Q_j(x) - lam*x_j exactly when Q(x) = lam*x with
lam = Q_lead(x).  ``solve_system`` sweeps every direction in one loop, in
canonical order (by lead, then tails in mixed radix).  Each direction splits
as x = u + w, the prefix u on the first n - m coordinates and the suffix w
on the last m, and a tile pairs a run of prefixes with a block of suffixes,
about ``_CHUNK`` int64s in its largest temporary.  The directions whose lead
lies in w (the zero prefix) are the directions of P^(m-1), swept last.  Each
sweep builds its suffixes' digits and pair products (mod p): all q^m at once
when they fit the budget (``_fits``), shared by every tile, else one block a
tile.  Only a sweep that is one tile is kept between calls.  Every field,
GF(p) and GF(p^k) alike, works on base-p digits (``digit_ops``): since
Q_j(u + w) = Q_j(u) + B_j(u, w) + Q_j(w) with B_j bilinear, a tile's form
values take one float64 matmul of each prefix's matrix of w -> B(u, w) + Q(u)
against the suffix digits, plus Q(w), one matmul per suffix block; lam,
brought under p (``_PolyOps.reduce``), times x is one digit product
(``_PolyOps.dmul``), left unreduced.  Every partial sum of these matmuls
and products is an integer below 2^53, so it is exact in float64 whatever
order BLAS adds in (the method of FFLAS-FFPACK: Dumas, Giorgi and Pernet,
ACM TOMS 2008), and a row solves when each residual Q_j(x) - lam*x_j is a
multiple of p.

numpy is imported by the functions that use it, so importing this module (and
the solver module, which imports it) does not load numpy.
"""

from functools import lru_cache

from .fields import PrimeField

# Element budget: about the most int64s a tile's temporaries hold (digits x forms x
# rows) and a shared suffix block holds (``_fits``; it sets the suffix length m)
_CHUNK = 1 << 15


class _PolyOps:
    """GF(p^k) on the k base-p digits of each index, digit s along axis 0, from
    the modulus f alone; GF(p) is the case k = 1, f = t.

    Multiplying by a = sum of a_u t^u is the k x k matrix M(a) = sum of a_u
    T_u over GF(p), where column s of T_u, the matrix of y -> t^u * y, holds
    the digits of t^(u+s) mod f.  ``dmul`` forms M(a) for every entry of a
    digit array and applies each to the other factor's digits; ``linear``
    forms it for constant coefficients.  Both run in float64, M(a) by one
    BLAS matmul against ``by_digit``, exact because every sum they form is an
    integer below 2^53: at most ``top`` for a product of digits under p in
    absolute value, below k n_in (p-1)^2 for a constant map on n_in of them.
    Each raises OverflowError where its bound fails; ``reduce`` brings a
    result back under p.
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
        powers = np.array(powers, dtype=np.float64)
        # by_digit[u, r*k + s]: digit r of t^(u+s) mod f, so row u is T_u flattened
        self.by_digit = powers[np.add.outer(ar, ar)].transpose(0, 2, 1).reshape(k, k * k)
        # digit r of a product is at most (p-1)^2 times the sum of row r of every T_u
        self.top = (p - 1) ** 2 * int(self.by_digit.reshape(k, k, k).sum(axis=(0, 2)).max())

    def digits(self, a):
        """Digit s of every index along a new axis 0 (a scalar gets shape (k, 1))."""
        import numpy as np

        a = np.asarray(a)
        if self.k == 1:  # an index below p is its own digit
            return a.reshape((1,) + (a.shape or (1,)))
        return a[None] // self.place.reshape((-1,) + (1,) * max(a.ndim, 1)) % self.p

    def dmul(self, da, db):
        """The float64 digits, not reduced mod p, of the products of two digit
        arrays: M(a) for each entry a of da, from one matmul with ``by_digit``,
        applied to the digits of the matching entry of db.  For digits under p
        in absolute value each is an integer of absolute value at most
        ``top``, so exact; OverflowError where that reaches 2^53.  Within the
        budget it is below 3.1*10^10 for k >= 2 and 10^14 for GF(p)."""
        import numpy as np

        if self.top >= 1 << 53:
            raise OverflowError(f"products of {self.k} digits mod {self.p} can reach 2^53")
        if self.k == 1:
            return np.multiply(da, db, dtype=np.float64)
        k, da = self.k, np.asarray(da)
        M = (self.by_digit.T @ da.reshape(k, -1)).reshape((k, k) + da.shape[1:])
        return np.einsum("rs...,s...->r...", M, db)

    def scalar_digits(self, x):
        """Digits, along a new axis 0, of a nested sequence of field scalars
        (a scalar of GF(p^k) is its tuple of k digits, lowest first)."""
        import numpy as np

        a = np.array(x, dtype=np.int64)
        return a[None] if self.prime else a.transpose(-1, *range(a.ndim - 1))

    def linear(self, C):
        """The float64 matrix, entries reduced mod p, of y -> z, z_o = sum over
        i of c_oi * y_i, from the (k, n_out, n_in) int64 digits of the c_oi,
        reduced mod p and then, for k > 1, put through one matmul with
        ``by_digit``.  It maps a digit array of shape (k, n_in, ...) to one of
        shape (k, n_out, ...) through ``apply``.  Raises OverflowError unless
        k*n_in*(p-1)^2 < 2^53, so that ``apply`` is exact on digits below p in
        absolute value."""
        import numpy as np

        k, n_out, n_in = C.shape
        if k * n_in * (self.p - 1) ** 2 >= 1 << 53:
            raise OverflowError(f"{k * n_in} products of digits mod {self.p} can sum past 2^53")
        W = C % self.p
        if k > 1:  # the sum over u of digit u times entry (r, s) of T_u, at (r, o, s, i)
            W = (self.by_digit.T @ W.reshape(k, -1)).astype(np.int64).reshape(k, k, n_out, n_in)
            W = W.swapaxes(1, 2) % self.p
        return W.reshape(k * n_out, k * n_in).astype(np.float64)

    @staticmethod
    def apply(W, y):
        """W (from ``linear``) applied to the array y by a float64 matmul, not
        reduced mod p.  Exact while every sum of products is below 2^53, as
        ``linear`` assures for digits of y below p in absolute value."""
        z = W @ y.reshape(W.shape[1], -1)
        return z.reshape((y.shape[0], -1) + y.shape[2:])

    def reduce(self, a):
        """The float64 integers a, at most 2^53 - p in absolute value, mod p as
        a - p*rint(a/p): congruent to a, and below p in absolute value."""
        return a - self.p * (a / self.p).round()


@lru_cache(maxsize=32)
def digit_ops(F):
    """The digit arithmetic of F, GF(p) included (k = 1), built once per field."""
    return _PolyOps(F)


@lru_cache(maxsize=32)
def frobenius(F, d):
    """The k x k float64 matrix over GF(p), entries reduced mod p, of y ->
    y^(p^d) on F's digits, for ``apply``, built once per field and d: column s,
    the digits of t^s, raised to the p^d by squaring."""
    import numpy as np

    D = digit_ops(F)
    # M starts as the digits of 1 in every column, y as those of t^s
    M, y, e = np.eye(D.k, 1).repeat(D.k, axis=1), np.eye(D.k), D.p**d
    while e:
        M, y, e = (D.dmul(M, y) % D.p if e & 1 else M), D.dmul(y, y) % D.p, e >> 1
    return M


@lru_cache(maxsize=16)
def _pairs(m):
    """The pairs (i, l), i <= l < m, as two index arrays in ``triu_indices`` order."""
    import numpy as np

    return np.triu_indices(m)


def _fits(q, n, k, m):
    """Whether all q^m suffixes, at k*max(n, m(m+3)/2 + 1) int64s each (digits, the
    constant, pair products, or one row's form values), fit in ``_CHUNK``."""
    return k * q**m * max(n, m * (m + 3) // 2 + 1) <= _CHUNK


def _suffix_size(q, n, k):
    """The suffix length m: the largest m < n whose suffixes ``_fits``, else 1."""
    return max([m for m in range(2, n) if _fits(q, n, k, m)], default=1)


def _narrow(a, top):
    """The integer array a, entries 0..top, in the narrowest signed type that holds them."""
    import numpy as np

    return a.astype(np.min_scalar_type(-top - 1), copy=False)


def _suffix_rows(F, ops, m, v):
    """The suffixes w in F^m of index v (w_0 most significant, base q): their
    digits (k, m, len), the matmul operand of B(u, w) + Q(u) (the digits with
    a constant 1 appended as coordinate m) and that of Q(w) (the digits of
    the pair products w_i*w_l, i <= l, in ``_pairs`` order, from ``dmul``
    reduced mod p), all stored narrow (``_narrow``)."""
    import numpy as np

    q, k = F.order, ops.k
    x = v[None] if m == 1 else v // q ** np.arange(m - 1, -1, -1)[:, None] % q
    d = ops.digits(x)
    left, right = _pairs(m)
    one = np.broadcast_to(np.eye(k, 1, dtype=np.int64)[:, :, None], (k, 1, len(v)))
    rows = d, np.concatenate([d, one], axis=1), ops.reduce(ops.dmul(d[:, left], d[:, right]))
    return tuple(_narrow(a, ops.p - 1) for a in rows)


def _tile(F, ops, n, m, prefixes, blk, zero):
    """One tile: each prefix u of index ``prefixes`` in P^(n-m-1) against the
    suffix block ``blk`` (``_suffix_rows``), then, if ``zero``, the zero
    prefix's rows, the directions of P^(m-1) in canonical order.  Returns the
    suffix block, the zero prefix's pair products (None unless ``zero``), the
    prefix count, the float64 matmul operand of the prefixes (the digits of u
    and of its pair products), each row's digits (k, n, rows), stored narrow,
    and the flat index of its lead in an (n, rows) array."""
    import numpy as np

    q, k, nu = F.order, ops.k, n - m
    # place[i] = q^(nu-1-i) is the size of lead block i and the place of u_i,
    # and g + 2 place[lead] - ends[lead] is prefix g's place in its block
    place = q ** np.arange(nu - 1, -1, -1)
    ends = np.cumsum(place)
    lead = np.searchsorted(ends, prefixes, side="right")
    xu = (prefixes + 2 * place[lead] - ends[lead]) // place[:, None] % q
    du = ops.digits(xu)
    S, V = len(prefixes), blk[0].shape[2]
    u, w = np.broadcast_to(du[..., None], (k, nu, S, V)), np.broadcast_to(blk[0][:, :, None], (k, m, S, V))
    x = np.concatenate([u, w], axis=1, dtype=blk[0].dtype).reshape(k, n, S * V)
    lead, zq = np.repeat(lead, V), None
    if zero:
        block = (q ** np.arange(m - 1, -1, -1)).tolist()
        norm = np.concatenate([np.arange(b, 2 * b) for b in block])
        zd, _, zq = _suffix_rows(F, ops, m, norm)
        tail = np.concatenate([np.zeros((k, nu, zd.shape[2]), x.dtype), zd], axis=1)
        x, lead = np.concatenate([x, tail], axis=2), np.concatenate([lead, nu + np.repeat(np.arange(m), block)])
    left, right = _pairs(nu)
    y = np.concatenate([du, ops.reduce(ops.dmul(du[:, left], du[:, right]))], axis=1)
    y = y.reshape(k * (nu + len(left)), S)
    return blk, zq, S, y, x, _narrow(lead * len(lead) + np.arange(len(lead)), n * len(lead))


@lru_cache(maxsize=16)
def _single_tile(F, ops, n, m):
    """The tile of a sweep that is one tile, built once per field and n."""
    import numpy as np

    total, V = (F.order ** (n - m) - 1) // (F.order - 1), F.order**m
    return _tile(F, ops, n, m, np.arange(total), _suffix_rows(F, ops, m, np.arange(V)), True)


def _tiles(F, ops, n, m):
    """The sweep's tiles in canonical order, of about ``_CHUNK`` // (k*n) rows.
    When all q^m suffixes ``_fits`` they are built once and every tile shares
    them, holding as many prefixes as fit; else each tile is one prefix
    against a block of suffixes, built for it.  The zero prefix's rows share
    the last tile if they fit, else they follow alone."""
    import numpy as np

    q, k = F.order, ops.k
    total, V, Z = (q ** (n - m) - 1) // (q - 1), q**m, (q**m - 1) // (q - 1)
    rows, fit = max(1, _CHUNK // (k * n)), _fits(q, n, k, m)
    pstep, vstep = (rows // V, V) if fit else (1, rows)
    spans = [(g, min(g + pstep, total), v, min(v + vstep, V))
             for g in range(0, total, pstep) for v in range(0, V, vstep)]
    share = (spans[-1][1] - spans[-1][0]) * (spans[-1][3] - spans[-1][2]) + Z <= rows
    if fit and share and len(spans) == 1:
        yield _single_tile(F, ops, n, m)
        return
    shared = _suffix_rows(F, ops, m, np.arange(V)) if fit else None
    for i, (g0, g1, v0, v1) in enumerate(spans):
        blk = shared or _suffix_rows(F, ops, m, np.arange(v0, v1))
        yield _tile(F, ops, n, m, np.arange(g0, g1), blk, share and i == len(spans) - 1)
    if not share:
        yield _tile(F, ops, n, m, np.arange(0), blk, True)


def solve_system(F, n, forms_idx):
    """Index rows of the nontrivial projective solutions, in canonical order.

    The rows form an (m, n+1) int64 array, one row (x_1, ..., x_n, lam) per
    solution.  ``forms_idx[j]`` maps variable pairs to coefficient indices and
    must have the shape g_j = Q_j(x) - lam*x_j; only its quadratic part Q_j
    (the keys without variable n) is read.  A key may name its pair in either
    order, (i, l) or (l, i), and a pair given both ways is summed.  The sweep,
    tile by tile (``_tiles``), is the one the module docstring describes.
    """
    import numpy as np

    ops = digit_ops(F)
    k = ops.k
    m = _suffix_size(F.order, n, k)
    nu = n - m
    # G[:, j, i, l], i <= l < n: the digits of the coefficient of x_i*x_l in
    # Q_j, keys (i, l) and (l, i) summed (keys with lam, variable n, land at
    # l = n and are not read)
    at, c, N = [], [], n + 1
    for j, form in enumerate(forms_idx):
        for (i, l), v in form.items():
            at.append(j * N * N + (i * N + l if i <= l else l * N + i))
            c.append(v)
    G = np.zeros((k, n * N * N), dtype=np.int64)
    at, c = np.array(at, dtype=np.intp), np.array(c, dtype=np.int64)
    np.add.at(G, (slice(None), at), ops.digits(c))
    G = G.reshape(k, n, N, N)
    (lu, ru), (lw, rw) = _pairs(nu), _pairs(m)
    Ww = ops.linear(G[:, :, nu + lw, nu + rw])
    # Wu maps a prefix operand (u, its pair products) to the coefficients of
    # w_0 .. w_{m-1} and of the constant 1 in each Q_j(u + w)
    C = np.zeros((k, n, m + 1, nu + len(lu)), dtype=np.int64)
    C[:, :, :m, :nu] = G[:, :, :nu, nu:n].transpose(0, 1, 3, 2)
    C[:, :, m, nu:] = G[:, :, lu, ru]
    Wu = ops.linear(C.reshape(k, n * (m + 1), -1))

    def quad(prods):
        """Q(w), (k, n, len), unreduced, from the suffixes' pair products."""
        return (Ww @ prods.reshape(Ww.shape[1], -1).astype(np.float64)).reshape(k, n, -1)

    blocks, last = [np.zeros((0, n + 1), dtype=np.int64)], None
    for blk, zq, S, y, x, at in _tiles(F, ops, n, m):
        R, V = x.shape[2], blk[0].shape[2]
        vals = np.empty((k, n, R))
        if S:
            if blk is not last:  # Q(w) once per suffix block, shared or not
                last, Qw = blk, quad(blk[2])
            TQ = (Wu @ y).astype(np.int64).reshape(k, n, m + 1, S).transpose(0, 1, 3, 2)
            L = ops.linear(TQ.reshape(k, n * S, m + 1)).reshape(k * n, S, k * (m + 1))
            main = vals[:, :, : S * V].reshape(k * n, S, V)
            np.matmul(L, blk[1].reshape(k * (m + 1), V).astype(np.float64), out=main)
            main += Qw.reshape(k * n, 1, V)
        if zq is not None:
            vals[:, :, S * V :] = quad(zq)
        # each residual Q_j(x) - lam*x_j, lam*x unreduced (``dmul``), is an
        # integer below 2^53, exact in float64, and a multiple of p exactly
        # when p*rint(r/p) == r; lam is under p in absolute value (``reduce``)
        lam = ops.reduce(np.take(vals.reshape(k, -1), at, axis=1))
        t = ops.dmul(lam[:, None], x)
        vals -= t
        np.multiply(vals, 1.0 / ops.p, out=t)
        np.rint(t, out=t)
        t *= ops.p
        hit = (t == vals).reshape(k * n, R).all(axis=0)
        if hit.any():
            h = np.flatnonzero(hit)
            # lam fits x's narrow type, and % p makes it a digit
            lh = np.take(lam, h, axis=1)[:, None].astype(x.dtype) % ops.p
            d = np.concatenate([np.take(x, h, axis=2), lh], axis=1)
            d = d[0] if k == 1 else ops.place @ d.reshape(k, -1)
            # every index is below q <= 10^7, so the blocks are kept as int32
            blocks.append(d.reshape(n + 1, -1).astype(np.int32).T)
    return np.concatenate(blocks, dtype=np.int64)
