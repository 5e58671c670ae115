"""JSON interchange formats for algebras, solution reports, and counting reports.

An algebra file looks like

    {"field": {"kind": "prime", "p": 3}, "dim": 2, "alpha": [[[...]]]}

with ``alpha[i][k][j]`` the j-th coordinate of e_i * e_k (0-based) and
scalars in the per-field serialization (rationals as "num/den" strings).
A "table" shorthand is also accepted on input:

    {"field": ..., "dim": 2, "products": {"e1*e1": [0, 1], "e2*e2": [2, 0]}}

with 1-based basis indices and unlisted products zero.  Extra keys such as
"provenance" are preserved on load/save.
"""

import json
import re

from .algebra import MAX_DIM, StructureTensor
from .errors import DimensionMismatch, ParseError
from .fields import field_from_json

_PRODUCT_KEY = re.compile(r"^e(\d+)\*e(\d+)$")


def element_to_json(field, x):
    return [field.scalar_to_json(c) for c in x]


def element_from_json(field, v):
    if not isinstance(v, list):
        raise ParseError(f"element must be a JSON array, got {v!r}")
    return tuple(field.scalar_from_json(c) for c in v)


def algebra_to_json(A, provenance=None):
    out = {
        "field": A.field.to_json(),
        "dim": A.dim,
        "alpha": [
            [[A.field.scalar_to_json(a) for a in row] for row in plane]
            for plane in A.alpha
        ],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def _is_cube(alpha, n):
    """True when alpha is an n x n x n nested JSON array."""

    def ok(v):
        return isinstance(v, list) and len(v) == n

    return ok(alpha) and all(ok(p) and all(ok(r) for r in p) for p in alpha)


def algebra_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("algebra file must be a JSON object")
    try:
        F = field_from_json(obj["field"])
        n = obj["dim"]
    except KeyError as exc:
        raise ParseError(f"algebra file misses key {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"bad dimension {n!r}")
    if n > MAX_DIM:
        # before the n^3 table of the "products" form is allocated
        raise DimensionMismatch(f"dimension {n} outside 1..{MAX_DIM}")
    if "alpha" in obj:
        alpha = obj["alpha"]
        if not _is_cube(alpha, n):
            raise ParseError("alpha must be an n x n x n array")
        data = [
            [[F.scalar_from_json(a) for a in row] for row in plane] for plane in alpha
        ]
    elif "products" in obj:
        if not isinstance(obj["products"], dict):
            raise ParseError("products must be a JSON object")
        data = [[[F.zero()] * n for _ in range(n)] for _ in range(n)]
        for key, coords in obj["products"].items():
            m = _PRODUCT_KEY.match(key)
            if not m:
                raise ParseError(f"bad product key {key!r} (expected 'eI*eK')")
            i, k = int(m.group(1)) - 1, int(m.group(2)) - 1
            if not (0 <= i < n and 0 <= k < n):
                raise ParseError(f"product key {key!r} out of range for dim {n}")
            row = element_from_json(F, coords)
            if len(row) != n:
                raise ParseError(f"product {key!r} needs {n} coordinates")
            for j in range(n):
                data[i][k][j] = row[j]
    else:
        raise ParseError("algebra file needs 'alpha' or 'products'")
    return StructureTensor(F, data)


def solution_report(field, engine, solutions, certified, infinite_family=False):
    return {
        "solutions": [
            {
                "coords": element_to_json(field, s.coords),
                "lambda": field.scalar_to_json(s.lam),
                "trivial": s.trivial,
                "residual": float(s.residual),
            }
            for s in solutions
        ],
        "engine": engine,
        "field": field.to_json(),
        "count": len(solutions),
        "certified": certified,
        "infinite_family": infinite_family,
    }


def solutions_from_report(obj):
    """Re-parse a solution report into (field, [ProjectiveSolution])."""
    from .solver import ProjectiveSolution  # the commands that load files need no solver

    if not isinstance(obj, dict) or "solutions" not in obj or "field" not in obj:
        raise ParseError("not a solution report")
    F = field_from_json(obj["field"])
    sols = []
    for entry in obj["solutions"]:
        coords = element_from_json(F, entry["coords"])
        sols.append(
            ProjectiveSolution(
                coords,
                trivial=bool(entry["trivial"]),
                residual=float(entry.get("residual", 0.0)),
            )
        )
    return F, sols


def counting_report(probe):
    return {
        "p": probe.p,
        "counts": {str(k): c for k, c in sorted(probe.counts.items())},
        "verdict": probe.verdict.value,
        "bound": probe.bound,
    }


def save_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
