"""Fixtures shared by the test modules."""

import random

import pytest

from quadalg import Reals, StructureTensor, random_structure_tensor


@pytest.fixture
def planted_nilpotent():
    """Builds a real algebra with e_0 * e_0 = 0, written in a random orthonormal basis.

    ``build(n, comm, s)`` draws the tensor from the seed ``nil:n:comm:s`` and
    the basis from ``s + 100*n``.
    """
    import numpy as np

    def build(n, comm, s):
        A = random_structure_tensor(Reals(), n, random.Random(f"nil:{n}:{comm}:{s}"), commutative=comm)
        alpha = np.array(A.alpha, dtype=float)
        alpha[0, 0, :] = 0.0
        basis = np.linalg.qr(np.random.default_rng(s + 100 * n).normal(size=(n, n)))[0]
        return StructureTensor(Reals(), np.einsum("ikj,ia,kb,jc->abc", alpha, basis, basis, basis).tolist())

    return build
