"""Shared fixtures: the builtin objects, constructed once per session.

Everything here is exact rational arithmetic, so "equal" always means
entrywise identical, never approximately so.
"""

import re
from pathlib import Path

import pytest

from hopfforge import fixtures, io
from hopfforge.hopf import group_algebra, sweedler_algebra
from hopfforge.linalg import LinMap, Space, solve, tensor_space
from hopfforge.radford import induced_braided_hopf


def convolution_antipode(h) -> LinMap:
    """The convolution inverse of the identity, found by a linear solve.

    T(F) = mul (F (x) id) comul is linear in F, so the antipode is the
    solution of T(F) = unit counit over the n^2 unknowns of F.  This
    recomputes the antipode from the other five structure maps alone.
    """
    n = h.space.dim
    ops = Space([f"E{i},{j}" for i in range(n) for j in range(n)])
    cols = {}
    for i in range(n):
        for j in range(n):
            eij = LinMap.from_entries(h.space, h.space, {(i, j): 1})
            t = h.mul @ eij.tensor(LinMap.identity(h.space)) @ h.comul
            col = {a * n + b: val for a, b, val in t.items()}
            if col:
                cols[i * n + j] = col
    big = LinMap(ops, Space([f"M{k}" for k in range(n * n)]), cols)
    target = h.unit @ h.counit
    rhs_col = {a * n + b: val for a, b, val in target.items()}
    rhs = LinMap(Space(["*"]), big.cod, {0: rhs_col} if rhs_col else {})
    x = solve(big, rhs)
    assert x is not None, "identity is not convolution invertible"
    entries = {(k // n, k % n): val for k, _, val in x.items()}
    return LinMap.from_entries(h.space, h.space, entries)


#: an antipode for the Sweedler algebra that kills x and gx, so singular
SINGULAR_ANTIPODE = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def singular_antipode_doc() -> dict:
    """The Sweedler algebra document with SINGULAR_ANTIPODE swapped in."""
    doc = io.serialize(fixtures.builtin_raw("sweedler"))
    doc["antipode"] = SINGULAR_ANTIPODE
    return doc


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_python_blocks() -> list:
    """The source of every ```python block of the README, in order."""
    return re.findall(r"^```python\n(.*?)^```",
                      README.read_text(encoding="utf-8"), re.M | re.S)


@pytest.fixture(scope="session")
def kc2():
    return group_algebra(fixtures.builtin_raw("c2"))


@pytest.fixture(scope="session")
def kc3():
    return group_algebra(fixtures.builtin_raw("c3"))


@pytest.fixture(scope="session")
def ks3():
    return group_algebra(fixtures.builtin_raw("s3"))


@pytest.fixture(scope="session")
def ktrivial():
    return group_algebra(fixtures.builtin_raw("trivial"))


@pytest.fixture(scope="session")
def sweedler():
    return sweedler_algebra()


@pytest.fixture(scope="session")
def proj_sweedler():
    return fixtures.builtin_raw("proj-sweedler")


@pytest.fixture(scope="session")
def proj_sign_s3():
    return fixtures.builtin_raw("proj-sign-s3")


@pytest.fixture(scope="session")
def quantum_line(proj_sweedler):
    """The braided Hopf algebra on RKer of the Sweedler projection."""
    return induced_braided_hopf(proj_sweedler)


@pytest.fixture(scope="session")
def nerve_c2_id():
    return fixtures.builtin_raw("nerve-c2-id")


@pytest.fixture(scope="session")
def nerve_c2_trivial():
    return fixtures.builtin_raw("nerve-c2-trivial")


@pytest.fixture(scope="session")
def nerve_s3_id():
    return fixtures.builtin_raw("nerve-s3-id")
