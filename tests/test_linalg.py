"""Exact linear algebra, cross-checked against sympy and against itself.

sympy works over the same field (Q), so every comparison is exact: a
kernel either matches the independently computed nullspace or the test
fails, with no tolerance anywhere.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from hopfforge import linalg
from hopfforge.errors import ClosureFailure, DimensionMismatch
from hopfforge.linalg import (SCALAR, LinMap, RowReducer, Space, Subspace,
                              composite_map, flip,
                              full_subspace, iso_map, kernel_basis,
                              left_unitor, rank, rat, right_unitor, solve,
                              tensor_space, tensor_subspace, try_inverse)
from hopfforge.simplicial import check_restriction

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _random_map(draw, rows, cols):
    entries = draw(st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    dom = Space([f"c{j}" for j in range(cols)])
    cod = Space([f"r{i}" for i in range(rows)])
    return LinMap.from_rows(dom, cod, entries)


maps_2x3 = st.builds(
    lambda rows: LinMap.from_rows(Space(["a", "b", "c"]), Space(["p", "q"]), rows),
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=2))

square_3 = st.builds(
    lambda rows: LinMap.from_rows(Space(["a", "b", "c"]), Space(["a", "b", "c"]), rows),
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))


def to_sympy(m: LinMap) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in m.to_rows()])


# -- scalars -------------------------------------------------------------


def test_rat_accepts_exact_forms():
    assert rat(3) == Fraction(3)
    assert rat("2/7") == Fraction(2, 7)
    assert rat(Fraction(-1, 4)) == Fraction(-1, 4)


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.5)


# -- construction --------------------------------------------------------


def test_from_entries_matches_from_rows():
    dom, cod = Space(["a", "b"]), Space(["p", "q"])
    rows = [[1, 2], [0, Fraction(5, 3)]]
    m1 = LinMap.from_rows(dom, cod, rows)
    m2 = LinMap.from_entries(dom, cod, {(0, 0): 1, (0, 1): 2, (1, 1): "5/3"})
    assert m1 == m2
    assert m1.to_rows() == [[Fraction(1), Fraction(2)],
                            [Fraction(0), Fraction(5, 3)]]


def test_shape_mismatch_rejected():
    v, w = Space(["a", "b"]), Space(["p"])
    f = LinMap.from_rows(v, w, [[1, 1]])
    with pytest.raises(DimensionMismatch):
        f @ f


# -- tensor structure ----------------------------------------------------


def test_tensor_space_labels_big_endian():
    v, w = Space(["a", "b"]), Space(["x", "y", "z"])
    vw = tensor_space(v, w)
    # first factor is the slow index
    assert vw.labels == ("a⊗x", "a⊗y", "a⊗z", "b⊗x", "b⊗y", "b⊗z")


def test_tensor_entry_is_product():
    v = Space(["a", "b"])
    f = LinMap.from_rows(v, v, [[1, 2], [3, 4]])
    g = LinMap.from_rows(v, v, [[5, 6], [7, 8]])
    fg = f.tensor(g)
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert fg.column(2 * j1 + j2).get(2 * i1 + i2, 0) == \
                        f.column(j1).get(i1, 0) * g.column(j2).get(i2, 0)


@settings(max_examples=25, deadline=None)
@given(maps_2x3, maps_2x3, square_3, square_3)
def test_tensor_respects_composition(f, g, a, b):
    # (f (x) g)(a (x) b) == fa (x) gb
    assert f.tensor(g) @ a.tensor(b) == (f @ a).tensor(g @ b)


def test_flip_involution():
    v, w = Space(["a", "b"]), Space(["x", "y", "z"])
    assert flip(w, v) @ flip(v, w) == LinMap.identity(tensor_space(v, w))


def test_unitors_insert_unit_factor():
    v = Space(["a", "b"])
    lv = left_unitor(v)
    assert lv.dom == v and lv.cod.labels == ("1⊗a", "1⊗b")
    rv = right_unitor(v)
    assert rv.dom == v and rv.cod.labels == ("a⊗1", "b⊗1")
    # both are isomorphisms with identity matrix content
    assert lv.to_rows() == LinMap.identity(v).to_rows()
    assert try_inverse(rv) is not None


def test_composite_map_equals_naive_chain():
    v = Space(["a", "b"])
    f = LinMap.from_rows(v, v, [[0, 1], [1, 1]])
    g = LinMap.from_rows(v, v, [[2, 0], [0, "1/2"]])
    vv = tensor_space(v, v)
    got = composite_map(vv, vv, [[f, g], [g, v]])
    want = g.tensor(LinMap.identity(v)) @ f.tensor(g)
    assert got == want


# -- monomial pipelines: index arrays against sparse vectors -------------


def _space(d: int) -> Space:
    return SCALAR if d == 1 else Space([f"e{i}" for i in range(d)])


@st.composite
def _monomial_maps(draw, dom: Space, cod: Space) -> LinMap:
    """Each column zero or +-1 times one basis vector."""
    cols = {}
    for j in range(dom.dim):
        i = draw(st.integers(-1, cod.dim - 1))    # -1: a zero column
        if i >= 0:
            cols[j] = {i: draw(st.sampled_from([1, -1]))}
    return LinMap(dom, cod, cols)


@st.composite
def _monomial_pipelines(draw):
    """(dom, cod, stages): plain maps onto fresh factorisations and tensor
    stages whose parts are maps or identity Spaces, SCALAR among them.
    The codomain is sometimes one short, so the composite may land
    outside it."""
    factor_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    factors = [_space(d) for d in draw(factor_dims)]
    dom = tensor_space(*factors)
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            parts, new = [], []
            for f in factors:
                g = f if draw(st.booleans()) else _space(draw(st.integers(1, 3)))
                parts.append(f if g is f else draw(_monomial_maps(f, g)))
                new.append(g)
            stages.append(parts)
        else:
            new = [_space(d) for d in draw(factor_dims)]
            stages.append(draw(_monomial_maps(tensor_space(*factors),
                                              tensor_space(*new))))
        factors = new
    cod = tensor_space(*factors)
    if cod.dim > 1 and draw(st.booleans()):
        cod = Space([f"e{i}" for i in range(cod.dim - 1)])
    return dom, cod, stages


def _spoil(stages):
    """The stages with their first map's column 0 replaced by 2 e_0, so
    that map is no longer monomial; None when no stage holds a map."""
    for k, st_ in enumerate(stages):
        for p, m in enumerate([st_] if isinstance(st_, LinMap) else st_):
            if isinstance(m, LinMap):
                entries = {(i, j): v for i, j, v in m.items() if j != 0}
                entries[0, 0] = 2
                bad = LinMap.from_entries(m.dom, m.cod, entries)
                out = list(stages)
                out[k] = bad if isinstance(st_, LinMap) else \
                    st_[:p] + [bad] + st_[p + 1:]
                return out
    return None


def _prepared(stages):
    """The stages in the part-list form both engines take."""
    return [linalg._stage_parts([s] if isinstance(s, LinMap) else s)
            for s in stages]


def _sparse_reference(dom, cod, stages):
    return linalg._sparse_composite(dom, cod, _prepared(stages))


def _through_init(m: LinMap) -> LinMap:
    """The monomial map m rebuilt by LinMap(...) from its arrays, so
    stored as a dict."""
    t, s = m.monomial()
    return LinMap(m.dom, m.cod, {j: {int(t[j]): int(s[j])}
                                 for j in np.flatnonzero(s).tolist()})


def _reads_like(lazy: LinMap, plain: LinMap, pick: int):
    """lazy, stored as arrays only, answers as plain does without building
    its column dict; also against a copy whose column pick % dim changes."""
    t, s = lazy.monomial()
    k = pick % s.size
    s2 = s.copy()
    s2[k] = -s2[k] if s2[k] else 1
    other = LinMap.from_monomial(lazy.dom, lazy.cod, t, s2)
    other_plain = _through_init(other)
    assert lazy._dict is None and other._dict is None
    cols = range(-1, lazy.dom.dim + 1)
    assert [lazy.column(j) for j in cols] == [plain.column(j) for j in cols]
    assert (lazy.nnz, lazy.is_zero()) == (plain.nnz, plain.is_zero())
    assert lazy.first_difference(other) == plain.first_difference(other_plain)
    assert other.first_difference(lazy) == other_plain.first_difference(plain)
    assert lazy.first_difference(LinMap.from_monomial(
        lazy.dom, lazy.cod, t, s)) is None
    assert lazy._dict is None and other._dict is None
    assert list(lazy.items()) == list(plain.items())
    assert lazy.to_rows() == plain.to_rows()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_monomial_pipelines(), st.booleans(), st.integers(0, 1 << 16))
def test_index_arrays_match_sparse_vectors(case, spoil, pick):
    dom, cod, stages = case
    if spoil:
        stages = _spoil(stages) or stages
    monomial = all(m.monomial() is not None for s in stages
                   for m in ([s] if isinstance(s, LinMap) else s)
                   if isinstance(m, LinMap))
    try:
        want = _sparse_reference(dom, cod, stages)
    except DimensionMismatch as e:
        with pytest.raises(DimensionMismatch, match=str(e)):
            composite_map(dom, cod, stages)
        return
    got = linalg._monomial_composite(dom, cod, _prepared(stages))
    assert (got is not None) == monomial
    if got is not None and cod.dim * dom.dim <= 4096:
        _reads_like(got, want, pick)
    if got is None:
        assert composite_map(dom, cod, stages) == want
        return
    assert got == want and list(got.items()) == list(want.items())
    assert all(type(v) is int for _, _, v in got.items())
    g, w = got.monomial(), want.monomial()
    assert (g[0] == w[0]).all() and (g[1] == w[1]).all()


def test_monomial_view_refuses_other_values():
    v = Space(["a", "b"])
    assert LinMap.from_rows(v, v, [[0, -1], [1, 0]]).monomial() is not None
    for rows in ([[2, 0], [0, 1]], [[1, 1], [0, 1]], [["1/2", 0], [0, 1]]):
        assert LinMap.from_rows(v, v, rows).monomial() is None


def test_equal_views_short_cut_the_column_scan():
    v = Space(["a", "b", "c"])
    m = LinMap.from_rows(v, v, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    twin = LinMap.from_rows(v, v, m.to_rows())
    other = LinMap.from_rows(v, v, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert m.first_difference(twin) is None
    m.monomial(), twin.monomial(), other.monomial()
    assert m.first_difference(twin) is None
    assert m.first_difference(other) == (1, 0, -1, 1)


def test_array_maps_of_different_widths_differ_where_dicts_do():
    """A narrower map reads as zero columns past its end, as a dict does;
    the arrays, of different lengths, are not compared elementwise."""
    w = _space(2)
    cases = [([0, 1], [1, -1], [0, 1, 1], [1, -1, 1]),
             ([0, 1, 0], [1, -1, 0], [0, 1], [1, -1]),
             ([0, 1], [1, 0], [0, 0, 1], [-1, 0, 1])]
    found = []
    for ta, sa, tb, sb in cases:
        a, b = (LinMap.from_monomial(_space(len(t)), w, np.array(t),
                                     np.array(s, dtype=np.int8))
                for t, s in ((ta, sa), (tb, sb)))
        found.append(a.first_difference(b))
        assert found[-1] == _through_init(a).first_difference(_through_init(b))
    assert found == [(1, 2, 0, 1), None, (0, 0, 1, -1)]


# -- rank, kernel, inverse: sympy as the independent referee -------------


@settings(max_examples=30, deadline=None)
@given(maps_2x3)
def test_rank_matches_sympy(m):
    assert rank(m) == to_sympy(m).rank()


@settings(max_examples=30, deadline=None)
@given(maps_2x3)
def test_kernel_matches_sympy_nullspace(m):
    sub = kernel_basis(m)
    null = to_sympy(m).nullspace()
    assert sub.dim == len(null)
    for j in range(sub.dim):
        col = sub.inclusion.column(j)
        vec = sympy.Matrix([[sympy.Rational(col.get(i, 0))]
                            for i in range(m.dom.dim)])
        # membership in the sympy nullspace == annihilated by m
        assert to_sympy(m) * vec == sympy.zeros(m.cod.dim, 1)
    for v in null:
        vec = {i: Fraction(int(v[i].p), int(v[i].q))
               for i in range(m.dom.dim) if v[i] != 0}
        assert sub.contains_vector(vec)


def test_kernel_normal_form_deterministic():
    v = Space([f"e{i}" for i in range(4)])
    w = Space(["r"])
    m = LinMap.from_rows(v, w, [[1, 1, 1, 1]])
    s1, s2 = kernel_basis(m), kernel_basis(m)
    assert s1.inclusion == s2.inclusion
    # leading entry of each column is +1
    for j in range(s1.dim):
        col = s1.inclusion.column(j)
        lead = min(col)
        assert col[lead] == 1


@settings(max_examples=30, deadline=None)
@given(square_3)
def test_inverse_matches_sympy(m):
    inv = try_inverse(m)
    sm = to_sympy(m)
    if sm.det() == 0:
        assert inv is None
    else:
        assert inv is not None
        assert m @ inv == LinMap.identity(m.dom)
        assert inv @ m == LinMap.identity(m.dom)


@settings(max_examples=25, deadline=None)
@given(square_3, st.lists(st.lists(rationals, min_size=1, max_size=1),
                          min_size=3, max_size=3))
def test_solve_produces_exact_solutions(a, brows):
    b = LinMap.from_rows(Space(["s"]), a.cod, brows)
    x = solve(a, b)
    if x is not None:
        assert a @ x == b
    else:
        # no solution means b escapes the column space
        aug = to_sympy(a).row_join(to_sympy(b))
        assert aug.rank() > to_sympy(a).rank()


# -- subspaces -----------------------------------------------------------


def test_corestrict_roundtrip():
    # corestrict squeezes the codomain into the subspace carrier
    v = Space(["a", "b", "c"])
    sub = Subspace(v, [{0: Fraction(1)}, {2: Fraction(1)}], name="ac")
    m = LinMap.from_rows(v, v, [[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    small = sub.corestrict(m)
    assert small.dom == v and small.cod == sub.space
    assert sub.inclusion @ small == m


def test_corestrict_rejects_escaping_image():
    v = Space(["a", "b"])
    sub = Subspace(v, [{0: Fraction(1)}], name="a")
    rot = LinMap.from_rows(v, v, [[0, 1], [1, 0]])
    with pytest.raises(ClosureFailure):
        sub.corestrict(rot)


def test_subspace_equality_ignores_basis_choice():
    v = Space(["a", "b", "c"])
    s1 = Subspace(v, [{0: Fraction(1)}, {1: Fraction(1)}])
    s2 = Subspace(v, [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}])
    assert s1.equals(s2)
    assert full_subspace(v).dim == 3


def test_subspace_equality_tells_equal_dimensions_apart():
    v = Space(["a", "b", "c"])
    s1 = Subspace(v, [{0: 1}, {1: 1}])
    assert s1.equals(Subspace(v, [{0: 1, 1: 1}, {0: 1, 1: -1}]))
    assert not s1.equals(Subspace(v, [{0: 1}, {2: 1}]))
    assert not s1.equals(Subspace(v, [{0: 1}]))
    with pytest.raises(DimensionMismatch):
        s1.equals(Subspace(Space(["x", "y", "z"]), [{0: 1}, {1: 1}]))


# non-unit pivots, so the reduction divides on every basis vector
pivots = st.sampled_from([2, -3, Fraction(1, 2), Fraction(-5, 3), 7])


@st.composite
def _subspace_and_map(draw):
    """A subspace of Q^4 and a map into Q^4 whose columns are members
    (combinations of the basis) or arbitrary vectors.

    The basis is an echelon form with non-unit pivots, mixed by a
    unitriangular change of basis and shuffled, so it is independent but
    not itself reduced."""
    n = 4
    amb = Space([f"e{i}" for i in range(n)])
    piv = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    rows = []
    for p in piv:
        row = [0] * n
        row[p] = draw(pivots)
        for c in range(p + 1, n):
            row[c] = draw(rationals)
        rows.append(row)
    for r in range(len(rows)):
        for s in range(r + 1, len(rows)):
            c = draw(rationals)
            rows[r] = [x + c * y for x, y in zip(rows[r], rows[s])]
    rows = draw(st.permutations(rows))
    cols = []
    for _ in range(3):
        if draw(st.booleans()):
            cs = [draw(rationals) for _ in rows]
            cols.append([sum(c * r[i] for c, r in zip(cs, rows))
                         for i in range(n)])
        else:
            cols.append([draw(rationals) for _ in range(n)])
    basis = [{i: x for i, x in enumerate(r) if x} for r in rows]
    m = LinMap.from_rows(Space(["x", "y", "z"]), amb,
                         [[c[i] for c in cols] for i in range(n)])
    return Subspace(amb, basis), m, sympy.Matrix(rows).T


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_subspace_and_map())
def test_subspace_retraction_membership_and_escape_match_sympy(case):
    sub, m, basis = case
    assert sub.retraction @ sub.inclusion == LinMap.identity(sub.space)
    target = to_sympy(m)
    inside = [basis.row_join(target[:, j]).rank() == sub.dim
              for j in range(m.dom.dim)]
    assert [sub.contains_vector(m.column(j))
            for j in range(m.dom.dim)] == inside
    if all(inside):
        assert sub.inclusion @ sub.corestrict(m) == m
    else:
        label = m.dom.label(inside.index(False))
        with pytest.raises(ClosureFailure, match=f"'{label}'"):
            sub.corestrict(m)


def test_zero_dimensional_subspace_keeps_its_answers():
    v = Space(["a", "b"])
    injective = LinMap.from_rows(v, Space(["p", "q", "r"]),
                                 [[1, 0], [0, 2], [1, 1]])
    zero, whole = kernel_basis(injective), full_subspace(v)
    assert zero.dim == 0 and zero.space is None
    assert zero.contains_vector({}) and not zero.contains_vector({1: 3})
    assert zero.equals(kernel_basis(injective))
    assert not zero.equals(whole) and not whole.equals(zero)
    m = LinMap.from_rows(v, v, [[0, 0], [0, 5]])
    assert zero.first_outside(m) == 1
    assert check_restriction(m, zero, whole) == (True, None)
    assert check_restriction(m, whole, zero) == (False, {"basis": "b"})
    with pytest.raises(ClosureFailure, match="'b'"):
        zero.corestrict(m)
    with pytest.raises(ClosureFailure, match="zero-dimensional"):
        zero.corestrict(LinMap.zero(v, v))


def test_tensor_subspace_maps_are_tensor_products():
    v = Space(["a", "b", "c"])
    s = Subspace(v, [{0: 2, 1: 1}, {2: Fraction(1, 3)}])
    t = tensor_subspace(s, s)
    assert t.retraction @ t.inclusion == LinMap.identity(t.space)
    assert t.equals(Subspace(t.ambient, [t.inclusion.column(j)
                                         for j in range(t.dim)]))


def test_difference_of_a_map_with_itself_is_zero():
    v = Space(["a", "b"])
    m = LinMap.from_rows(v, v, [[1, Fraction(1, 2)], [0, -3]])
    assert (m - m).is_zero()
    assert m - LinMap.zero(v, v) == m
    with pytest.raises(DimensionMismatch):
        m - LinMap.zero(v, Space(["c"]))


def test_try_inverse_reduces_once(monkeypatch):
    built = []
    real = RowReducer.__init__

    def counting(self, rows, ncols):
        built.append(ncols)
        real(self, rows, ncols)

    monkeypatch.setattr(RowReducer, "__init__", counting)
    v = Space(["a", "b"])
    m = LinMap.from_rows(v, v, [[1, 2], [3, 4]])
    inv = try_inverse(m)
    assert m @ inv == LinMap.identity(v)
    assert len(built) == 1


def test_iso_map_relabels():
    v, w = Space(["a", "b"]), Space(["x", "y"])
    assert iso_map(v, w) @ iso_map(w, v) == LinMap.identity(w)
