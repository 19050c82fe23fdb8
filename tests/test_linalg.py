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

from hopfforge.errors import ClosureFailure, DimensionMismatch
from hopfforge.linalg import (SCALAR, LinMap, RowReducer, Space, Subspace,
                              composite_map, flip,
                              full_subspace, iso_map, kernel_basis,
                              left_unitor, rank, rat, right_unitor, solve,
                              tensor_space, tensor_subspace, try_inverse,
                              unit_kernel)
from hopfforge.simplicial import check_restriction

import sparse_reference

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


# -- the array engine against the column-by-column reference -------------


def _space(d: int) -> Space:
    return SCALAR if d == 1 else Space([f"e{i}" for i in range(d)])


#: entries of general maps: units, whole scalars and fractions whose
#: products come back whole (2 * 1/2), so sums can cancel and Fractions
#: can turn into ints on the way
_SCALARS = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


@st.composite
def _maps(draw, dom: Space, cod: Space, monomial: bool) -> LinMap:
    """Each column zero or +-1 times one basis vector when monomial, else
    up to three entries drawn from _SCALARS (a column may be zero)."""
    cols = {}
    for j in range(dom.dim):
        if all(draw(st.booleans()) for _ in range(3)):
            continue                                # a zero column
        rows = draw(st.lists(st.integers(0, cod.dim - 1), min_size=1,
                             max_size=1 if monomial else 3))
        cols[j] = {i: draw(st.sampled_from(_SCALARS[:2] if monomial
                                           else _SCALARS)) for i in rows}
    return LinMap(dom, cod, cols)


@st.composite
def _pipelines(draw):
    """(dom, cod, stages, monomial): plain maps onto fresh factorisations
    and tensor stages whose parts are maps or identity Spaces, SCALAR
    among them; every map is monomial, or each is general by a coin, and
    one in six is the zero map (k = 0).  The first stage, which the
    engine builds as a Kronecker product, is a tensor stage three times
    in four.  The codomain is sometimes one short, so the composite may
    land outside it."""
    monomial = draw(st.booleans())

    def a_map(dom, cod):
        if draw(st.integers(0, 5)) == 0:
            return LinMap.zero(dom, cod)
        return draw(_maps(dom, cod, monomial or draw(st.booleans())))

    factor_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    factors = [_space(d) for d in draw(factor_dims)]
    dom = tensor_space(*factors)
    stages = []
    for s in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)) > 0 if s == 0 else draw(st.booleans()):
            parts, new = [], []
            for f in factors:
                g = f if draw(st.booleans()) else _space(draw(st.integers(1, 3)))
                parts.append(f if g is f else a_map(f, g))
                new.append(g)
            stages.append(parts)
        else:
            new = [_space(d) for d in draw(factor_dims)]
            stages.append(a_map(tensor_space(*factors), tensor_space(*new)))
        factors = new
    cod = tensor_space(*factors)
    if cod.dim > 1 and draw(st.booleans()):
        cod = Space([f"e{i}" for i in range(cod.dim - 1)])
    return dom, cod, stages, monomial


def _cols(m: LinMap) -> dict:
    return {j: m.column(j) for j in range(m.dom.dim)}


def _dict_first_difference(a: dict, b: dict):
    """LinMap.first_difference on column dicts: every column is scanned."""
    for j in sorted(set(a) | set(b)):
        ca, cb = a.get(j, {}), b.get(j, {})
        for i in sorted(set(ca) | set(cb)):
            if ca.get(i, 0) != cb.get(i, 0):
                return i, j, ca.get(i, 0), cb.get(i, 0)
    return None


def _same_arrays(a: LinMap, b: LinMap) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape
               and bool((x == y).all())
               for x, y in ((a.targets, b.targets), (a.coeffs, b.coeffs)))


def _is_canonical(m: LinMap) -> bool:
    """Each row: strictly increasing targets over the nonzero entries,
    then padding (target 0, coefficient 0); the longest has no padding;
    int8 coefficients exactly when every entry is +-1."""
    t, c = m.targets, m.coeffs
    values = [v for _, _, v in m.items()]
    for tr, cr in zip(t.tolist(), c.tolist()):
        live = sum(1 for v in cr if v)
        if any(cr[live:]) or any(tr[live:]) or not all(cr[:live]) \
                or tr[:live] != sorted(set(tr[:live])):
            return False
    widest = max((sum(1 for v in cr if v) for cr in c.tolist()), default=0)
    unit = all(v in (1, -1) for v in values)
    return (c.shape[1] == widest and (c.dtype == np.int8) == unit
            and all(type(v) is int or v.denominator != 1 for v in values))


def _reads_like_its_columns(m: LinMap, pick: int):
    """column, nnz, is_zero, to_rows and first_difference (against a copy
    with one column changed, both ways) agree with the column dicts."""
    cols = _cols(m)
    k = pick % m.dom.dim
    changed = {j: dict(c) for j, c in cols.items()}
    col = changed[k]
    if col:
        i = min(col)
        col[i] = -col[i]
    else:
        col[pick % m.cod.dim] = Fraction(1, 3)
    other = LinMap(m.dom, m.cod, changed)
    assert m.column(-1) == m.column(m.dom.dim) == {}
    assert m.nnz == sum(map(len, cols.values()))
    assert m.is_zero() == (m.nnz == 0)
    assert m.first_difference(other) == _dict_first_difference(cols, changed)
    assert other.first_difference(m) == _dict_first_difference(changed, cols)
    assert m.first_difference(LinMap(m.dom, m.cod, cols)) is None
    if m.cod.dim * m.dom.dim <= 4096:
        rows = [[cols[j].get(i, 0) for j in range(m.dom.dim)]
                for i in range(m.cod.dim)]
        assert m.to_rows() == rows


def _with_unit_stage(dom: Space, stages, draw: int) -> list:
    """stages with a unit stage inserted at a position picked by ``draw``:
    the left or right unitor of the space there, or an iso_map onto a
    relabelled space of its width."""
    p = draw % (len(stages) + 1)
    v = dom
    if p:
        last = stages[p - 1]
        v = tensor_space(*(q.cod if isinstance(q, LinMap) else q
                           for q in ([last] if isinstance(last, LinMap)
                                     else last)))
    relabelled = Space([f"u{i}" for i in range(v.dim)])
    kind = draw // (len(stages) + 1) % 3
    unit = [left_unitor(v), right_unitor(v), iso_map(v, relabelled)][kind]
    return stages[:p] + [unit] + stages[p:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pipelines(), st.integers(0, 1 << 16), st.integers(0, 1 << 16))
def test_index_arrays_match_sparse_vectors(case, pick, unit):
    """The engine gives the reference's map: equal, with the same entries
    in the same order, whole values as ints, and canonical arrays.  A
    unit stage anywhere leaves the arrays identical, because the engine
    reads only widths between stages."""
    dom, cod, stages, monomial = case
    try:
        want = sparse_reference.composite_map(dom, cod, stages)
    except DimensionMismatch as e:
        with pytest.raises(DimensionMismatch, match=str(e)):
            composite_map(dom, cod, stages)
        return
    got = composite_map(dom, cod, stages)
    assert got == want and list(got.items()) == list(want.items())
    assert _is_canonical(got)
    assert _same_arrays(got, want)
    assert _same_arrays(got, LinMap(dom, cod, _cols(got)))
    assert _same_arrays(
        got, composite_map(dom, cod, _with_unit_stage(dom, stages, unit)))
    if monomial:
        assert got.coeffs.dtype == np.int8 and got.coeffs.shape[1] <= 1
    _reads_like_its_columns(got, pick)


@st.composite
def _monomial_maps(draw) -> LinMap:
    """Each column zero or one entry from _SCALARS, onto a codomain small
    enough that targets repeat."""
    dom = _space(draw(st.integers(1, 6)))
    cod = _space(draw(st.integers(1, 4)))
    cols = {j: {draw(st.integers(0, cod.dim - 1)): draw(st.sampled_from(_SCALARS))}
            for j in range(dom.dim) if draw(st.booleans())}
    return LinMap(dom, cod, cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_monomial_maps())
def test_monomial_rank_counts_distinct_targets(m):
    """rank reads a map with k <= 1 off its targets; RowReducer agrees."""
    rows: dict = {}
    for i, j, v in m.items():
        rows.setdefault(i, {})[j] = v
    assert m.coeffs.shape[1] <= 1
    assert rank(m) == RowReducer(list(rows.values()), m.dom.dim).rank


def test_storage_follows_the_entries():
    """k is the longest column, and coefficients are int8 exactly when
    every entry is +-1, so a monomial map is k == 1 with int8."""
    v = Space(["a", "b"])
    shapes = {}
    for rows in ([[0, -1], [1, 0]], [[2, 0], [0, 1]], [[1, 1], [0, 1]],
                 [["1/2", 0], [0, 1]], [[0, 0], [0, 0]], [["2/2", 0], [0, 0]]):
        m = LinMap.from_rows(v, v, rows)
        shapes[str(rows)] = (m.coeffs.shape[1], m.coeffs.dtype == np.int8)
        assert _is_canonical(m)
    assert list(shapes.values()) == [(1, True), (1, False), (2, True),
                                     (1, False), (0, True), (1, True)]


def test_equal_maps_have_equal_arrays():
    v = Space(["a", "b", "c"])
    m = LinMap.from_rows(v, v, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    backwards = LinMap(v, v, {1: {0: 1}, 0: {1: -1}, 2: {2: 0}})
    other = LinMap.from_rows(v, v, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert _same_arrays(m, backwards) and m.first_difference(backwards) is None
    assert _same_arrays(m, LinMap.from_monomial(
        v, v, np.array([1, 0, 2]), np.array([-1, 1, 0], dtype=np.int8)))
    assert m.first_difference(other) == (1, 0, -1, 1)


def test_difference_sums_cancel_to_canonical_arrays():
    v = Space(["a", "b"])
    m = LinMap.from_rows(v, v, [[1, "1/2"], [1, -3]])
    n = LinMap.from_rows(v, v, [[0, "1/2"], [1, -1]])
    d = m - n
    assert _same_arrays(d, LinMap.from_rows(v, v, [[1, 0], [0, -2]]))
    assert _same_arrays(m - m, LinMap.zero(v, v))
    assert type(d.column(1)[1]) is int


def test_composite_terms_cancel_and_fractions_turn_whole():
    """g . f sums e_1 - e_1 to a zero column, and h . g . f takes column 1
    from -1/2 e_1 to the int -1 e_0, so the result is stored as a
    monomial map."""
    v = Space(["a", "b"])
    f = LinMap.from_rows(v, v, [[1, 0], [1, "1/2"]])
    g = LinMap.from_rows(v, v, [[0, 0], [1, -1]])
    h = LinMap.from_rows(v, v, [[0, 2], [0, 0]])
    assert composite_map(v, v, [f, g]) == LinMap.from_rows(
        v, v, [[0, 0], [0, Fraction(-1, 2)]])
    hgf = composite_map(v, v, [f, g, h])
    assert list(hgf.items()) == [(0, 1, -1)] and type(hgf.column(1)[0]) is int
    assert _same_arrays(hgf, LinMap.from_monomial(
        v, v, np.array([0, 0]), np.array([0, -1], dtype=np.int8)))


def test_entries_outside_the_shape_are_refused():
    v = Space(["a", "b"])
    for cols in ({2: {0: 1}}, {0: {2: 1}}, {-1: {0: 1}}, {0: {-1: 1}}):
        with pytest.raises(DimensionMismatch):
            LinMap(v, v, cols)


def test_stages_that_do_not_chain_are_refused():
    v, w = Space(["a", "b"]), Space(["x", "y", "z"])
    f = LinMap.identity(w)
    with pytest.raises(DimensionMismatch):
        composite_map(v, w, [f])
    with pytest.raises(DimensionMismatch):
        composite_map(v, v, [[v, v]])


def test_array_maps_of_different_widths_differ_where_dicts_do():
    """A narrower map reads as zero columns past its end, as a dict does;
    its arrays are padded to the wider map's before they are compared."""
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
        assert found[-1] == _dict_first_difference(_cols(a), _cols(b))
    assert found == [(1, 2, 0, 1), None, (0, 0, 1, -1)]
    wide = LinMap.from_rows(_space(3), w, [[1, 0, "1/2"], [1, 0, 0]])
    assert wide.first_difference(a) == (1, 0, 1, 0)
    assert a.first_difference(wide) == (1, 0, 0, 1)


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


@st.composite
def _rows_apart(draw):
    """(a map whose rows hold at most one entry each, that map with one
    row given a second entry, or None when no row can take one)."""
    n, r = draw(st.integers(0, 6)), draw(st.integers(0, 12))
    v = Space([f"v{j}" for j in range(n)])
    w = Space([f"w{i}" for i in range(r)])
    values = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
    entries = {(i, draw(st.integers(0, n - 1))): draw(values)
               for i in range(r) if n and draw(st.booleans())}
    shared = None
    if entries and n > 1:
        i, j = draw(st.sampled_from(sorted(entries)))
        other = (j + draw(st.integers(1, n - 1))) % n
        shared = LinMap.from_entries(v, w, {**entries, (i, other): 1})
    return LinMap.from_entries(v, w, entries), shared


def _same_arrays(a: LinMap, b: LinMap) -> bool:
    return (a.dom == b.dom and a.cod == b.cod
            and all(x.dtype == y.dtype and np.array_equal(x, y)
                    for x, y in ((a.targets, b.targets), (a.coeffs, b.coeffs))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rows_apart())
def test_unit_kernel_is_the_row_reduction_kernel(case):
    m, shared = case
    got, want = unit_kernel(m), kernel_basis(m)
    assert got.space.labels == want.space.labels
    assert _same_arrays(got.inclusion, want.inclusion)
    assert _same_arrays(got.retraction, want.retraction)
    if shared is not None:
        assert unit_kernel(shared) is None


def test_zero_map_into_the_zero_space_is_monomial():
    v = Space(["a", "b"])
    zero = LinMap.from_monomial(v, Space([]), np.zeros(2, dtype=np.int64),
                                np.zeros(2, dtype=np.int8))
    assert _same_arrays(zero, LinMap.zero(v, Space([])))
    with pytest.raises(DimensionMismatch, match="outside its codomain"):
        LinMap.from_monomial(v, Space([]), np.zeros(2, dtype=np.int64))


def test_zero_dimensional_subspace_keeps_its_answers():
    v = Space(["a", "b"])
    injective = LinMap.from_rows(v, Space(["p", "q", "r"]),
                                 [[1, 0], [0, 2], [1, 1]])
    zero, whole = kernel_basis(injective), full_subspace(v)
    assert zero.dim == 0 and zero.space.dim == 0
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
    both = tensor_subspace(zero, whole)
    assert both.dim == 0 and both.ambient == tensor_space(v, v)
    assert both.equals(tensor_subspace(whole, zero))
    assert not both.equals(tensor_subspace(whole, whole))
    assert both.first_outside(m.tensor(m)) == 3
    assert both.first_outside(LinMap.zero(v, both.ambient)) is None


def test_maps_on_a_zero_dimensional_space():
    """Maps into and out of a 0-dimensional space have no entries; the
    constructor, difference, equality, tensor and composite_map run on
    their empty arrays, a Kronecker start with a 0-dimensional part
    included, and agree with the reference evaluator."""
    o, v = Space(()), Space(["a", "b"])
    into, out, ident = LinMap(o, v, {}), LinMap(v, o, {}), LinMap.identity(v)
    assert into.coeffs.shape == (0, 0) and out.coeffs.shape == (2, 0)
    with pytest.raises(DimensionMismatch):
        LinMap(o, v, {0: {0: 1}})
    for m in (into, out, into.tensor(ident), ident.tensor(out)):
        assert m.is_zero() and m - m == m
        assert m.first_difference(LinMap.zero(m.dom, m.cod)) is None
    assert ident.tensor(out).dom.dim == 4 and into.tensor(ident).dom.dim == 0
    assert into != LinMap.zero(o, Space(["c", "d"]))
    for dom, cod, stages in ((v, v, [out, into]),
                             (tensor_space(o, v), v, [[o, ident]]),
                             (tensor_space(v, v), v, [[out, v], [into, v]]),
                             (tensor_space(v, v), o,
                              [[v, out], into.tensor(out)])):
        got = composite_map(dom, cod, stages)
        want = sparse_reference.composite_map(dom, cod, stages)
        assert got == want and _same_arrays(got, want) and got.is_zero()


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
