"""Hopf axiom suites on the builtin fixtures, with frozen structure oracles.

The Sweedler matrices below were derived by hand from the relations
g^2 = 1, x^2 = 0, xg = -gx with comul(x) = x(x)1 + g(x)x; the group
algebra oracles come straight from the Cayley tables.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SINGULAR_ANTIPODE, convolution_antipode
from hopfforge import fixtures, hopf, simplicial
from hopfforge.errors import (DimensionCapExceeded, DimensionMismatch,
                              InvalidGroup, NonInvertibleAntipode,
                              NotAProjection)
from hopfforge.hopf import (GroupTable, HopfAlgebra, HopfMorphism,
                            HopfProjection,
                            check_cocommutative, check_group_hom, check_hopf,
                            check_morphism, cyclic_group, group_algebra,
                            linearize_group_hom, s3_sign_indices,
                            semidirect_product, sweedler_algebra,
                            symmetric_group_3, trivial_group, zero_morphism)
from hopfforge.linalg import LinMap


# -- axiom suites --------------------------------------------------------


@pytest.mark.parametrize("name", ["trivial", "c2", "c3", "s3"])
def test_group_algebras_pass_axioms(name):
    rep = check_hopf(group_algebra(fixtures.builtin_raw(name)))
    assert rep.ok, rep.format_text()


def test_sweedler_passes_axioms(sweedler):
    rep = check_hopf(sweedler)
    assert rep.ok, rep.format_text()
    # 13 asserted axioms plus one cocommutativity info line
    assert len([c for c in rep.checks if c.status == "pass"]) == 13


def test_corrupted_fixture_fails_associativity():
    rep = check_hopf(fixtures.corrupted_c2())
    assert not rep.ok
    bad = {c.name for c in rep.failed()}
    assert "associativity" in bad
    wit = next(c.witness for c in rep.failed() if c.name == "associativity")
    assert wit["row"] == "1" and wit["col"] == "1⊗1⊗g"
    assert (wit["lhs"], wit["rhs"]) == ("1", "2")


# -- frozen Sweedler structure -------------------------------------------


def test_sweedler_antipode_matrix(sweedler):
    # S: 1 -> 1, g -> g, x -> -gx, gx -> x
    want = LinMap.from_rows(sweedler.space, sweedler.space, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0]])
    assert sweedler.antipode == want


def test_sweedler_antipode_has_order_four(sweedler):
    s = sweedler.antipode
    s2 = s @ s
    ident = LinMap.identity(sweedler.space)
    assert s2 != ident
    assert s2 @ s2 == ident


def test_sweedler_comul_of_x(sweedler):
    # comul(x) = x(x)1 + g(x)x, columns indexed by (1, g, x, gx)
    col = sweedler.comul.column(2)
    labels = sweedler.comul.cod.labels
    got = {labels[i]: v for i, v in col.items()}
    assert got == {"x⊗1": Fraction(1), "g⊗x": Fraction(1)}


def test_sweedler_not_cocommutative(sweedler):
    assert not check_cocommutative(sweedler)


@pytest.mark.parametrize("name", ["c2", "c3", "s3"])
def test_group_algebras_cocommutative(name):
    assert check_cocommutative(group_algebra(fixtures.builtin_raw(name)))


# -- independent antipode reconstruction ---------------------------------


@pytest.mark.parametrize("make", [
    sweedler_algebra,
    lambda: group_algebra(cyclic_group(4)),
    lambda: group_algebra(symmetric_group_3()),
])
def test_antipode_is_the_convolution_inverse(make):
    h = make()
    assert convolution_antipode(h) == h.antipode


# -- group plumbing -------------------------------------------------------


def test_group_algebra_structure(ks3):
    g = symmetric_group_3()
    n = len(g.labels)
    # counit is identically 1, comul is diagonal
    assert all(ks3.counit.column(j)[0] == 1 for j in range(n))
    for j in range(n):
        col = ks3.comul.column(j)
        assert col == {j * n + j: Fraction(1)}
    # antipode permutes each basis element to its inverse
    for j in range(n):
        col = ks3.antipode.column(j)
        (i,) = col
        assert col[i] == 1
        assert g.table[i][j] == g.labels.index("e")


def test_invalid_table_rejected():
    with pytest.raises(InvalidGroup):
        GroupTable(["e", "a"], [[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(InvalidGroup):
        # Latin, row 0 is a left identity; fails associativity first
        GroupTable(["e", "a", "b"], [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(InvalidGroup):
        GroupTable(list("eabcd"), LOOP5)


#: the smallest nonassociative loop: Latin square with identity, order 5
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 3, 4, 0, 1],
         [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]


def _cube_refusal(labels, table):
    """The InvalidGroup message for a table, or None, with associativity
    checked on all n^3 triples in chunks of 16M cells: the reference for
    GroupTable's generator-only check."""
    labels = tuple(str(s) for s in labels)
    n = len(labels)
    if len(set(labels)) != n:
        return "G: duplicate element labels"
    t = np.asarray(table, dtype=np.int64)
    if t.shape != (n, n):
        return f"G: table shape {t.shape}, expected ({n},{n})"
    if t.min() < 0 or t.max() >= n:
        return "G: table entries out of range"
    step = max(1, (1 << 24) // max(n * n, 1))
    for i0 in range(0, n, step):
        rows = t[i0:i0 + step]
        if not np.array_equal(t[rows, :], rows[:, t]):
            return "G: multiplication is not associative"
    idn = np.arange(n)
    e = np.flatnonzero((t == idn).all(axis=1) & (t == idn[:, None]).all(axis=0))
    if not e.size:
        return "G: no identity element"
    inv = np.full(n, -1, dtype=np.int64)
    rows, cols = np.nonzero(t == e[0])
    inv[rows] = cols
    if (inv < 0).any() or not np.array_equal(t[idn, inv], np.full(n, e[0])):
        return "G: missing inverses"
    return None


def _refusal(labels, table):
    try:
        GroupTable(labels, table)
    except InvalidGroup as e:
        return str(e)
    return None


# the builtin groups, nerve levels of order 36 and 216, the order-5 loop,
# a left-zero semigroup (associative, no identity, every element needed to
# generate it) and the monoid {1, 0} under multiplication (no inverse of 0)
_TABLES = ([np.asarray(fixtures.builtin_raw(g).table)
            for g in ("trivial", "c2", "c3", "s3")]
           + [fixtures.group_nerve("nerve-s3-id").levels[k].table
              for k in (1, 2)]
           + [np.asarray(LOOP5), np.repeat(np.arange(4)[:, None], 4, axis=1),
              np.array([[0, 1], [1, 1]])])


@st.composite
def _tables(draw):
    """One of _TABLES, maybe relabelled, maybe with two cells or two rows
    swapped."""
    t = draw(st.sampled_from(_TABLES)).copy()
    n = len(t)
    if draw(st.booleans()):
        p = np.array(draw(st.permutations(range(n))))
        u = np.empty_like(t)
        u[p[:, None], p] = p[t]
        t = u
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    swap = draw(st.sampled_from(["none", "cell", "row"]))
    if swap == "cell":
        a, b = draw(cell), draw(cell)
        t[a], t[b] = t[b], t[a]
    elif swap == "row":
        a, b = draw(cell)
        t[[a, b]] = t[[b, a]]
    return t


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_tables())
def test_generator_check_refuses_what_the_cube_refuses(t):
    labels = [f"x{i}" for i in range(len(t))]
    assert _refusal(labels, t) == _cube_refusal(labels, t)


def test_cube_reference_sees_every_verdict():
    verdicts = {_cube_refusal(range(len(t)), t) for t in _TABLES}
    assert verdicts == {None, "G: multiplication is not associative",
                        "G: no identity element", "G: missing inverses"}


def test_order_216_table_checks_in_little_memory():
    g = fixtures.group_nerve("nerve-s3-id").levels[2]
    tracemalloc.start()
    try:
        GroupTable(g.labels, g.table, name=g.name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 216
    assert peak < 8 << 20      # the n^3 cube in 16M-cell chunks: ~170 MB


@pytest.mark.parametrize("labels, table, says", [
    (["e", "e"], [[0, 1], [1, 0]], "G: duplicate element labels"),
    (["e", "a"], [[0, 1]], "G: table shape (1, 2), expected (2,2)"),
    (["e", "a"], [[0, 1], [1, 2]], "G: table entries out of range"),
    (["z", "w"], [[0, 0], [0, 0]], "G: no identity element"),
], ids=["duplicate-labels", "shape", "range", "no-identity"])
def test_every_group_refusal_names_its_reason(labels, table, says):
    with pytest.raises(InvalidGroup) as e:
        GroupTable(labels, table)
    assert str(e.value) == says


def _homomorphisms() -> list:
    """(src, dst, images) of homomorphisms: identities, trivial maps, the
    sign of S3 and the faces and degeneracies of the S3 nerve."""
    groups = [fixtures.builtin_raw(g) for g in ("trivial", "c2", "c3", "s3")]
    nerve = fixtures.group_nerve("nerve-s3-id")
    out = [(g, g, np.arange(g.order)) for g in groups]
    out += [(g, h, np.full(g.order, h.identity)) for g in groups
            for h in groups]
    out.append((groups[3], groups[1], np.array(s3_sign_indices())))
    for n, fs in enumerate(nerve.faces):
        out += [(nerve.levels[n], nerve.levels[n - 1], d) for d in fs]
    for n, ss in enumerate(nerve.degens):
        out += [(nerve.levels[n], nerve.levels[n + 1], s) for s in ss]
    return out


_HOMS = _homomorphisms()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_HOMS), st.integers(0, 1 << 16),
       st.sampled_from(["none", "image", "coset"]))
def test_hom_check_on_generators_agrees_with_all_pairs(hom, pick, spoil):
    """check_group_hom compares only the columns of the identity and the
    generators; every pair a, b gives the same verdict, on homomorphisms,
    on copies with one image changed, and on copies with one right coset
    r<g> of the first generator g moved by a left factor, which still
    pass the column of g."""
    src, dst, f = hom
    f = np.array(f)
    if spoil == "image":
        f[pick % src.order] = (pick >> 8) % dst.order
    elif spoil == "coset" and src.generators:
        coset, c = [], pick % src.order
        while c not in coset:
            coset.append(c)
            c = src.mul(c, src.generators[0])
        f[coset] = dst.table[(pick >> 8) % dst.order, f[coset]]
    everywhere = np.array_equal(dst.table[f[:, None], f[None, :]],
                                f[src.table])
    assert check_group_hom(src, dst, f) == everywhere


def test_hom_check_reads_the_identity_column():
    """The trivial group has no generators: only its identity column can
    see that e -> g is not a homomorphism."""
    c2 = cyclic_group(2)
    assert check_group_hom(trivial_group(), c2, [0])
    assert not check_group_hom(trivial_group(), c2, [1])


def test_semidirect_product_recovers_s3():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    # C2 (second factor) acts on C3 by inversion
    action = [[0, 1, 2], [0, 2, 1]]
    tw = semidirect_product(c3, c2, action)
    assert len(tw.labels) == 6
    # noncommutative, unlike the direct product
    assert any(tw.table[i][j] != tw.table[j][i]
               for i in range(6) for j in range(6))


def _semidirect_table_by_loops(m, n, action):
    """The Cayley table of M x| N entry by entry, as a reference for the
    vectorised one: (m,n)(m',n') = (m (n |> m'), n n')."""
    act = np.asarray(action, dtype=np.int64)
    size = m.order * n.order
    table = np.empty((size, size), dtype=np.int64)
    for i1 in range(m.order):
        for j1 in range(n.order):
            a = i1 * n.order + j1
            for i2 in range(m.order):
                base = m.mul(i1, int(act[j1, i2])) * n.order
                for j2 in range(n.order):
                    table[a, i2 * n.order + j2] = base + n.table[j1, j2]
    return table


def test_semidirect_tables_of_builtin_nerves_match_loops(monkeypatch):
    built = []

    def checked(m, n, action, **kw):
        g = semidirect_product(m, n, action, **kw)
        assert np.array_equal(g.table,
                              _semidirect_table_by_loops(m, n, action))
        built.append(g.order)
        return g

    monkeypatch.setattr(simplicial, "semidirect_product", checked)
    for name in ("nerve-c2-id", "nerve-c2-trivial", "nerve-s3-id"):
        fixtures.group_nerve.__wrapped__(name)   # bypass the builtin cache
    assert built == [4, 8, 16, 2, 2, 2, 36, 216]


def test_sign_map_is_a_group_hom():
    s3, c2 = symmetric_group_3(), cyclic_group(2)
    assert check_group_hom(s3, c2, s3_sign_indices())
    # corrupting one image breaks it
    bad = list(s3_sign_indices())
    bad[0] = 1 - bad[0]
    assert not check_group_hom(s3, c2, bad)


def test_linearized_hom_is_hopf_morphism(ks3, kc2):
    m = linearize_group_hom(ks3, kc2, s3_sign_indices(), name="sign")
    rep = check_morphism(m)
    assert rep.ok, rep.format_text()


def test_zero_morphism_is_unit_counit(ks3, kc2):
    z = zero_morphism(ks3, kc2)
    assert z.lin == kc2.unit @ ks3.counit
    assert check_morphism(z).ok


def test_corrupted_hom_fails_morphism_check(ks3, kc2):
    bad = list(s3_sign_indices())
    bad[0] = 1 - bad[0]
    lin = LinMap.from_entries(ks3.space, kc2.space,
                              {(img, j): 1 for j, img in enumerate(bad)})
    rep = check_morphism(HopfMorphism(ks3, kc2, lin, name="notahom"))
    assert not rep.ok
    assert any(c.name == "respects-mul" for c in rep.failed())


def _counted_evaluations(monkeypatch) -> list:
    """The names of the morphisms check_morphism evaluates from now on."""
    real, names = hopf.check_morphism, []

    def counted(m):
        names.append(m.name)
        return real(m)

    monkeypatch.setattr(hopf, "check_morphism", counted)
    return names


def test_morphism_laws_are_computed_once_and_kept_per_morphism(monkeypatch):
    evaluated = _counted_evaluations(monkeypatch)
    src, dst = group_algebra(cyclic_group(3)), group_algebra(cyclic_group(3))
    ident = LinMap.identity(src.space)
    m = HopfMorphism(src, dst, ident, name="id")
    first = m.laws()
    assert first.ok and first.title == "check-morphism id"
    first.add("spoilt-by-the-caller", False)     # a copy: the kept one holds
    assert m.laws().ok
    m.name = "renamed"                           # the title follows the name
    assert m.laws().title == "check-morphism renamed"
    assert evaluated == ["id"]
    # the same name, algebras and shape with another map has its own laws
    junk = LinMap.from_monomial(src.space, dst.space, np.array([0, 1, 1]))
    other = HopfMorphism(src, dst, junk, name="renamed")
    assert not other.laws().ok
    assert m.laws().ok
    assert evaluated == ["id", "renamed"]


def test_morphism_laws_do_not_outlive_their_inputs(monkeypatch):
    evaluated = _counted_evaluations(monkeypatch)
    c3 = cyclic_group(3)
    src, dst = group_algebra(c3), group_algebra(c3)
    ident = LinMap.identity(src.space)
    junk = LinMap.from_monomial(src.space, dst.space, np.array([0, 1, 1]))
    m = HopfMorphism(src, dst, ident, name="id")
    assert m.laws().ok
    m.lin = junk                                 # a new map
    assert not m.laws().ok
    m.lin = ident
    assert m.laws().ok
    dst.mul = dst.antipode @ dst.mul             # a new structure map
    assert not m.laws().ok
    m.dst = group_algebra(c3)                    # a new algebra
    assert m.laws().ok
    assert len(evaluated) == 5


def test_projection_reuses_the_laws_of_morphism_legs(monkeypatch):
    evaluated = _counted_evaluations(monkeypatch)
    t = simplicial.linearize(fixtures.group_nerve("nerve-c2-id"))
    d0, s0 = t.faces[1][0], t.degens[0][0]
    assert d0.laws().ok and s0.laws().ok
    p = HopfProjection(t.levels[1], t.levels[0], d0, s0, name="cut")
    assert evaluated == ["d0@1", "s0@0"]
    # the legs are kept under the projection's names, on the same maps
    assert (p.proj.name, p.incl.name) == ("cut.proj", "cut.incl")
    assert p.proj.lin is d0.lin and p.incl.lin is s0.lin
    # a leg between other algebras on the same spaces is refused
    twin = simplicial.linearize(fixtures.group_nerve("nerve-c2-id"))
    with pytest.raises(DimensionMismatch, match=r"cut\.proj: .* does not run"):
        HopfProjection(t.levels[1], t.levels[0], twin.faces[1][0], s0,
                       name="cut")


# -- projections ----------------------------------------------------------


def test_builtin_projections_split(proj_sweedler, proj_sign_s3):
    for p in (proj_sweedler, proj_sign_s3):
        assert p.proj.lin @ p.incl.lin == LinMap.identity(p.small.space)


def test_bad_projection_rejected(sweedler, kc2):
    # inclusion into the wrong basis line: proj(incl(g)) = 0 != g
    proj = LinMap.from_rows(sweedler.space, kc2.space,
                            [[1, 0, 0, 0], [0, 1, 0, 0]])
    incl = LinMap.from_rows(kc2.space, sweedler.space,
                            [[1, 0], [0, 0], [0, 0], [0, 1]])
    with pytest.raises(NotAProjection):
        HopfProjection(sweedler, kc2, proj, incl)


def test_bad_projection_names_check_and_witness(sweedler, kc2):
    proj = LinMap.from_rows(sweedler.space, kc2.space,
                            [[1, 0, 0, 0], [0, 1, 0, 0]])
    incl = LinMap.from_rows(kc2.space, sweedler.space,
                            [[1, 0], [0, 0], [0, 0], [0, 1]])
    with pytest.raises(NotAProjection,
                       match=r"proj-incl-is-identity fails at .*col 'g'"):
        HopfProjection(sweedler, kc2, proj, incl)


def test_singular_antipode_rejected(sweedler):
    s = sweedler
    singular = LinMap.from_rows(s.space, s.space, SINGULAR_ANTIPODE)
    with pytest.raises(NonInvertibleAntipode):
        HopfAlgebra(s.space, s.mul, s.unit, s.comul, s.counit, singular)


# -- dimension cap ---------------------------------------------------------


def test_dimension_cap_enforced(monkeypatch):
    monkeypatch.setenv("HOPFFORGE_MAX_DIM", "2")
    with pytest.raises(DimensionCapExceeded):
        group_algebra(cyclic_group(3))
    monkeypatch.setenv("HOPFFORGE_MAX_DIM", "junk")
    with pytest.raises(DimensionCapExceeded):
        group_algebra(cyclic_group(2))


def test_trivial_group_has_unit_label():
    assert trivial_group().labels == ("1",)
