"""Simplicial Hopf algebras: identities, the level-2 kernel tower, the
Peiffer pairing, crossed-module extraction and the group-level oracle.

Nerve sizes are frozen from |N_k| = |M|^k * |N|: the identity crossed
module on C2 gives level orders 2, 4, 8, 16; the trivial one stays at 2.
"""

import itertools
from fractions import Fraction

import pytest

from hopfforge import __version__, fixtures, io
from hopfforge.errors import (DimensionMismatch, InvalidCrossedModule,
                              InvalidGroup, NotAProjection)
from hopfforge.hopf import (GroupTable, HopfMorphism, cyclic_group,
                            group_algebra, symmetric_group_3, trivial_group)
from hopfforge.linalg import LinMap, RowReducer
from hopfforge.simplicial import (GroupCrossedModule, TruncatedSimplicialGroup,
                                  TruncatedSimplicialHopf, check_fg_commutation,
                                  check_twisted, constant_simplicial_hopf,
                                  dim2_pipeline, extract_xmod,
                                  identity_crossed_module,
                                  level3_restriction_probe, level_projection,
                                  level_rker,
                                  linearize, moore_group_oracle,
                                  nerve_of_crossed_module, peiffer_pairing,
                                  verify_simplicial)


@pytest.fixture(scope="module")
def pipe_c2(nerve_c2_id):
    return dim2_pipeline(nerve_c2_id)


@pytest.fixture(scope="module")
def pipe_trivial(nerve_c2_trivial):
    return dim2_pipeline(nerve_c2_trivial)


# -- simplicial identities -------------------------------------------------


def test_nerve_c2_id_verifies(nerve_c2_id):
    rep = verify_simplicial(nerve_c2_id)
    assert rep.ok, rep.format_text()
    assert rep.derived["level_dims"] == [2, 4, 8, 16]


def test_nerve_c2_trivial_verifies(nerve_c2_trivial):
    rep = verify_simplicial(nerve_c2_trivial)
    assert rep.ok
    assert rep.derived["level_dims"] == [2, 2, 2, 2]


def test_constant_object_verifies(sweedler):
    t = constant_simplicial_hopf(sweedler)
    rep = verify_simplicial(t)
    assert rep.ok, rep.format_text()
    assert rep.derived["level_dims"] == [4, 4, 4]


def test_mutated_faces_fail_face_face_identity(nerve_c2_id):
    t = nerve_c2_id
    faces = [list(f) for f in t.faces]
    faces[2] = [t.faces[2][2], t.faces[2][1], t.faces[2][0]]
    rep = verify_simplicial(TruncatedSimplicialHopf(
        t.levels, faces, t.degens, name="mutant"))
    assert not rep.ok
    assert rep.failed()[0].name == "d0d1=d0d0@2"


def test_projection_lines_repeat_the_split_identities(sweedler):
    # s0@0 = S breaks d_i s_0 = id on level 0; each projection-(d_i,s_j)@n
    # line carries the verdict of d{i}s{j}=id@{n-1}
    t = constant_simplicial_hopf(sweedler)
    degens = [list(ss) for ss in t.degens]
    degens[0][0] = HopfMorphism(sweedler, sweedler, sweedler.antipode,
                                name="s0@0")
    rep = verify_simplicial(TruncatedSimplicialHopf(
        t.levels, t.faces, degens, name="mutant"))
    status = {c.name: c.status for c in rep.checks}
    pairs = [(f"projection-(d{i},s{j})@{n}", f"d{i}s{j}=id@{n - 1}")
             for n in (1, 2) for j in range(n) for i in (j, j + 1)]
    assert [status[p] for p, _ in pairs] == [status[s] for _, s in pairs]
    assert status["projection-(d0,s0)@1"] == "fail"


def _wrong_face_count(faces):
    faces[1] = faces[1][:1]


def _nonempty_faces0(faces):
    faces[0] = [faces[1][0]]


def _face_from_wrong_level(faces):
    faces[2][0] = faces[1][0]


def _tower(kind):
    """(tower class, its shape error, the C2 identity nerve in that class)."""
    if kind == "group":
        return (TruncatedSimplicialGroup, InvalidGroup,
                fixtures.group_nerve("nerve-c2-id"))
    return (TruncatedSimplicialHopf, DimensionMismatch,
            fixtures.builtin_raw("nerve-c2-id"))


@pytest.mark.parametrize("kind", ["group", "hopf"])
@pytest.mark.parametrize("mutate, says", [
    (_wrong_face_count, "level 1 needs 2 faces"),
    (_nonempty_faces0, r"faces\[0\] and degens\[top\] must be empty"),
    (_face_from_wrong_level, "d0@2 is not a morphism from level 2"),
])
def test_tower_shape_errors(kind, mutate, says):
    cls, error, t = _tower(kind)
    faces = [list(fs) for fs in t.faces]
    mutate(faces)
    with pytest.raises(error, match=says):
        cls(t.levels, faces, t.degens, name="mutant")


C2, C3, S3 = cyclic_group(2), cyclic_group(3), symmetric_group_3()
ID2 = [[0, 1], [0, 1]]


@pytest.mark.parametrize("m, n, boundary, action, says", [
    (C2, C2, [0], ID2, "boundary has length (1,), expected (2,)"),
    (C2, C2, [0, 1], [[0, 1]], "action table is (1, 2), expected (2, 2)"),
    (C2, C2, [0, 5], ID2, "boundary indices out of range"),
    (C2, C2, [0, 1], [[0, 1], [0, 7]], "action indices out of range"),
    (C2, C2, [1, 0], ID2, "boundary is not a homomorphism"),
    (C2, C2, [0, 0], [[1, 0], [0, 1]], "the identity of C2 acts nontrivially"),
    (C2, C2, [0, 0], [[0, 1], [0, 0]], "'g' does not act bijectively"),
    (C3, C2, [0, 0, 0], [[0, 1, 2], [1, 0, 2]],
     "'g' does not act by an automorphism"),
    # g acts by inversion, g2 trivially: g g2 = 1 but inv . id != id
    (C3, C3, [0, 0, 0], [[0, 1, 2], [0, 2, 1], [0, 1, 2]],
     "action does not compose, (n1 n2) |> m != n1 |> (n2 |> m)"),
    # id: S3 -> S3 with the trivial action: par(n |> m) = m != n m n^-1
    (S3, S3, list(range(6)), [list(range(6))] * 6,
     "equivariance fails at n='(12)', m='(13)'"),
    # S3 -> 1: par(m) |> m' = m' != m m' m^-1
    (S3, trivial_group(), [0] * 6, [list(range(6))],
     "Peiffer identity fails at m='(12)', m'='(13)'"),
], ids=["boundary-length", "action-shape", "boundary-range", "action-range",
        "boundary-hom", "identity-acts", "bijective", "automorphism",
        "compose", "equivariance", "peiffer"])
def test_every_crossed_module_refusal_names_its_reason(m, n, boundary, action,
                                                       says):
    with pytest.raises(InvalidCrossedModule) as e:
        GroupCrossedModule(m, n, boundary, action)
    assert str(e.value) == f"X: {says}"


def test_nerve_matches_group_construction(nerve_c2_id):
    x = identity_crossed_module(cyclic_group(2))
    t = linearize(nerve_of_crossed_module(x, depth=3))
    assert [l.dim for l in t.levels] == [l.dim for l in nerve_c2_id.levels]
    assert verify_simplicial(t).ok


def test_nerve_s3_id_builds_from_index_arrays(monkeypatch):
    """Set-up work bound: a fresh nerve-s3-id (levels 6, 36, 216) is built
    without the dict constructor LinMap.__init__ and without RowReducer,
    since every structure map is monomial and so is each antipode whose
    rank is checked."""
    calls = []
    init, reduce = LinMap.__init__, RowReducer.__init__

    def counted(real, name):
        def wrapper(self, *args):
            calls.append(name)
            real(self, *args)
        return wrapper

    monkeypatch.setattr(LinMap, "__init__", counted(init, "LinMap"))
    monkeypatch.setattr(RowReducer, "__init__", counted(reduce, "RowReducer"))
    cached = [f for f in vars(fixtures).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    try:
        t = fixtures.builtin_raw("nerve-s3-id")
    finally:
        for f in cached:
            f.cache_clear()
    assert [lv.dim for lv in t.levels] == [6, 36, 216]
    assert calls == []


# -- the kernel tower --------------------------------------------------------


def test_level_kernel_dimensions(nerve_c2_id):
    assert level_rker(nerve_c2_id, 1, 0, 0).subspace.dim == 2
    assert level_rker(nerve_c2_id, 2, 0, 0).subspace.dim == 2
    assert level_rker(nerve_c2_id, 3, 0, 0).subspace.dim == 2


def test_pipeline_dimensions(pipe_c2):
    assert pipe_c2.report.derived == {
        "dim_A100": 2, "dim_A200": 2, "dim_A221": 1}


def test_pipeline_passes(pipe_c2):
    assert pipe_c2.report.ok, pipe_c2.report.format_text()


def test_pipeline_d2_s1_are_braided_morphisms(pipe_c2):
    d2_checks = [c for c in pipe_c2.report.checks if c.name.startswith("d2/")]
    s1_checks = [c for c in pipe_c2.report.checks if c.name.startswith("s1/")]
    assert d2_checks and s1_checks
    assert all(c.status == "pass" for c in d2_checks)
    assert all(c.status == "pass" for c in s1_checks)


def test_pipeline_lift_is_yetter_drinfeld_over_level_one(pipe_c2):
    lifted = [c for c in pipe_c2.report.checks
              if c.name.startswith("interchanged/")]
    assert lifted and all(c.status == "pass" for c in lifted)
    assert pipe_c2.a100_over_h1.over.space.dim == 4


def test_pipeline_d2_s1_split(pipe_c2):
    assert pipe_c2.d2 @ pipe_c2.s1 == LinMap.identity(pipe_c2.d2.cod)


def test_trivial_pipeline_dimensions(pipe_trivial):
    assert pipe_trivial.report.ok
    assert pipe_trivial.report.derived == {
        "dim_A100": 1, "dim_A200": 1, "dim_A221": 1}


def test_d1_square_obstruction_witness_c2(nerve_c2_id):
    rep = check_fg_commutation(nerve_c2_id)
    assert rep.ok  # obstructions are recorded, not asserted
    d1 = {c.name: c for c in rep.checks if c.name.endswith("-d1")}
    assert d1["f-square-d1"].detail == "fails"
    assert d1["f-square-d1"].witness["col"] == "(1,(g,1))"
    assert d1["g-square-d1"].detail == "fails"


@pytest.mark.slow
def test_d1_square_obstruction_witness_s3(nerve_s3_id):
    rep = check_fg_commutation(nerve_s3_id)
    assert rep.ok
    d1 = {c.name: c for c in rep.checks if c.name.endswith("-d1")}
    assert d1["f-square-d1"].detail == "fails"
    # the witness is a group-like basis element
    assert d1["f-square-d1"].witness["col"] == "(e,((12),e))"


@pytest.mark.slow
def test_s3_pipeline(nerve_s3_id):
    pipe = dim2_pipeline(nerve_s3_id)
    assert pipe.report.ok, pipe.report.format_text()
    assert pipe.report.derived == {
        "dim_A100": 6, "dim_A200": 6, "dim_A221": 1}


# -- Peiffer pairing ----------------------------------------------------------


def test_peiffer_composite_matches_closed_form(nerve_c2_id, pipe_c2):
    pp = peiffer_pairing(nerve_c2_id, pipe_c2)
    assert pp.report.ok, pp.report.format_text()
    assert pp.composite == pp.closed_form
    names = [c.name for c in pp.report.checks]
    assert "closed-form-matches-composite" in names
    assert "image-in-nested-kernel" in names


def test_peiffer_trivial_collapses_to_counit(nerve_c2_trivial, pipe_trivial):
    pp = peiffer_pairing(nerve_c2_trivial, pipe_trivial)
    assert pp.report.ok
    # F(x (x) y) = eps(x) eps(y) 1: the unit coefficient carries everything
    assert pp.composite.to_rows() == [[Fraction(1)], [Fraction(0)]]
    assert any(c.name == "collapses-to-counit" and c.status == "pass"
               for c in pp.report.checks)


def _group_peiffer(g: TruncatedSimplicialGroup, x: int, y: int) -> int:
    """The closed form on group-likes x, y of level one, read from the
    nerve's index tables: Delta^3 of a group-like is four copies of it and
    S is the inverse, so the eight-factor product is one group element."""
    g1, g2 = g.levels[1], g.levels[2]
    s0, s1 = g.degens[1]
    d0, d2 = g.faces[2][0], g.faces[2][2]
    xi, yi = g1.inv(x), g1.inv(y)
    word = [s0[x], s1[y], s0[d0[s1[yi]]], s0[xi],
            s1[d2[s0[x]]], s1[d0[s1[y]]], s1[yi], s1[d2[s0[xi]]]]
    out = g2.identity
    for w in word:
        out = g2.mul(out, int(w))
    return out


@pytest.mark.parametrize("name", [
    "nerve-c2-id", "nerve-c2-trivial",
    pytest.param("nerve-s3-id", marks=pytest.mark.slow)])
def test_peiffer_closed_form_matches_group_words(name):
    """An oracle for the closed form that shares no code with
    composite_map: the group-level word extended bilinearly over the
    inclusion columns of A^1_(0,0)."""
    g = fixtures.group_nerve(name)
    t = fixtures.builtin_raw(name)
    pipe = dim2_pipeline(t)
    closed = peiffer_pairing(t, pipe).closed_form
    incl = pipe.a100.subspace.inclusion
    b = incl.dom.dim
    entries = {}
    for i in range(b):
        for j in range(b):
            for x, cx in incl.column(i).items():
                for y, cy in incl.column(j).items():
                    key = _group_peiffer(g, x, y), i * b + j
                    entries[key] = entries.get(key, 0) + cx * cy
    assert closed == LinMap.from_entries(closed.dom, closed.cod, entries)


# -- crossed module extraction ------------------------------------------------


@pytest.mark.parametrize("nerve_name", ["nerve-c2-id", "nerve-c2-trivial"])
def test_extract_xmod_laws(nerve_name):
    t = fixtures.builtin_raw(nerve_name)
    xmod, rep = extract_xmod(t)
    assert rep.ok, rep.format_text()
    by_name = {c.name: c.status for c in rep.checks}
    for law in ("twisted-coproduct-law", "action-equivariance",
                "peiffer-braided-adjoint", "braided-adjoint-collapses"):
        assert by_name[law] == "pass"
    assert xmod.boundary.dom == xmod.module.space


def test_twisted_law_standalone(nerve_c2_id, pipe_c2):
    rep = check_twisted(nerve_c2_id, pipe_c2)
    assert rep.ok, rep.format_text()
    assert any(c.name == "twisted-coproduct-law" and c.status == "pass"
               for c in rep.checks)


def test_level3_restriction_probe(nerve_c2_id):
    rep = level3_restriction_probe(nerve_c2_id)
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["d3-restricts"].status == "pass"
    # not asserted in general, only recorded
    assert by_name["s2-restricts"].status == "info"


def test_tower_reduces_few_rows(nerve_c2_id, monkeypatch):
    # a subspace reduces its basis vectors and a kernel the nonzero rows
    # of its map, never one row per ambient coordinate
    real = RowReducer.__init__
    rows = []

    def counting(self, r, ncols):
        rows.append(len(r))
        real(self, r, ncols)

    monkeypatch.setattr(RowReducer, "__init__", counting)
    pipe = dim2_pipeline(nerve_c2_id)
    peiffer_pairing(nerve_c2_id, pipe)
    extract_xmod(nerve_c2_id, pipe)
    assert sum(rows) <= 120, rows


# -- laws computed once per tower ----------------------------------------------


STAGES = ("verify", "fg", "moore", "tower")


def _stage_json(name: str, stage: str, t) -> list:
    """The canonical --json of each report a tower-s3 stage makes on t."""
    if stage == "verify":
        reps = [verify_simplicial(t)]
    elif stage == "fg":
        reps = [check_fg_commutation(t)]
    elif stage == "moore":
        reps = [moore_group_oracle(
            fixtures.group_nerve(name),
            fixtures.crossed_module(name.removeprefix("nerve-")))]
    else:
        pipe = dim2_pipeline(t)
        reps = [pipe.report, peiffer_pairing(t, pipe).report,
                extract_xmod(t, pipe)[1]]
    return [io.dump_json(r.to_dict(version=__version__)) for r in reps]


@pytest.mark.parametrize("name", ["nerve-c2-id", "nerve-c2-trivial"])
def test_stage_order_leaves_every_report_unchanged(name):
    # laws one stage computed are reused by the next on the same tower;
    # in every order, each report is the one a fresh tower gives
    def fresh():
        return linearize(fixtures.group_nerve(name))

    want = {stage: _stage_json(name, stage, fresh()) for stage in STAGES}
    for order in itertools.permutations(STAGES):
        t = fresh()
        for stage in order:
            assert _stage_json(name, stage, t) == want[stage], (order, stage)


def _spoiled_c2_tower(entry):
    """nerve-c2-id with d0@1 changed at one (row, column) entry."""
    t = linearize(fixtures.group_nerve("nerve-c2-id"))
    d0 = t.faces[1][0]
    entries = {(i, j): v for i, j, v in d0.lin.items()}
    entries.update(entry)
    faces = [list(f) for f in t.faces]
    faces[1][0] = HopfMorphism(d0.src, d0.dst, LinMap.from_entries(
        d0.lin.dom, d0.lin.cod, entries), name="d0@1")
    return TruncatedSimplicialHopf(t.levels, faces, t.degens, name="spoiled")


def test_a_spoiled_face_fails_wherever_its_laws_are_read():
    # d0@1 sends (g,1) to 2 times 1; d0 s0 = id still holds, its laws fail
    t = _spoiled_c2_tower({(0, 2): 2})
    rep = verify_simplicial(t)
    assert [c.name for c in rep.failed()] == [
        "d0d1=d0d0@2", "d0d2=d1d0@2", "d0s1=s0d0@1", "d0@1/respects-mul",
        "d0@1/respects-comul", "d0@1/respects-counit"]
    says = ("(d0,s0)@1: (d0,s0)@1.proj/respects-mul fails at row 'g', "
            "col '(1,g)⊗(g,1)': 1 != 2")
    with pytest.raises(NotAProjection) as err:
        level_projection(t, 1, 0, 0)
    assert str(err.value) == says
    with pytest.raises(NotAProjection) as err:
        dim2_pipeline(t)
    assert str(err.value) == says
    # the verdict was kept with the spoiled map; the mended one is checked
    face = t.faces[1][0]
    face.lin = fixtures.builtin_raw("nerve-c2-id").faces[1][0].lin
    assert level_projection(t, 1, 0, 0).proj.lin is face.lin
    assert verify_simplicial(t).ok


# -- the group-level oracle ---------------------------------------------------


@pytest.mark.parametrize("name,n1", [("nerve-c2-id", 2),
                                     ("nerve-c2-trivial", 1),
                                     ("nerve-s3-id", 6)])
def test_moore_oracle(name, n1):
    g = fixtures.group_nerve(name)
    x = fixtures.crossed_module(name.replace("nerve-", ""))
    rep = moore_group_oracle(g, x)
    assert rep.ok, rep.format_text()
    assert rep.derived == {"n1_order": n1, "n2_order": 1, "n2prime_order": 1}
    names = {c.name for c in rep.checks}
    assert {"roundtrip-n1", "roundtrip-boundary", "roundtrip-action"} <= names


def test_moore_oracle_without_reference_tables():
    g = fixtures.group_nerve("nerve-c2-id")
    rep = moore_group_oracle(g)
    assert rep.ok
    assert rep.derived["n2_order"] == 1
