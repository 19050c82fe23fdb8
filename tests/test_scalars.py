"""The scalar normal form: whole numbers are ``int``, the rest ``Fraction``.

``LinMap`` stores only ``int`` values and ``Fraction`` values whose
denominator is not 1, never a float (``_normal`` checks exactly that).
The guards at the end send every Hopf layer, and the whole simplicial
tower, through a change of basis with non-integral entries, because no
builtin exercises the rational path on its own.
"""

from fractions import Fraction

import pytest

import sparse_reference
from hopfforge import cli, fixtures, hopf, io, linalg, radford, simplicial, yd
from hopfforge.hopf import (HopfAlgebra, HopfMorphism, HopfProjection,
                            check_hopf, group_algebra)
from hopfforge.linalg import LinMap, Space, kernel_basis, rat, try_inverse
from hopfforge.radford import induced_braided_hopf, radford_iso
from hopfforge.simplicial import (TruncatedSimplicialHopf,
                                  check_fg_commutation, dim2_pipeline,
                                  extract_xmod, level3_restriction_probe,
                                  peiffer_pairing, verify_simplicial)
from hopfforge.yd import (check_braided_hopf, check_yd, projection_yd,
                          yd_braiding)


def _normal(m: LinMap) -> bool:
    return all(type(v) is int
               or (type(v) is Fraction and v.denominator != 1)
               for _, _, v in m.items())


# -- rat ------------------------------------------------------------------


@pytest.mark.parametrize("x, want", [
    (True, 1), (3, 3), ("4/2", 2), (Fraction(6, 3), 2), (-7, -7)])
def test_rat_gives_int_for_whole_values(x, want):
    assert rat(x) == want
    assert type(rat(x)) is int


def test_rat_keeps_non_integral_fractions():
    assert rat("2/7") == Fraction(2, 7)
    assert type(rat("2/7")) is Fraction


@pytest.mark.parametrize("x", [0.5, None])
def test_rat_refuses_inexact_and_missing(x):
    with pytest.raises(TypeError):
        rat(x)


def test_parsed_scalars_are_in_normal_form():
    assert type(io.parse_scalar("4/2", "$")) is int
    assert type(io.parse_scalar(5, "$")) is int
    assert io.parse_scalar("-2/7", "$") == Fraction(-2, 7)


def test_linmap_normalises_what_arithmetic_produces():
    v = Space(["a", "b"])
    m = LinMap(v, v, {0: {0: Fraction(2, 2), 1: Fraction(0)},
                      1: {1: Fraction(1, 2) * 4, 0: "3/6"}})
    assert m.column(0) == {0: 1} and type(m.column(0)[0]) is int
    assert type(m.column(1)[1]) is int and m.column(1)[0] == Fraction(1, 2)
    with pytest.raises(TypeError):
        LinMap(v, v, {0: {0: 0.0}})


# -- exact division on int pivots -------------------------------------------


def test_inverse_of_int_pivot_is_exact():
    v = Space(["a"])
    inv = try_inverse(LinMap.from_rows(v, v, [[2]]))
    assert inv.column(0)[0] == Fraction(1, 2)
    assert type(inv.column(0)[0]) is Fraction and _normal(inv)


@pytest.mark.parametrize("row, want", [
    ([2, 3], Fraction(-2, 3)), ([3, 2], Fraction(-3, 2))])
def test_kernel_of_int_row_is_exact(row, want):
    # the kernel vector is scaled so that its leading entry is +1
    m = LinMap.from_rows(Space(["a", "b"]), Space(["r"]), [row])
    incl = kernel_basis(m).inclusion
    assert incl.column(0) == {0: 1, 1: want}
    assert type(incl.column(0)[1]) is Fraction and _normal(incl)


# -- every builtin is stored in normal form -----------------------------------


def _hopf_maps(h: HopfAlgebra) -> list:
    return [h.mul, h.unit, h.comul, h.counit, h.antipode]


def _builtin_maps(name: str) -> list:
    obj = fixtures.builtin_raw(name)
    if isinstance(obj, HopfProjection):
        return (_hopf_maps(obj.big) + _hopf_maps(obj.small)
                + [obj.proj.lin, obj.incl.lin])
    if isinstance(obj, HopfAlgebra):
        return _hopf_maps(obj)
    if isinstance(obj, TruncatedSimplicialHopf):
        return ([m for h in obj.levels for m in _hopf_maps(h)]
                + [f.lin for fs in obj.faces for f in fs]
                + [s.lin for ss in obj.degens for s in ss])
    return _hopf_maps(group_algebra(obj))


@pytest.mark.parametrize("name", fixtures.BUILTIN_NAMES)
def test_builtin_structure_maps_are_in_normal_form(name):
    assert all(_normal(m) for m in _builtin_maps(name))


@pytest.mark.parametrize("name", ["proj-sweedler", "proj-sign-s3"])
@pytest.mark.parametrize("conjugate", [False, True])
def test_computed_structure_is_in_normal_form(name, conjugate):
    p = fixtures.builtin_raw(name)
    p = _conjugated(p) if conjugate else p
    res = induced_braided_hopf(p)
    b = res.braided
    assert all(_normal(m) for m in _hopf_maps(p.big) + _hopf_maps(b)
               + [p.proj.lin, p.incl.lin, res.subspace.inclusion,
                  b.carrier.action, b.carrier.coaction, b.self_braiding()])


# -- work bound ----------------------------------------------------------------


def test_integral_tower_builds_almost_no_fractions(nerve_c2_id, monkeypatch):
    real = Fraction.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    verify_simplicial(nerve_c2_id)
    pipe = dim2_pipeline(nerve_c2_id)
    peiffer_pairing(nerve_c2_id, pipe)
    extract_xmod(nerve_c2_id, pipe)
    assert len(made) < 100, len(made)


# -- guard: a non-integral change of basis through every Hopf layer -------------


def _bidiagonal(space: Space) -> LinMap:
    """Upper bidiagonal: 2/3, -3/5 alternating down the diagonal, 1/7 above."""
    n = space.dim
    entries = {(i, i): Fraction(2, 3) if i % 2 == 0 else Fraction(-3, 5)
               for i in range(n)}
    entries.update({(i, i + 1): Fraction(1, 7) for i in range(n - 1)})
    return LinMap.from_entries(space, space, entries)


def _moved(h: HopfAlgebra, P: LinMap, Pi: LinMap) -> HopfAlgebra:
    """h transported along P: h.space -> h.space, whose inverse is Pi."""
    return HopfAlgebra(
        h.space, P @ h.mul @ Pi.tensor(Pi), P @ h.unit,
        P.tensor(P) @ h.comul @ Pi, h.counit @ Pi,
        P @ h.antipode @ Pi, name=f"{h.name}^P")


def _conjugated(p: HopfProjection) -> HopfProjection:
    """p with its big algebra I transported along P: I -> I."""
    P = _bidiagonal(p.big.space)
    Pi = try_inverse(P)
    return HopfProjection(_moved(p.big, P, Pi), p.small, p.proj.lin @ Pi,
                          P @ p.incl.lin, name=f"{p.name}^P")


def _transported(t: TruncatedSimplicialHopf) -> TruncatedSimplicialHopf:
    """t with level n moved along P_n, faces and degeneracies conjugated,
    so no structure map of the tower is monomial any more."""
    Ps = [_bidiagonal(h.space) for h in t.levels]
    Pis = [try_inverse(P) for P in Ps]
    levels = [_moved(*a) for a in zip(t.levels, Ps, Pis)]

    def move(m: HopfMorphism, n: int, k: int) -> HopfMorphism:
        return HopfMorphism(levels[n], levels[k], Ps[k] @ m.lin @ Pis[n],
                            name=m.name)

    faces = [[move(d, n, n - 1) for d in fs] for n, fs in enumerate(t.faces)]
    degens = [[move(s, n, n + 1) for s in ss]
              for n, ss in enumerate(t.degens)]
    return TruncatedSimplicialHopf(levels, faces, degens, name=f"{t.name}^P")


@pytest.mark.parametrize("name, dim_kernel", [
    ("proj-sweedler", 2), ("proj-sign-s3", 3)])
def test_rational_change_of_basis_through_radford(name, dim_kernel):
    q = _conjugated(fixtures.builtin_raw(name))
    assert any(type(v) is Fraction for _, _, v in q.big.mul.items())
    assert check_hopf(q.big).ok
    v = projection_yd(q)
    assert check_yd(v).ok
    yd_braiding(v, v)   # raises NonInvertibleBraiding if R is singular
    res = induced_braided_hopf(q)
    assert res.subspace.dim == dim_kernel
    assert check_braided_hopf(res.braided).ok
    _, _, rep = radford_iso(q, res)
    assert rep.ok


@pytest.mark.parametrize("name", ["nerve-c2-id", "nerve-c2-trivial"])
def test_rational_change_of_basis_through_the_tower(name):
    """The whole kernel tower, Peiffer pairing and crossed module on
    sparse vectors: every report passes with the dimensions of the
    untransported nerve."""
    t = fixtures.builtin_raw(name)
    q = _transported(t)
    assert q.levels[2].mul.coeffs.dtype == object
    assert any(type(v) is Fraction for _, _, v in q.levels[1].mul.items())
    assert verify_simplicial(q).ok
    assert check_fg_commutation(q).ok
    pipe = dim2_pipeline(q)
    assert pipe.report.ok
    assert pipe.report.derived == dim2_pipeline(t).report.derived
    pp = peiffer_pairing(q, pipe)
    assert pp.report.ok and pp.composite == pp.closed_form
    _, rep = extract_xmod(q, pipe)
    assert rep.ok
    probe = level3_restriction_probe(q, pipe)
    assert probe.ok
    assert probe.derived == level3_restriction_probe(t).derived


def _fraction_products(engine) -> int:
    """Fraction multiplications of the transported nerve-c2-id tower's
    checks, with ``engine`` in place of every ``composite_map``."""
    made = []
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counted_mul(a, b):
        made.append(1)
        return mul(a, b)

    def counted_rmul(a, b):
        made.append(1)
        return rmul(a, b)

    with pytest.MonkeyPatch.context() as mp:
        for mod in (linalg, hopf, radford, yd, simplicial, cli):
            mp.setattr(mod, "composite_map", engine)
        q = _transported(fixtures.builtin_raw("nerve-c2-id"))
        mp.setattr(Fraction, "__mul__", counted_mul)
        mp.setattr(Fraction, "__rmul__", counted_rmul)
        verify_simplicial(q)
        check_fg_commutation(q)
        pipe = dim2_pipeline(q)
        peiffer_pairing(q, pipe)
        extract_xmod(q, pipe)
        level3_restriction_probe(q, pipe)
    return len(made)


def test_rational_tower_multiplies_no_more_than_the_reference():
    """The engine multiplies only live coefficients, never the zero
    padding of its arrays, so on rational pipelines it makes no more
    Fraction products than the column-by-column reference (165k against
    268k; multiplying the padding too once made 442k)."""
    engine = _fraction_products(linalg.composite_map)
    reference = _fraction_products(sparse_reference.composite_map)
    assert 0 < engine <= reference, (engine, reference)
