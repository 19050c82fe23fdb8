"""Kernel extraction, bosonisation and the projection isomorphism.

Frozen values: the Sweedler kernel is span{1, x} inside (1, g, x, gx),
the sign kernel is the alternating group inside kS3, and the Sweedler
isomorphism is diag(1, 1, 1, -1) in the b (x) h basis.
"""

from fractions import Fraction

import pytest

from conftest import convolution_antipode
from hopfforge import fixtures, linalg, radford
from hopfforge.errors import ClosureFailure
from hopfforge.hopf import check_hopf, zero_morphism
from hopfforge.linalg import LinMap, composite_map, full_subspace
from hopfforge.radford import (bosonisation, checked_generators,
                               induced_braided_hopf, kernel_generators,
                               kernel_sides_agree, radford_iso, rker)
from hopfforge.yd import check_braided_hopf


# -- kernels ---------------------------------------------------------------


def test_sweedler_kernel_basis(proj_sweedler):
    sub = rker(proj_sweedler.proj, "right")
    assert sub.dim == 2
    assert sub.space.labels == ("1", "x")
    assert sub.inclusion.to_rows() == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0)]]


@pytest.mark.parametrize("side", ["right", "left", "categorical"])
def test_only_monomial_comultiplications_skip_the_reduction(
        proj_sweedler, proj_sign_s3, side, monkeypatch):
    # k[S3]'s kernels are read off the arrays, as the reduction would
    # give them; the Sweedler algebra's comul is not monomial, so its
    # kernels are still row reduced
    reduced = []
    real = linalg._row_reduction
    monkeypatch.setattr(linalg, "_row_reduction",
                        lambda m: reduced.append(m) or real(m))
    fast = rker(proj_sign_s3.proj, side)
    assert not reduced
    rker(proj_sweedler.proj, side)
    assert len(reduced) == 1
    monkeypatch.setattr(radford, "unit_kernel", lambda m: None)
    slow = rker(proj_sign_s3.proj, side)
    assert fast.space == slow.space
    assert fast.inclusion == slow.inclusion
    assert fast.retraction == slow.retraction


def test_sign_kernel_is_alternating_group(proj_sign_s3):
    sub = rker(proj_sign_s3.proj, "right")
    assert sub.dim == 3
    assert sub.space.labels == ("e", "(123)", "(132)")


def test_kernel_sides_agree_iff_cocommutative_target_side(proj_sweedler,
                                                          proj_sign_s3):
    # group algebras: conjugation-stable kernels, all sides coincide
    assert kernel_sides_agree(proj_sign_s3.proj)
    # Sweedler: the left kernel is span{1, gx}, not span{1, x}
    assert not kernel_sides_agree(proj_sweedler.proj)
    assert rker(proj_sweedler.proj, "left").space.labels == ("1", "gx")


def test_kernel_of_zero_morphism_is_everything(ks3, kc2):
    assert rker(zero_morphism(ks3, kc2), "right").dim == 6


# -- generator identities ----------------------------------------------------


@pytest.mark.parametrize("pname", ["proj-sweedler", "proj-sign-s3"])
def test_generator_identities(pname):
    p = fixtures.builtin_raw(pname)
    f, g = kernel_generators(p)
    h = p.big
    ident = LinMap.identity(h.space)
    assert f @ f == f
    assert g @ f == g
    sub = rker(p.proj, "right")
    assert f @ sub.inclusion == sub.inclusion
    # f * g == zeta and f * (i par) == id in the convolution monoid
    assert h.mul @ f.tensor(g) @ h.comul == h.unit @ h.counit
    ipar = p.incl.lin @ p.proj.lin
    assert h.mul @ f.tensor(ipar) @ h.comul == ident


# -- the induced braided Hopf structure --------------------------------------


def test_generators_must_fix_the_given_kernel(proj_sweedler):
    # f fixes RKer(par) but not all of I: the failure is a named check
    p = proj_sweedler
    with pytest.raises(ClosureFailure, match="f-fixes-kernel fails at row"):
        checked_generators(p.big, p.incl.lin @ p.proj.lin, p.name,
                           full_subspace(p.big.space))


def test_braided_comul_of_x_is_primitive(quantum_line):
    a = quantum_line.braided
    col = a.comul.column(1)
    labels = a.comul.cod.labels
    assert {labels[i]: v for i, v in col.items()} == \
        {"1⊗x": Fraction(1), "x⊗1": Fraction(1)}


def test_induced_structures_pass_braided_axioms(proj_sweedler, proj_sign_s3):
    for p in (proj_sweedler, proj_sign_s3):
        rep = check_braided_hopf(induced_braided_hopf(p).braided)
        assert rep.ok, rep.format_text()


def test_sign_kernel_multiplication_is_group_like(proj_sign_s3):
    # A3 is a subgroup, so the braided product restricts the group product
    a = induced_braided_hopf(proj_sign_s3).braided
    labels = a.space.labels
    tl = a.mul.dom.labels
    got = {}
    for i, j, v in a.mul.items():
        got[tl[j]] = labels[i]
        assert v == 1
    assert got["(123)⊗(123)"] == "(132)"
    assert got["(123)⊗(132)"] == "e"


# -- bosonisation -------------------------------------------------------------


@pytest.mark.parametrize("pname,dim", [("proj-sweedler", 4),
                                       ("proj-sign-s3", 6)])
def test_bosonisation_is_a_hopf_algebra(pname, dim):
    p = fixtures.builtin_raw(pname)
    boso = bosonisation(induced_braided_hopf(p).braided)
    assert boso.dim == dim
    rep = check_hopf(boso)
    assert rep.ok, rep.format_text()


@pytest.mark.parametrize("pname", ["proj-sweedler", "proj-sign-s3"])
def test_bosonisation_antipode_from_first_principles(pname):
    p = fixtures.builtin_raw(pname)
    boso = bosonisation(induced_braided_hopf(p).braided)
    assert convolution_antipode(boso) == boso.antipode


# -- the isomorphism ----------------------------------------------------------


@pytest.mark.parametrize("pname", ["proj-sweedler", "proj-sign-s3"])
def test_radford_iso_composites_are_identities(pname):
    p = fixtures.builtin_raw(pname)
    psi, phi, rep = radford_iso(p)
    assert rep.ok, rep.format_text()
    assert phi @ psi == LinMap.identity(p.big.space)
    assert psi @ phi == LinMap.identity(psi.cod)


def test_sweedler_iso_matrix(proj_sweedler):
    psi, _, _ = radford_iso(proj_sweedler)
    assert psi.cod.labels == ("1⊗1", "1⊗g", "x⊗1", "x⊗g")
    assert psi.to_rows() == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)]]


def test_sign_iso_is_exact_group_correspondence(proj_sign_s3):
    psi, phi, rep = radford_iso(proj_sign_s3)
    assert rep.ok
    assert psi.dom.dim == 6 and psi.cod.dim == 6
    # every matrix entry is 0 or +-1: the iso shuffles group-likes
    assert all(v in (Fraction(1), Fraction(-1)) for _, _, v in psi.items())
