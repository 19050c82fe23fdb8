"""Yetter-Drinfeld modules: axioms, braiding, hexagons, interchange.

The quantum-line matrices are frozen from the one-line hand computation
R(x (x) x) = g |> x (x) x = -x (x) x; the interchange counterexample at the
bottom pins down a genuine limit of pushing modules along projections.
"""

from fractions import Fraction

import pytest

from hopfforge import fixtures, yd
from hopfforge.errors import (CompatibilityFailed, NestingError,
                              NonInvertibleBraiding)
from hopfforge.hopf import HopfAlgebra, adjoint_action, group_algebra
from hopfforge.linalg import LinMap, flip, tensor_space, try_inverse
from hopfforge.yd import (BraidedHopfAlgebra, YDModule, check_braided_hopf,
                          check_yd, projection_yd, self_yd_module,
                          smash_product, trivial_yd, yd_braiding,
                          yd_pushforward, yd_tensor)


def _fixture_modules(sweedler, ks3, proj_sweedler, proj_sign_s3, quantum_line):
    return {
        "self-sweedler": self_yd_module(sweedler),
        "self-ks3": self_yd_module(ks3),
        "trivial-sweedler": trivial_yd(sweedler),
        "proj-sweedler": projection_yd(proj_sweedler),
        "proj-sign-s3": projection_yd(proj_sign_s3),
        "quantum-line": quantum_line.braided.carrier,
    }


@pytest.fixture(scope="module")
def modules(sweedler, ks3, proj_sweedler, proj_sign_s3, quantum_line):
    return _fixture_modules(sweedler, ks3, proj_sweedler, proj_sign_s3,
                            quantum_line)


# -- the axiom suite ------------------------------------------------------


def test_every_fixture_is_yetter_drinfeld(modules):
    for name, v in modules.items():
        rep = check_yd(v)
        assert rep.ok, f"{name}:\n{rep.format_text()}"


def test_self_module_is_adjoint_with_comul(sweedler):
    v = self_yd_module(sweedler)
    assert v.action == adjoint_action(sweedler)
    assert v.coaction == sweedler.comul


def test_braiding_invertible_everywhere(modules):
    mods = list(modules.values())
    for v in mods:
        for w in mods:
            if v.over is not w.over:
                continue
            r = yd_braiding(v, w, require_invertible=False)
            assert try_inverse(r) is not None


def test_tensor_of_modules_is_yetter_drinfeld(modules):
    # the quantum line lives over kC2, the self module over H4
    v = modules["quantum-line"]
    assert check_yd(yd_tensor(v, v)).ok
    w = modules["self-sweedler"]
    assert check_yd(yd_tensor(w, modules["trivial-sweedler"])).ok


# -- the quantum line -----------------------------------------------------


def test_quantum_line_braiding_matrix(quantum_line):
    v = quantum_line.braided.carrier
    r = yd_braiding(v, v)
    assert r.dom.labels == ("1⊗1", "1⊗x", "x⊗1", "x⊗x")
    assert r.to_rows() == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)]]


def test_quantum_line_is_braided_hopf(quantum_line):
    rep = check_braided_hopf(quantum_line.braided)
    assert rep.ok, rep.format_text()


def test_braided_self_braiding_is_yd_braiding(quantum_line):
    a = quantum_line.braided
    assert isinstance(a, HopfAlgebra)
    assert a.self_braiding() == yd_braiding(a.carrier, a.carrier)
    assert a.self_braiding() != flip(a.space, a.space)


def test_check_braided_hopf_builds_rprime_once(proj_sign_s3, monkeypatch):
    from hopfforge.radford import induced_braided_hopf
    a = induced_braided_hopf(proj_sign_s3).braided
    calls = []
    real = yd.yd_braiding

    def counting(v, w, **kw):
        calls.append(v.name)
        return real(v, w, **kw)

    monkeypatch.setattr(yd, "yd_braiding", counting)
    rep = check_braided_hopf(a)
    assert rep.ok, rep.format_text()
    assert len(calls) == 1


def test_singular_rprime_stops_check_braided_hopf(quantum_line):
    # a zero coaction makes R' = 0, which must end the check early
    a = quantum_line.braided
    c = a.carrier
    zero = LinMap(c.space, c.coaction.cod, {})
    carrier = YDModule(c.over, c.space, c.action, zero, name="zero-coaction")
    bad = BraidedHopfAlgebra(carrier, a.mul, a.unit, a.comul, a.counit,
                             a.antipode)
    rep = check_braided_hopf(bad)
    status = {ch.name: ch.status for ch in rep.checks}
    assert status["braiding-invertible"] == "fail"
    assert rep.checks[-1].name == "braiding-invertible"
    for _ in range(2):      # never kept, so every call raises
        with pytest.raises(NonInvertibleBraiding):
            bad.self_braiding()


def test_self_braiding_is_built_once(sweedler, quantum_line):
    for h in (sweedler, quantum_line.braided):
        assert h.self_braiding() is h.self_braiding()


def test_nesting_beyond_one_braided_level_refused(quantum_line):
    a = quantum_line.braided
    with pytest.raises(NestingError):
        check_yd(trivial_yd(a))
    with pytest.raises(NestingError):
        BraidedHopfAlgebra(self_yd_module(a), a.mul, a.unit, a.comul,
                           a.counit, a.antipode)


def test_quantum_line_braided_antipode(quantum_line):
    # S(1) = 1, S(x) = -x
    a = quantum_line.braided
    assert a.antipode.to_rows() == [[Fraction(1), Fraction(0)],
                                    [Fraction(0), Fraction(-1)]]


# -- hexagons -------------------------------------------------------------


def _hexagons_hold(u, v, w):
    ruv = yd_braiding(u, v)
    ruw = yd_braiding(u, w)
    rvw = yd_braiding(v, w)
    r_u_vw = yd_braiding(u, yd_tensor(v, w))
    r_uv_w = yd_braiding(yd_tensor(u, v), w)
    idu = LinMap.identity(u.space)
    idv = LinMap.identity(v.space)
    idw = LinMap.identity(w.space)
    hex1 = idv.tensor(ruw) @ ruv.tensor(idw)
    hex2 = ruw.tensor(idv) @ idu.tensor(rvw)
    return (r_u_vw.to_rows() == hex1.to_rows()
            and r_uv_w.to_rows() == hex2.to_rows())


def test_hexagons_on_all_fixture_triples(modules):
    sweedler_mods = [v for v in modules.values()
                     if v.over.name == modules["quantum-line"].over.name]
    for u in sweedler_mods:
        for v in sweedler_mods:
            for w in sweedler_mods:
                assert _hexagons_hold(u, v, w)


def test_hexagons_over_ks3(modules):
    v = modules["self-ks3"]
    assert _hexagons_hold(v, v, v)


# -- interchange along a projection ---------------------------------------


@pytest.mark.parametrize("pname", ["proj-sweedler", "proj-sign-s3"])
def test_pushforward_of_kernel_carrier_is_yetter_drinfeld(pname):
    from hopfforge.radford import induced_braided_hopf
    p = fixtures.builtin_raw(pname)
    carrier = induced_braided_hopf(p).braided.carrier
    pushed = yd_pushforward(p, carrier)
    assert pushed.over is p.big
    assert check_yd(pushed).ok
    # braiding matrix preserved entrywise
    assert yd_braiding(pushed, pushed) == yd_braiding(carrier, carrier)


@pytest.mark.parametrize("pname", ["proj-sweedler", "proj-sign-s3"])
def test_pushforward_of_trivial_module(pname):
    p = fixtures.builtin_raw(pname)
    pushed = yd_pushforward(p, trivial_yd(p.small))
    assert check_yd(pushed).ok


def test_pushforward_is_not_a_functor_on_everything(proj_sign_s3):
    """Pushing the adjoint module on the whole big algebra breaks
    compatibility: the two coaction legs land in iq(w)-conjugates that
    only agree when the big algebra is commutative."""
    p = proj_sign_s3
    pushed = yd_pushforward(p, projection_yd(p))
    rep = check_yd(pushed)
    assert not rep.ok
    fails = rep.failed()
    assert [c.name for c in fails] == ["yd-compatibility"]
    wit = fails[0].witness
    assert wit["row"] == "(123)⊗(12)" and wit["col"] == "(13)⊗(12)"


# -- degenerate input -----------------------------------------------------


def test_zero_action_braiding_not_invertible(sweedler):
    junk = YDModule(sweedler, sweedler.space,
                    LinMap.zero(self_yd_module(sweedler).action.dom,
                                sweedler.space),
                    sweedler.comul, name="junk")
    with pytest.raises(NonInvertibleBraiding):
        yd_braiding(junk, junk)
    assert yd_braiding(junk, junk, require_invertible=False).is_zero()


def test_smash_product_names_the_failing_module_law(kc2):
    # the zero action satisfies the module law but sends the unit to 0
    zero = LinMap.zero(tensor_space(kc2.space, kc2.space), kc2.space)
    with pytest.raises(CompatibilityFailed,
                       match=r"module-unit fails at row '1', col '1'"):
        smash_product(kc2, kc2, zero)
