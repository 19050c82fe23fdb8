"""The acceptance gate: twelve timed criteria over the whole toolkit.

Each test prints exactly one PASS/FAIL line (bypassing capture, so the
verdicts are visible in a normal pytest run) and enforces its runtime
bound.  All equalities are exact; there is no tolerance anywhere.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hopfforge import cli, fixtures, io
from hopfforge.hopf import (check_hopf, group_algebra, sweedler_algebra)
from hopfforge.linalg import LinMap, try_inverse
from hopfforge.radford import (bosonisation, induced_braided_hopf,
                               kernel_generators, radford_iso, rker)
from hopfforge.simplicial import (TruncatedSimplicialHopf,
                                  check_fg_commutation,
                                  constant_simplicial_hopf, dim2_pipeline,
                                  extract_xmod, moore_group_oracle,
                                  peiffer_pairing, verify_simplicial)
from hopfforge.yd import (check_yd, projection_yd, self_yd_module,
                          trivial_yd, yd_braiding, yd_pushforward, yd_tensor)

HOPF_FIXTURES = ("trivial", "c2", "c3", "s3")
PROJECTIONS = ("proj-sweedler", "proj-sign-s3")
NERVES = ("nerve-c2-id", "nerve-c2-trivial", "nerve-s3-id")


@contextmanager
def criterion(request, num, label, bound):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.perf_counter() - t0
        ok = not failed and dt <= bound
        line = (f"{'PASS' if ok else 'FAIL'} criterion {num:>2}: "
                f"{label}  [{dt:.2f}s, bound {bound:g}s]")
        cap = request.config.pluginmanager.getplugin("capturemanager")
        if cap is not None:
            with cap.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
    assert dt <= bound, f"{label} took {dt:.2f}s, bound {bound:g}s"


def test_01_axiom_suites(request):
    with criterion(request, 1, "axiom suites + corrupted witness", 1.0):
        for name in HOPF_FIXTURES:
            assert check_hopf(group_algebra(fixtures.builtin_raw(name))).ok
        assert check_hopf(sweedler_algebra()).ok
        rep = check_hopf(fixtures.corrupted_c2())
        assert not rep.ok
        bad = next(c for c in rep.failed() if c.name == "associativity")
        assert bad.witness is not None and bad.witness["row"] == "1"


def test_02_radford_on_sweedler(request):
    with criterion(request, 2, "Sweedler kernel, bosonisation, iso", 1.0):
        p = fixtures.builtin_raw("proj-sweedler")
        sub = rker(p.proj, "right")
        assert sub.dim == 2 and sub.space.labels == ("1", "x")
        res = induced_braided_hopf(p)
        col = res.braided.comul.column(1)
        labels = res.braided.comul.cod.labels
        assert {labels[i]: v for i, v in col.items()} == \
            {"1⊗x": Fraction(1), "x⊗1": Fraction(1)}
        boso = bosonisation(res.braided)
        assert check_hopf(boso).ok
        psi, phi, rep = radford_iso(p, res)
        assert rep.ok
        assert psi.dom.dim == 4
        assert phi @ psi == LinMap.identity(p.big.space)
        assert psi @ phi == LinMap.identity(boso.space)


def test_03_radford_on_groups(request):
    with criterion(request, 3, "sign projection kernel and iso", 2.0):
        p = fixtures.builtin_raw("proj-sign-s3")
        assert rker(p.proj, "right").dim == 3
        res = induced_braided_hopf(p)
        boso = bosonisation(res.braided)
        assert boso.dim == 6 and check_hopf(boso).ok
        psi, phi, rep = radford_iso(p, res)
        assert rep.ok
        assert phi @ psi == LinMap.identity(p.big.space)
        assert psi @ phi == LinMap.identity(boso.space)


def test_04_yd_suite(request):
    with criterion(request, 4, "YD axioms, braiding, hexagons", 5.0):
        mods = []
        for name in HOPF_FIXTURES:
            v = self_yd_module(group_algebra(fixtures.builtin_raw(name)))
            assert check_yd(v).ok
            mods.append(v)
        v = self_yd_module(sweedler_algebra())
        assert check_yd(v).ok
        mods.append(v)
        for pname in PROJECTIONS:
            w = projection_yd(fixtures.builtin_raw(pname))
            assert check_yd(w).ok
            mods.append(w)
        ql = induced_braided_hopf(
            fixtures.builtin_raw("proj-sweedler")).braided.carrier
        mods.append(ql)
        for m in mods:
            assert try_inverse(
                yd_braiding(m, m, require_invertible=False)) is not None
        r = yd_braiding(ql, ql)
        assert r.column(3)[3] == Fraction(-1)  # R(x(x)x) = -x(x)x
        # hexagons on every triple from each compatible family
        families = [[m for m in mods if m.over.space.labels ==
                     ("1", "g", "x", "gx")],
                    [m for m in mods if m.over.dim == 2]]
        for fam in families:
            for u in fam:
                for v in fam:
                    for w in fam:
                        ruv, ruw = yd_braiding(u, v), yd_braiding(u, w)
                        rvw = yd_braiding(v, w)
                        idu = LinMap.identity(u.space)
                        idv = LinMap.identity(v.space)
                        idw = LinMap.identity(w.space)
                        lhs1 = yd_braiding(u, yd_tensor(v, w))
                        rhs1 = idv.tensor(ruw) @ ruv.tensor(idw)
                        assert lhs1.to_rows() == rhs1.to_rows()
                        lhs2 = yd_braiding(yd_tensor(u, v), w)
                        rhs2 = ruw.tensor(idv) @ idu.tensor(rvw)
                        assert lhs2.to_rows() == rhs2.to_rows()


def test_05_interchange(request):
    with criterion(request, 5, "pushforward validity and braiding", 1.0):
        for pname in PROJECTIONS:
            p = fixtures.builtin_raw(pname)
            carrier = induced_braided_hopf(p).braided.carrier
            for mod in (carrier, trivial_yd(p.small)):
                pushed = yd_pushforward(p, mod)
                assert check_yd(pushed).ok
                assert yd_braiding(pushed, pushed) == yd_braiding(mod, mod)


def test_06_kernel_generator_identities(request):
    with criterion(request, 6, "generator identities f, g", 1.0):
        for pname in PROJECTIONS:
            p = fixtures.builtin_raw(pname)
            f, g = kernel_generators(p)
            h = p.big
            assert f @ f == f
            assert g @ f == g
            sub = rker(p.proj, "right")
            assert f @ sub.inclusion == sub.inclusion
            assert h.mul @ f.tensor(g) @ h.comul == h.unit @ h.counit
            ipar = p.incl.lin @ p.proj.lin
            assert h.mul @ f.tensor(ipar) @ h.comul == \
                LinMap.identity(h.space)


def test_07_simplicial_suite(request):
    with criterion(request, 7, "simplicial identities + mutation", 2.0):
        for name in ("nerve-c2-id", "nerve-c2-trivial"):
            assert verify_simplicial(fixtures.builtin_raw(name)).ok
        assert verify_simplicial(
            constant_simplicial_hopf(sweedler_algebra())).ok
        t = fixtures.builtin_raw("nerve-c2-id")
        faces = [list(f) for f in t.faces]
        faces[2] = [t.faces[2][2], t.faces[2][1], t.faces[2][0]]
        rep = verify_simplicial(TruncatedSimplicialHopf(
            t.levels, faces, t.degens, name="mutant"))
        assert not rep.ok
        assert rep.failed()[0].name.startswith("d0d1=d0d0")


def test_08_dim2_pipeline(request):
    with criterion(request, 8, "kernel tower and d1 obstruction", 10.0):
        pipe = dim2_pipeline(fixtures.builtin_raw("nerve-c2-id"))
        assert pipe.report.ok
        assert pipe.report.derived == {
            "dim_A100": 2, "dim_A200": 2, "dim_A221": 1}
        for prefix in ("d2/", "s1/"):
            checks = [c for c in pipe.report.checks
                      if c.name.startswith(prefix)]
            assert checks and all(c.status == "pass" for c in checks)
        rep = check_fg_commutation(fixtures.builtin_raw("nerve-s3-id"))
        d1 = next(c for c in rep.checks if c.name == "f-square-d1")
        assert d1.detail == "fails"
        assert d1.witness["col"] == "(e,((12),e))"  # a group-like element


def test_09_peiffer_pairing(request):
    with criterion(request, 9, "Peiffer composite vs closed form", 5.0):
        for name in ("nerve-c2-id", "nerve-c2-trivial"):
            pp = peiffer_pairing(fixtures.builtin_raw(name))
            assert pp.report.ok
            assert pp.composite == pp.closed_form
            status = {c.name: c.status for c in pp.report.checks}
            assert status["image-in-nested-kernel"] == "pass"
        # trivial tower: F(x (x) y) = eps(x) eps(y) 1
        pp = peiffer_pairing(fixtures.builtin_raw("nerve-c2-trivial"))
        assert pp.composite.to_rows() == [[Fraction(1)], [Fraction(0)]]


def test_10_extract_crossed_module(request):
    with criterion(request, 10, "braided crossed module laws", 10.0):
        for name in ("nerve-c2-id", "nerve-c2-trivial"):
            xmod, rep = extract_xmod(fixtures.builtin_raw(name))
            assert rep.ok
            status = {c.name: c.status for c in rep.checks}
            for law in ("twisted-coproduct-law", "action-equivariance",
                        "peiffer-braided-adjoint",
                        "braided-adjoint-collapses"):
                assert status[law] == "pass"


def test_11_moore_oracle(request):
    with criterion(request, 11, "group Moore complex round trip", 1.0):
        for name in NERVES:
            g = fixtures.group_nerve(name)
            x = fixtures.crossed_module(name.replace("nerve-", ""))
            rep = moore_group_oracle(g, x)
            assert rep.ok
            assert rep.derived["n2_order"] == 1
            assert rep.derived["n2prime_order"] == 1
            status = {c.name: c.status for c in rep.checks}
            for roundtrip in ("roundtrip-n1", "roundtrip-boundary",
                              "roundtrip-action"):
                assert status[roundtrip] == "pass"


def test_12_cli_examples(request, capsys, tmp_path):
    with criterion(request, 12, "CLI examples and canonical JSON", 30.0):
        assert cli.main(["check-hopf", "--builtin", "sweedler"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 13 and "FAIL" not in out

        assert cli.main(
            ["extract-xmod", "--builtin", "nerve-c2-id", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["derived"]["dims"]["A100"] == 2
        assert doc["derived"]["dims"]["A221"] == 1
        status = {c["name"]: c["status"] for c in doc["checks"]}
        for law in ("twisted-coproduct-law", "action-equivariance",
                    "peiffer-braided-adjoint"):
            assert status[law] == "pass"

        bad = tmp_path / "corrupted.json"
        bad.write_text(io.dump_json(io.serialize(fixtures.corrupted_c2())))
        assert cli.main(["check-hopf", "--input", str(bad)]) == 1
        assert "FAIL associativity" in capsys.readouterr().out

        argv = ["check-hopf", "--builtin", "sweedler", "--json"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first
