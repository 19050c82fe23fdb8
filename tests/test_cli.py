"""The command line: exit codes, report text, canonical JSON output.

Exit convention: 0 all checks pass, 1 a mathematical check fails,
2 usage/parse/schema trouble, 3 an internal invariant broke.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import singular_antipode_doc
from hopfforge import __version__, cli, fixtures, io
from hopfforge.errors import NestingError


DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"

#: (id: C2 -> C2, trivial action), a valid crossed module document
C2_CROSSED_MODULE = {"M": {"builtin": "c2"}, "N": {"builtin": "c2"},
                     "boundary": [0, 1], "action": [[0, 1], [0, 1]]}


@pytest.fixture()
def corrupted_path(tmp_path):
    doc = io.serialize(fixtures.corrupted_c2())
    f = tmp_path / "corrupted.json"
    f.write_text(io.dump_json(doc))
    return str(f)


# -- the three canonical invocations ---------------------------------------


def test_check_hopf_sweedler_all_axioms_pass(capsys):
    assert cli.main(["check-hopf", "--builtin", "sweedler"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 13
    assert "FAIL" not in out


def test_extract_xmod_json_dims(capsys):
    code = cli.main(["extract-xmod", "--builtin", "nerve-c2-id", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 0
    assert doc["derived"]["dims"] == {"A100": 2, "A200": 2, "A221": 1}
    status = {c["name"]: c["status"] for c in doc["checks"]}
    assert status["twisted-coproduct-law"] == "pass"
    assert status["action-equivariance"] == "pass"
    assert status["peiffer-braided-adjoint"] == "pass"


def test_corrupted_input_fails_associativity(capsys, corrupted_path):
    assert cli.main(["check-hopf", "--input", corrupted_path]) == 1
    out = capsys.readouterr().out
    assert "FAIL associativity" in out
    assert "1⊗1⊗g" in out


# -- canonical JSON -----------------------------------------------------------


def test_json_output_byte_identical_across_runs(capsys):
    argv = ["check-hopf", "--builtin", "sweedler", "--json"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["version"] == __version__
    assert doc["exit_code"] == 0


def test_json_failure_report_carries_witness(capsys, corrupted_path):
    assert cli.main(["check-hopf", "--input", corrupted_path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 1
    assoc = next(c for c in doc["checks"] if c["name"] == "associativity")
    assert assoc["status"] == "fail"
    assert assoc["witness"]["col"] == "1⊗1⊗g"


# -- exit code 2: usage, parsing, schema ---------------------------------------


@pytest.mark.parametrize("argv", [
    ["check-hopf"],                                     # no input chosen
    ["check-hopf", "--builtin", "atlantis"],            # unknown builtin
    ["check-hopf", "--input", "/nonexistent.json"],     # missing file
    ["rker", "--builtin", "sweedler"],                  # not a projection
    ["check-yd", "--builtin", "nerve-c2-id"],           # needs --level
    ["pipeline", "--builtin", "nerve-s3-id"],           # needs --allow-large
    ["rker", "--builtin", "nerve-c2-id", "--level", "9"],
    ["moore-oracle", "--builtin", "nerve-s3-id"],       # needs --allow-large
    ["linearize", "--builtin", "s3", "--json"],         # matrix too large
    ["simplicial-check", "--input", '{"builtin": "nerve-s3-id"}'],
    ["check-hopf", "--builtin", "proj-sweedler"],       # not a Hopf algebra
    ["pipeline", "--builtin", "c2"],                    # not simplicial
    ["nerve", "--builtin", "sweedler"],                 # not a crossed module
    ["linearize", "--builtin", "sweedler"],
    ["check-yd", "--input", json.dumps(C2_CROSSED_MODULE)],
])
def test_usage_errors_exit_two(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.strip() != ""


def test_bad_json_text_exits_two(tmp_path, capsys):
    doc = io.serialize(fixtures.builtin_raw("sweedler"))
    doc["mul"][0][0] = 0.5
    f = tmp_path / "junk.json"
    f.write_text(json.dumps(doc))
    assert cli.main(["check-hopf", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert "inexact" in err and "$.mul[0][0]" in err


def _drop_level1_face(doc):
    doc["faces"][1] = doc["faces"][1][:1]


def _top_degeneracy(doc):
    doc["degeneracies"][-1] = [doc["degeneracies"][-2][0]]


def _level0_face(doc):
    doc["faces"][0] = [doc["faces"][1][0]]


@pytest.mark.parametrize("mutate, path", [
    (_drop_level1_face, "$.faces[1]"),
    (_top_degeneracy, "$.degeneracies[3]"),
    (_level0_face, "$.faces[0]"),
])
def test_wrong_simplicial_arity_exits_two(capsys, mutate, path):
    doc = io.serialize(fixtures.builtin_raw("nerve-c2-trivial"))
    mutate(doc)
    argv = ["simplicial-check", "--input", io.dump_json(doc)]
    assert cli.main(argv) == 2
    assert path in capsys.readouterr().err


def test_huge_yd_module_dim_exits_two(capsys):
    doc = {"over": {"builtin": "c2"}, "dim": 2 ** 40,
           "action": [], "coaction": []}
    assert cli.main(["check-yd", "--input", json.dumps(doc)]) == 2
    assert "HOPFFORGE_MAX_DIM" in capsys.readouterr().err


def _dense_hopf_doc(n: int, seed: int) -> dict:
    """A dim-n hopf document whose mul and comul have every entry drawn
    from {1, 2, -1, 3}, with identity antipode, unit e0 and counit all
    ones: 12 KB of JSON at n = 12, but check-hopf's composites are dense."""
    rng = random.Random(seed)

    def dense(rows, cols):
        return [[rng.choice((1, 2, -1, 3)) for _ in range(cols)]
                for _ in range(rows)]

    return {"field": "Q", "dim": n, "basis": [f"b{i}" for i in range(n)],
            "mul": dense(n, n * n), "unit": [1] + [0] * (n - 1),
            "comul": dense(n * n, n), "counit": [1] * n,
            "antipode": [[int(i == j) for j in range(n)] for i in range(n)]}


#: the child's address-space limit, 3 GiB; below it the composites of
#: both documents used to exhaust memory and exit 3 with MemoryError
_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2 ** 30, 3 * 2 ** 30))
from hopfforge import cli
sys.exit(cli.main(["check-hopf", "--input", sys.argv[1], "--json"]))
"""


def test_dense_documents_exit_two_under_a_memory_limit(tmp_path):
    """composite_map refuses a stage past its term cap before allocating
    it.  Each document runs in its own child under the limit, both at
    once; each must exit 2, print nothing on stdout, within 120 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    children = []
    for n in (12, 16):
        f = tmp_path / f"dense{n}.json"
        f.write_text(json.dumps(_dense_hopf_doc(n, seed=n)))
        children.append(subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(f)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    try:
        for child in children:
            out, err = child.communicate(timeout=120)
            assert (child.returncode, out) == (2, ""), err
            assert "terms" in err
    finally:
        for child in children:
            child.kill()


def test_unknown_subcommand_exits_two(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


# -- exit code 1: mathematical failures ----------------------------------------


def test_invalid_group_table_exits_one(tmp_path, capsys):
    f = tmp_path / "notgroup.json"
    f.write_text(json.dumps({
        "order": 2, "elements": ["e", "a"], "table": [[0, 1], [1, 1]]}))
    assert cli.main(["check-hopf", "--input", str(f)]) == 1
    capsys.readouterr()


def test_bad_projection_document_exits_one(tmp_path, capsys):
    doc = io.serialize(fixtures.builtin_raw("proj-sweedler"))
    doc["incl"][1], doc["incl"][3] = doc["incl"][3], doc["incl"][1]
    f = tmp_path / "badproj.json"
    f.write_text(io.dump_json(doc))
    assert cli.main(["rker", "--input", str(f)]) == 1
    capsys.readouterr()


def test_singular_antipode_document_exits_one(tmp_path, capsys):
    f = tmp_path / "singular.json"
    f.write_text(io.dump_json(singular_antipode_doc()))
    assert cli.main(["check-hopf", "--input", str(f)]) == 1
    assert "antipode matrix is singular" in capsys.readouterr().err


def _d0_is_d1_at_level2(doc):
    doc["faces"][2][0] = doc["faces"][2][1]


def _level1_faces_swapped(doc):
    doc["faces"][1].reverse()


@pytest.mark.parametrize("mutate", [_d0_is_d1_at_level2,
                                    _level1_faces_swapped])
@pytest.mark.parametrize("cmd", ["pipeline", "peiffer", "extract-xmod",
                                 "check-restriction"])
def test_non_simplicial_tower_exits_one(capsys, mutate, cmd):
    # faces that break a simplicial identity push d2 out of A2(0,0): the
    # input fails a hypothesis of the tower, nothing inside broke
    doc = io.serialize(fixtures.builtin_raw("nerve-c2-id"))
    mutate(doc)
    assert cli.main([cmd, "--input", io.dump_json(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "d2 on A2(0,0)" in err and "simplicial-check" in err


# -- exit code 3: internal errors ----------------------------------------------


def test_internal_error_exits_three(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("wires crossed")
    monkeypatch.setitem(cli._COMMANDS, "check-hopf", (boom, "broken"))
    assert cli.main(["check-hopf", "--builtin", "c2"]) == 3
    assert "wires crossed" in capsys.readouterr().err


def test_unclassified_domain_error_exits_three(monkeypatch, capsys):
    def boom(args):
        raise NestingError("too deep")
    monkeypatch.setitem(cli._COMMANDS, "check-hopf", (boom, "broken"))
    assert cli.main(["check-hopf", "--builtin", "c2"]) == 3
    capsys.readouterr()


# -- coverage of the remaining subcommands --------------------------------------


@pytest.mark.parametrize("argv", [
    ["check-yd", "--builtin", "proj-sign-s3"],
    ["check-yd", "--builtin", "nerve-c2-id", "--level", "1"],
    ["rker", "--builtin", "proj-sweedler"],
    ["kernel-generators", "--builtin", "proj-sign-s3"],
    ["braided-hopf", "--builtin", "proj-sweedler"],
    ["bosonise", "--builtin", "proj-sign-s3"],
    ["radford-iso", "--builtin", "proj-sweedler"],
    ["pushforward", "--builtin", "proj-sign-s3"],
    ["simplicial-check", "--builtin", "nerve-c2-trivial"],
    ["nerve", "--builtin", "c2"],
    ["linearize", "--builtin", "nerve-c2-trivial"],
    ["pipeline", "--builtin", "nerve-c2-id"],
    ["peiffer", "--builtin", "nerve-c2-trivial"],
    ["moore-oracle", "--builtin", "nerve-c2-id"],
    ["check-restriction", "--builtin", "nerve-c2-id"],
])
def test_subcommands_pass_on_builtins(capsys, argv):
    assert cli.main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name", ["nerve-c2-id", "nerve-c2-trivial"])
def test_bare_input_reference_is_the_builtin(capsys, name):
    """--input '{"builtin": NAME}' answers exactly as --builtin NAME does."""
    assert cli.main(["moore-oracle", "--builtin", name, "--json"]) == 0
    by_flag = capsys.readouterr().out
    ref = json.dumps({"builtin": name})
    assert cli.main(["moore-oracle", "--input", ref, "--json"]) == 0
    assert capsys.readouterr().out == by_flag


def test_large_reference_refused_before_it_is_built(monkeypatch, capsys):
    def unbuilt(name):
        raise AssertionError(f"built {name} before refusing it")
    monkeypatch.setattr(fixtures, "builtin_raw", unbuilt)
    for argv in (["simplicial-check", "--builtin", "nerve-s3-id"],
                 ["simplicial-check", "--input", '{"builtin": "nerve-s3-id"}'],
                 ["moore-oracle", "--input", '{"builtin": "nerve-s3-id"}']):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: builtin 'nerve-s3-id' has dim-216 levels; "
            "pass --allow-large\n")


def test_linearize_reads_a_crossed_module_document(tmp_path, capsys):
    f = tmp_path / "c2-id.json"
    f.write_text(io.dump_json(io.serialize(fixtures.crossed_module("c2-id"))))
    assert cli.main(["linearize", "--input", str(f), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["derived"]["level_dims"] == \
        [2, 4, 8]


def test_inline_json_input(capsys):
    text = io.dump_json(io.serialize(fixtures.builtin_raw("c3")))
    assert cli.main(["check-hopf", "--input", text]) == 0
    capsys.readouterr()


def test_run_command_returns_report():
    rep = cli.run_command(["check-hopf", "--builtin", "c2"])
    assert rep.ok
    assert any(c.name == "associativity" for c in rep.checks)


def test_exit_codes_over_every_command_and_builtin(capsys):
    """Every command on every builtin that needs no --allow-large, with
    --level 1 on the simplicial ones: nothing exits 3, an exit 2 says why
    on stderr and prints nothing, and the calls that answer 0 are the
    builtin calls whose outputs the benchmark's reference digests hold."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["cli"]
    recorded = {tuple(key.split()[:3]) for key in digests
                if "--builtin" in key}
    answered = set()
    for cmd in cli._COMMANDS:
        for name in fixtures.BUILTIN_NAMES:
            if fixtures.builtin_is_large(name):
                continue
            argv = [cmd, "--builtin", name]
            if fixtures.builtin_kind(name) == "simplicial":
                argv += ["--level", "1"]
            code = cli.main(argv + ["--json"])
            out, err = capsys.readouterr()
            assert code != 3, (argv, err)
            if code == 2:
                assert out == "" and err.strip(), argv
            if code == 0:
                answered.add(tuple(argv[:3]))
    assert answered == recorded


@pytest.mark.parametrize("cmd", ["rker", "kernel-generators", "braided-hopf",
                                 "bosonise", "radford-iso", "pushforward"])
def test_projection_of_a_non_hopf_algebra_exits_one(capsys, cmd):
    """Both legs are Hopf morphisms, but the big multiplication is not
    associative, so Radford's identities fail: the input broke a
    hypothesis (exit 1), nothing inside did."""
    doc = io.serialize(fixtures.builtin_raw("proj-sweedler"))
    doc["big"]["mul"][2][13] = 2 ** 64
    assert cli.main([cmd, "--input", json.dumps(doc)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "breaks a Hopf axiom" in out.err
