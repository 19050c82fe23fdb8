"""The index-array path of ``composite_map`` against the sparse evaluator.

A pipeline whose maps are all monomial (each column zero or one +-1) runs
on numpy index arrays; every other runs column by column on sparse
vectors.  Switching the array path off by monkeypatching must leave every
report, and every witness of a failing one, byte-identical.  The last
test bounds the work: on a linearized nerve no all-monomial stage list
may reach the per-column evaluator.
"""

import pytest

from hopfforge import cli, fixtures, hopf, io, linalg, radford, simplicial, yd
from hopfforge.linalg import LinMap
from hopfforge.simplicial import dim2_pipeline, verify_simplicial

COMMANDS = ["check-hopf", "simplicial-check", "pipeline", "peiffer",
            "extract-xmod"]
SMALL = [n for n in fixtures.BUILTIN_NAMES if not fixtures.builtin_is_large(n)]


def _answers(capsys) -> dict:
    out = {}
    for cmd in COMMANDS:
        for name in SMALL:
            argv = [cmd, "--builtin", name, "--json"]
            if fixtures.builtin_kind(name) == "simplicial":
                argv += ["--level", "1"]
            code = cli.main(argv)
            out[cmd, name] = code, capsys.readouterr().out
    return out


def test_cli_json_is_the_same_on_sparse_vectors(capsys, monkeypatch):
    arrays = _answers(capsys)
    monkeypatch.setattr(linalg, "_monomial_composite", lambda *args: None)
    assert _answers(capsys) == arrays
    assert sum(code == 0 for code, _ in arrays.values()) >= 10


def _swap_columns(rows, a, b):
    for row in rows:
        row[a], row[b] = row[b], row[a]


def _negate_column(rows, a):
    for row in rows:
        row[a] = -row[a]


@pytest.mark.parametrize("mutate", [lambda rows: _swap_columns(rows, 0, 5),
                                    lambda rows: _negate_column(rows, 3)],
                         ids=["targets-swapped", "sign-flipped"])
def test_mutated_face_fails_with_the_same_witness(mutate, monkeypatch):
    doc = io.serialize(fixtures.builtin_raw("nerve-c2-id"))
    mutate(doc["faces"][2][1])
    t = io.parse_definition(doc)
    assert t.faces[2][1].lin.monomial() is not None
    arrays = verify_simplicial(t)
    monkeypatch.setattr(linalg, "_monomial_composite", lambda *args: None)
    sparse = verify_simplicial(io.parse_definition(doc))
    assert not arrays.ok
    assert arrays.failed()[0] == sparse.failed()[0]
    assert arrays.to_dict("v") == sparse.to_dict("v")


def _is_monomial(m: LinMap) -> bool:
    """Independent of LinMap.monomial: every entry +-1, one per column."""
    entries = list(m.items())
    return (all(v in (1, -1) for _, _, v in entries)
            and len({j for _, j, _ in entries}) == len(entries))


def test_monomial_pipelines_skip_the_column_loop(nerve_c2_id, monkeypatch):
    real = linalg.composite_map
    inside = []         # per open composite_map call: are its maps monomial?
    monomial_calls = []
    columns = []

    def watching(dom, cod, stages):
        maps = [m for s in stages for m in ([s] if isinstance(s, LinMap)
                                            else s) if isinstance(m, LinMap)]
        inside.append(all(map(_is_monomial, maps)))
        monomial_calls.append(inside[-1])
        try:
            return real(dom, cod, stages)
        finally:
            inside.pop()

    def counting(fn):
        def wrapped(*args):
            if inside and inside[-1]:
                columns.append(fn.__name__)
            return fn(*args)
        return wrapped

    for mod in (linalg, hopf, radford, yd, simplicial):
        monkeypatch.setattr(mod, "composite_map", watching)
    monkeypatch.setattr(LinMap, "apply", counting(LinMap.apply))
    monkeypatch.setattr(linalg, "_apply_tensor_stage",
                        counting(linalg._apply_tensor_stage))
    verify_simplicial(nerve_c2_id)
    dim2_pipeline(nerve_c2_id)
    assert sum(monomial_calls) > 100
    assert columns == []
