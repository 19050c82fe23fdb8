"""The array engine of ``composite_map`` against the sparse reference.

Every pipeline runs on index arrays; ``sparse_reference`` evaluates the
same pipelines column by column on sparse vectors.  Putting the
reference in place of ``composite_map`` must leave every report, and
every witness of a failing one, byte-identical.  Three tests bound the
work on a linearized nerve: no pipeline of monomial maps (each column
zero or one +-1) reaches the ``_pack`` normaliser, few entries are read
back from the arrays as Python dicts, and the laws of each face and
degeneracy are evaluated once.  The last sends a pipeline whose index
range passes int64 through both engines.
"""

import numpy as np
import pytest

import sparse_reference
from hopfforge import (cli, fixtures, hopf, io, linalg, radford, simplicial,
                       yd)
from hopfforge.linalg import SCALAR, LinMap, Space, tensor_space
from hopfforge.simplicial import dim2_pipeline, verify_simplicial

COMMANDS = ["check-hopf", "simplicial-check", "pipeline", "peiffer",
            "extract-xmod"]
SMALL = [n for n in fixtures.BUILTIN_NAMES if not fixtures.builtin_is_large(n)]
CLIENTS = (linalg, hopf, radford, yd, simplicial, cli)


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


def _use_reference(monkeypatch):
    for mod in CLIENTS:
        monkeypatch.setattr(mod, "composite_map",
                            sparse_reference.composite_map)


def test_cli_json_is_the_same_on_sparse_vectors(capsys, monkeypatch):
    arrays = _answers(capsys)
    _use_reference(monkeypatch)
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
    face = t.faces[2][1].lin
    assert face.coeffs.dtype == np.int8 and face.coeffs.shape[1] == 1
    arrays = verify_simplicial(t)
    _use_reference(monkeypatch)
    sparse = verify_simplicial(io.parse_definition(doc))
    assert not arrays.ok
    assert arrays.failed()[0] == sparse.failed()[0]
    assert arrays.to_dict("v") == sparse.to_dict("v")


def _is_monomial(m: LinMap) -> bool:
    """Independent of the storage: every entry +-1, one per column."""
    entries = list(m.items())
    return (all(v in (1, -1) for _, _, v in entries)
            and len({j for _, j, _ in entries}) == len(entries))


def test_monomial_pipelines_skip_the_column_loop(nerve_c2_id, monkeypatch):
    """A pipeline of monomial maps carries one term per column throughout,
    so it never sums terms through ``_pack``."""
    real, pack = linalg.composite_map, linalg._pack
    inside = []         # per open composite_map call: are its maps monomial?
    monomial_calls = []
    packed = []

    def watching(dom, cod, stages):
        maps = [m for s in stages for m in ([s] if isinstance(s, LinMap)
                                            else s) if isinstance(m, LinMap)]
        inside.append(all(map(_is_monomial, maps)))
        monomial_calls.append(inside[-1])
        try:
            return real(dom, cod, stages)
        finally:
            inside.pop()

    def counted_pack(*args):
        if inside and inside[-1]:
            packed.append(args[0])
        return pack(*args)

    for mod in CLIENTS:
        monkeypatch.setattr(mod, "composite_map", watching)
    monkeypatch.setattr(linalg, "_pack", counted_pack)
    verify_simplicial(nerve_c2_id)
    dim2_pipeline(nerve_c2_id)
    assert sum(monomial_calls) > 100
    assert packed == []


def test_few_entries_are_read_back_from_arrays(monkeypatch):
    """Maps are read as Python dicts only where a column or all entries
    are asked for; on a fresh nerve-c2-id, verify_simplicial and
    dim2_pipeline read back 26 entries through column and items (the
    column dicts of monomial results alone once numbered 5,206)."""
    nerve = simplicial.linearize(fixtures.group_nerve("nerve-c2-id"))
    read = []
    column, items = LinMap.column, LinMap.items

    def counted_column(self, j):
        col = column(self, j)
        read.extend(col)
        return col

    def counted_items(self):
        out = list(items(self))
        read.extend(out)
        return iter(out)

    monkeypatch.setattr(LinMap, "column", counted_column)
    monkeypatch.setattr(LinMap, "items", counted_items)
    assert verify_simplicial(nerve).ok
    assert dim2_pipeline(nerve).report.ok
    assert 0 < len(read) <= 60, len(read)


def test_each_face_and_degeneracy_is_checked_once(monkeypatch):
    """On a fresh nerve-c2-id, verify_simplicial evaluates the five squares
    of each of the 15 faces and degeneracies once, and the three split
    pairs that dim2_pipeline cuts from them reuse those laws: 15
    evaluations and 312 composites, where checking each leg of each pair
    again made 21 and 360."""
    nerve = simplicial.linearize(fixtures.group_nerve("nerve-c2-id"))
    evaluated, composites = [], []
    check, compose = hopf.check_morphism, linalg.composite_map

    def counted_check(m):
        evaluated.append(m.name)
        return check(m)

    def counted_compose(*args):
        composites.append(args)
        return compose(*args)

    monkeypatch.setattr(hopf, "check_morphism", counted_check)
    for mod in CLIENTS:
        monkeypatch.setattr(mod, "composite_map", counted_compose)
    assert verify_simplicial(nerve).ok
    assert dim2_pipeline(nerve).report.ok
    maps = [m.name for ms in nerve.faces + nerve.degens for m in ms]
    assert sorted(evaluated) == sorted(maps)
    assert len(composites) <= 312, len(composites)


@pytest.mark.parametrize(
    "back_to_scalar, at_once",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["stops-at-2^64", "returns-to-scalar",
         "kronecker-start-stops-at-2^64", "kronecker-start-returns-to-scalar"])
def test_index_range_past_int64_runs_on_sparse_vectors(back_to_scalar,
                                                        at_once):
    """Eight units SCALAR -> V with dim V = 256 make the width 2^64, past
    int64, one a stage or all in the first stage, which the engine builds
    as a Kronecker product; optionally eight counit stages map back.  The
    engine holds such indices as Python ints and gives the exact map, as
    the sparse reference does."""
    v = Space([f"v{i}" for i in range(256)])
    up = LinMap.from_entries(SCALAR, v, {(255, 0): -1})
    down = LinMap.from_entries(v, SCALAR, {(0, 255): -1})
    stages = [[up] * 8] if at_once else [[v] * k + [up] for k in range(8)]
    cod = tensor_space(*[v] * 8)
    want = {0: {2 ** 64 - 1: 1}}           # e_255 in every factor
    if back_to_scalar:
        stages += [[v] * k + [down] for k in range(7, -1, -1)]
        cod, want = SCALAR, {0: {0: 1}}
    got = linalg.composite_map(SCALAR, cod, stages)
    assert got == LinMap(SCALAR, cod, want)
    assert list(got.items()) == [(r, 0, 1) for r in want[0]]
    assert got.targets.dtype == (np.int64 if back_to_scalar else object)
    assert got.coeffs.dtype == np.int8
    assert sparse_reference.composite_map(SCALAR, cod, stages) == got
