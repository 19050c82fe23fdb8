"""The index-array path of ``composite_map`` against the sparse evaluator.

A pipeline whose maps are all monomial (each column zero or one +-1) runs
on numpy index arrays; every other runs column by column on sparse
vectors.  Switching the array path off by monkeypatching must leave every
report, and every witness of a failing one, byte-identical.  One test
bounds the work: on a linearized nerve no all-monomial stage list may
reach the per-column evaluator, and few array results build column dicts.
The last sends a pipeline whose index
range passes int64 to the sparse evaluator.
"""

import pytest

from hopfforge import cli, fixtures, hopf, io, linalg, radford, simplicial, yd
from hopfforge.linalg import SCALAR, LinMap, Space, tensor_space
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
    monkeypatch.setattr(linalg, "_apply_tensor_stage",
                        counting(linalg._apply_tensor_stage))
    verify_simplicial(nerve_c2_id)
    dim2_pipeline(nerve_c2_id)
    assert sum(monomial_calls) > 100
    assert columns == []


def test_array_results_build_few_column_dicts(monkeypatch):
    """A map built from arrays makes its column dicts only when asked; on
    a fresh nerve-c2-id, verify_simplicial and dim2_pipeline ask for 132
    (built eagerly, it was 5,206)."""
    nerve = simplicial.linearize(fixtures.group_nerve("nerve-c2-id"))
    built = []
    lazy_cols, column = LinMap._cols, LinMap.column

    def counted_cols(self):
        if self._dict is None:
            built.extend(lazy_cols.fget(self))
        return lazy_cols.fget(self)

    def counted_column(self, j):
        col = column(self, j)
        if self._dict is None and col:
            built.append(j)
        return col

    monkeypatch.setattr(LinMap, "_cols", property(counted_cols))
    monkeypatch.setattr(LinMap, "column", counted_column)
    assert verify_simplicial(nerve).ok
    assert dim2_pipeline(nerve).report.ok
    assert 0 < len(built) <= 260, len(built)


@pytest.mark.parametrize("back_to_scalar", [False, True],
                         ids=["stops-at-2^64", "returns-to-scalar"])
def test_index_range_past_int64_runs_on_sparse_vectors(back_to_scalar):
    """Eight unit stages SCALAR -> V with dim V = 256 make the width 2^64,
    past the int64 index arrays; optionally eight counit stages map back.
    The array engine refuses and the sparse one gives the exact map."""
    v = Space([f"v{i}" for i in range(256)])
    up = LinMap.from_entries(SCALAR, v, {(255, 0): -1})
    down = LinMap.from_entries(v, SCALAR, {(0, 255): -1})
    stages = [[v] * k + [up] for k in range(8)]
    cod = tensor_space(*[v] * 8)
    want = {0: {2 ** 64 - 1: 1}}           # e_255 in every factor
    if back_to_scalar:
        stages += [[v] * k + [down] for k in range(7, -1, -1)]
        cod, want = SCALAR, {0: {0: 1}}
    prepared = [linalg._stage_parts(st) for st in stages]
    assert linalg._monomial_composite(SCALAR, cod, prepared) is None
    got = linalg.composite_map(SCALAR, cod, stages)
    assert got == LinMap(SCALAR, cod, want)
    assert list(got.items()) == [(r, 0, 1) for r in want[0]]
