"""JSON input/output for every object kind the command line handles.

Schemas (one document per object; scalars are ints or "p/q" strings;
matrices are row-major, column j = the image of the j-th domain basis
vector):

    hopf            {"field": "Q", "dim": n, "basis": [..n labels..],
                     "mul": [[n x n^2]], "unit": [..n..],
                     "comul": [[n^2 x n]], "counit": [..n..],
                     "antipode": [[n x n]]}
    group           {"order": n, "elements": [..n labels..],
                     "table": [[n x n indices]]}
    yd_module       {"over": <hopf>, "dim": n,
                     "action": [[n x (dim(H) n)]],
                     "coaction": [[(dim(H) n) x n]]}
    projection      {"big": <hopf>, "small": <hopf>,
                     "proj": [[small x big]], "incl": [[big x small]]}
    crossed_module  {"M": <group>, "N": <group>,
                     "boundary": [..|M| N-indices..],
                     "action": [[|N| x |M| M-indices]]}
    simplicial      {"levels": [<hopf>, ...],
                     "faces": [[], [d0, d1], [d0, d1, d2], ...],
                     "degeneracies": [[s0], [s0, s1], ..., []]}

Every <hopf> or <group> slot also accepts {"builtin": "<name>"}.  The
document kind is inferred from its keys; parse errors carry the JSON
path of the first offending value.
"""

import json
import re
import sys

from .errors import ParseError, SchemaError
from .linalg import LinMap, SCALAR, Space, rat, tensor_space
from .hopf import (GroupTable, HopfAlgebra, HopfMorphism, HopfProjection,
                   check_cap, group_algebra)
from .yd import BraidedHopfAlgebra, YDModule
from .simplicial import GroupCrossedModule, TruncatedSimplicialHopf


# -- scalars ------------------------------------------------------------


def parse_scalar(x, path: str):
    """int, or a string "p" or "p/q" of decimal digits with an optional sign
    -> scalar (``linalg.rat``); no point, exponent or whitespace, so that
    a short string cannot stand for a huge number."""
    if isinstance(x, bool):
        raise ParseError(f"{path}: expected a rational, got {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
            raise ParseError(f"{path}: bad rational {x!r}")
        try:
            return rat(x)
        except ZeroDivisionError:
            raise ParseError(f"{path}: bad rational {x!r} (zero denominator)")
        except ValueError:   # more digits than Python converts
            raise ParseError(f"{path}: bad rational {x!r}")
    if isinstance(x, float):
        raise ParseError(f"{path}: floats are inexact, write {x!r} as \"p/q\"")
    raise ParseError(f"{path}: expected a rational, got {type(x).__name__}")


def scalar_to_json(q, path: str):
    """q as an int or a "p/q" string; SchemaError when a part has more
    digits than Python converts, as no document holding it reads back."""
    try:
        parts = str(q.numerator), str(q.denominator)
    except ValueError:
        raise SchemaError(f"{path}: an entry of more than "
                          f"{sys.get_int_max_str_digits()} digits cannot be "
                          f"read back from JSON")
    return q.numerator if q.denominator == 1 else "/".join(parts)


# -- low-level document access ------------------------------------------


def _field(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return doc[key]


def _int_field(doc: dict, key: str, path: str) -> int:
    v = _field(doc, key, path)
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise SchemaError(f"{path}.{key}: expected a positive integer, got {v!r}")
    return v


def _label_list(doc: dict, key: str, n: int, path: str) -> list:
    v = _field(doc, key, path)
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(f"{path}.{key}: expected a list of {n} labels")
    return [str(s) for s in v]


def _matrix_rows(rows, dom: Space, cod: Space, path: str) -> LinMap:
    if not isinstance(rows, list) or len(rows) != cod.dim:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise SchemaError(f"{path}: expected {cod.dim} rows, got {got}")
    cols: dict = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dom.dim:
            raise SchemaError(
                f"{path}[{i}]: expected a row of {dom.dim} entries")
        for j, x in enumerate(row):
            cols.setdefault(j, {})[i] = parse_scalar(x, f"{path}[{i}][{j}]")
    return LinMap(dom, cod, cols)


def _matrix(doc: dict, key: str, dom: Space, cod: Space, path: str) -> LinMap:
    return _matrix_rows(_field(doc, key, path), dom, cod, f"{path}.{key}")


def _vector(doc: dict, key: str, dom: Space, cod: Space, path: str) -> LinMap:
    """A flat list read as the single column (dom=SCALAR) or row (cod=SCALAR)."""
    flat = _field(doc, key, path)
    n = cod.dim if dom.dim == 1 else dom.dim
    if not isinstance(flat, list) or len(flat) != n:
        raise SchemaError(f"{path}.{key}: expected a list of {n} entries")
    entries = {}
    for k, x in enumerate(flat):
        entries[(k, 0) if dom.dim == 1 else (0, k)] = parse_scalar(
            x, f"{path}.{key}[{k}]")
    return LinMap.from_entries(dom, cod, entries)


def _index_list(v, n: int, bound: int, path: str) -> list:
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(f"{path}: expected a list of {n} indices")
    out = []
    for k, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < bound:
            raise SchemaError(
                f"{path}[{k}]: expected an index in 0..{bound - 1}, got {x!r}")
        out.append(x)
    return out


# -- builders -----------------------------------------------------------


def hopf_from_json(doc: dict, path: str = "$", name: str = "H") -> HopfAlgebra:
    field_name = _field(doc, "field", path)
    if field_name != "Q":
        raise SchemaError(f"{path}.field: only \"Q\" is supported, got {field_name!r}")
    n = _int_field(doc, "dim", path)
    labels = _label_list(doc, "basis", n, path)
    try:
        space = Space(labels)
    except ValueError as e:
        raise SchemaError(f"{path}.basis: {e}")
    sq = tensor_space(space, space)
    return HopfAlgebra(
        space,
        _matrix(doc, "mul", sq, space, path),
        _vector(doc, "unit", SCALAR, space, path),
        _matrix(doc, "comul", space, sq, path),
        _vector(doc, "counit", space, SCALAR, path),
        _matrix(doc, "antipode", space, space, path),
        name=name)


def group_from_json(doc: dict, path: str = "$", name: str = "G") -> GroupTable:
    n = _int_field(doc, "order", path)
    labels = _label_list(doc, "elements", n, path)
    table = _field(doc, "table", path)
    if not isinstance(table, list) or len(table) != n:
        raise SchemaError(f"{path}.table: expected {n} rows")
    for i, r in enumerate(table):
        _index_list(r, n, n, f"{path}.table[{i}]")
    return GroupTable(labels, table, name=name)


def _hopf_ref(doc, path: str, name: str = "H") -> HopfAlgebra:
    if isinstance(doc, dict) and "builtin" in doc:
        obj = _builtin(doc["builtin"], path)
        if isinstance(obj, GroupTable):
            return group_algebra(obj)
        if not isinstance(obj, HopfAlgebra):
            raise SchemaError(
                f"{path}.builtin: {doc['builtin']!r} is not a Hopf algebra")
        return obj
    return hopf_from_json(doc, path, name=name)


def _group_ref(doc, path: str, name: str = "G") -> GroupTable:
    if isinstance(doc, dict) and "builtin" in doc:
        obj = _builtin(doc["builtin"], path)
        if not isinstance(obj, GroupTable):
            raise SchemaError(
                f"{path}.builtin: {doc['builtin']!r} is not a group")
        return obj
    return group_from_json(doc, path, name=name)


def _builtin(name, path: str):
    from . import fixtures
    if not isinstance(name, str):
        raise SchemaError(f"{path}.builtin: expected a fixture name string")
    return fixtures.builtin_raw(name)


def yd_from_json(doc: dict, path: str = "$") -> YDModule:
    over = _hopf_ref(_field(doc, "over", path), f"{path}.over")
    n = _int_field(doc, "dim", path)
    check_cap(n, f"{path}.dim")
    space = Space([f"v{k}" for k in range(n)])
    hv = tensor_space(over.space, space)
    return YDModule(over, space,
                    _matrix(doc, "action", hv, space, path),
                    _matrix(doc, "coaction", space, hv, path),
                    name="V")


def projection_from_json(doc: dict, path: str = "$") -> HopfProjection:
    big = _hopf_ref(_field(doc, "big", path), f"{path}.big", name="I")
    small = _hopf_ref(_field(doc, "small", path), f"{path}.small", name="H")
    return HopfProjection(
        big, small,
        _matrix(doc, "proj", big.space, small.space, path),
        _matrix(doc, "incl", small.space, big.space, path),
        name="p")


def crossed_module_from_json(doc: dict, path: str = "$") -> GroupCrossedModule:
    m = _group_ref(_field(doc, "M", path), f"{path}.M", name="M")
    n = _group_ref(_field(doc, "N", path), f"{path}.N", name="N")
    boundary = _index_list(_field(doc, "boundary", path), m.order, n.order,
                           f"{path}.boundary")
    action = _field(doc, "action", path)
    if not isinstance(action, list) or len(action) != n.order:
        raise SchemaError(f"{path}.action: expected {n.order} rows")
    act = [_index_list(r, m.order, m.order, f"{path}.action[{j}]")
           for j, r in enumerate(action)]
    return GroupCrossedModule(m, n, boundary, act, name="X")


def simplicial_from_json(doc: dict, path: str = "$") -> TruncatedSimplicialHopf:
    levels_doc = _field(doc, "levels", path)
    if not isinstance(levels_doc, list) or len(levels_doc) < 2:
        raise SchemaError(f"{path}.levels: expected at least two levels")
    levels = [_hopf_ref(ld, f"{path}.levels[{k}]", name=f"H{k}")
              for k, ld in enumerate(levels_doc)]
    depth = len(levels) - 1
    maps = []   # [faces, degeneracies]
    for key, sym, step in (("faces", "d", -1), ("degeneracies", "s", 1)):
        rows = _field(doc, key, path)
        if not isinstance(rows, list) or len(rows) != depth + 1:
            raise SchemaError(
                f"{path}.{key}: expected one (possibly empty) list per level")
        maps.append([])
        for n, mats in enumerate(rows):
            arity = n + 1 if 0 <= n + step <= depth else 0
            if not isinstance(mats, list) or len(mats) != arity:
                raise SchemaError(f"{path}.{key}[{n}]: expected a list of "
                                  f"{arity} matrices")
            row = []
            for i, mat in enumerate(mats):
                src, dst = levels[n], levels[n + step]
                lin = _matrix_rows(mat, src.space, dst.space,
                                   f"{path}.{key}[{n}][{i}]")
                row.append(HopfMorphism(src, dst, lin, name=f"{sym}{i}@{n}"))
            maps[-1].append(row)
    return TruncatedSimplicialHopf(levels, *maps, name="H")


# -- serializers --------------------------------------------------------


def linmap_to_json(m: LinMap, path: str) -> list:
    return [[scalar_to_json(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(m.to_rows())]


def _flat_to_json(m: LinMap, path: str) -> list:
    """A map from or to SCALAR as one list (its matrix has one row or one
    column)."""
    flat = [v for row in m.to_rows() for v in row]
    return [scalar_to_json(v, f"{path}[{k}]") for k, v in enumerate(flat)]


def hopf_to_json(h: HopfAlgebra, path: str = "$") -> dict:
    return {
        "field": "Q",
        "dim": h.dim,
        "basis": list(h.space.labels),
        "mul": linmap_to_json(h.mul, f"{path}.mul"),
        "unit": _flat_to_json(h.unit, f"{path}.unit"),
        "comul": linmap_to_json(h.comul, f"{path}.comul"),
        "counit": _flat_to_json(h.counit, f"{path}.counit"),
        "antipode": linmap_to_json(h.antipode, f"{path}.antipode"),
    }


def group_to_json(g: GroupTable) -> dict:
    return {
        "order": g.order,
        "elements": list(g.labels),
        "table": [[int(x) for x in row] for row in g.table],
    }


def yd_to_json(v: YDModule) -> dict:
    return {
        "over": hopf_to_json(v.over, "$.over"),
        "dim": v.dim,
        "action": linmap_to_json(v.action, "$.action"),
        "coaction": linmap_to_json(v.coaction, "$.coaction"),
    }


def projection_to_json(p: HopfProjection) -> dict:
    return {
        "big": hopf_to_json(p.big, "$.big"),
        "small": hopf_to_json(p.small, "$.small"),
        "proj": linmap_to_json(p.proj.lin, "$.proj"),
        "incl": linmap_to_json(p.incl.lin, "$.incl"),
    }


def crossed_module_to_json(x: GroupCrossedModule) -> dict:
    return {
        "M": group_to_json(x.m),
        "N": group_to_json(x.n),
        "boundary": [int(i) for i in x.boundary],
        "action": [[int(i) for i in row] for row in x.action],
    }


def simplicial_to_json(t: TruncatedSimplicialHopf) -> dict:
    return {
        "levels": [hopf_to_json(h, f"$.levels[{n}]")
                   for n, h in enumerate(t.levels)],
        "faces": [[linmap_to_json(f.lin, f"$.faces[{n}][{i}]")
                   for i, f in enumerate(fs)] for n, fs in enumerate(t.faces)],
        "degeneracies": [[linmap_to_json(s.lin, f"$.degeneracies[{n}][{i}]")
                          for i, s in enumerate(ss)]
                         for n, ss in enumerate(t.degens)],
    }


# -- documents ----------------------------------------------------------


# (distinguishing key, kind, class, reader, writer), in detection order
_KIND_KEYS = (
    ("mul", "hopf", HopfAlgebra, hopf_from_json, hopf_to_json),
    ("table", "group", GroupTable, group_from_json, group_to_json),
    ("boundary", "crossed_module", GroupCrossedModule,
     crossed_module_from_json, crossed_module_to_json),
    ("proj", "projection", HopfProjection, projection_from_json,
     projection_to_json),
    ("coaction", "yd_module", YDModule, yd_from_json, yd_to_json),
    ("levels", "simplicial", TruncatedSimplicialHopf, simplicial_from_json,
     simplicial_to_json),
)


def serialize(obj) -> dict:
    # A hopf document has no slot for R', so a braided algebra written
    # as one would read back as a different (Vect) Hopf algebra.
    if not isinstance(obj, BraidedHopfAlgebra):
        for _, _, cls, _, writer in _KIND_KEYS:
            if isinstance(obj, cls):
                return writer(obj)
    raise SchemaError(f"no JSON form for {type(obj).__name__}")


def detect_kind(doc: dict, path: str = "$") -> str:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    for key, kind, *_ in _KIND_KEYS:
        if key in doc:
            return kind
    if "builtin" in doc:
        from . import fixtures
        return fixtures.builtin_kind(doc["builtin"])
    raise SchemaError(
        f"{path}: cannot tell what this document defines; expected one of "
        f"the keys {', '.join(k for k, *_ in _KIND_KEYS)} or \"builtin\"")


def builtin_reference(doc: dict):
    """NAME if ``doc`` is a bare {"builtin": NAME} reference, else None."""
    if "builtin" in doc and not any(k in doc for k, *_ in _KIND_KEYS):
        return doc["builtin"]
    return None


def read_document(source) -> dict:
    """The JSON object at a path, in JSON text, or given as a dict, checked
    to be of a known kind (``detect_kind``) but not built."""
    doc = source
    if not isinstance(source, dict):
        text = source
        if not str(source).lstrip().startswith("{"):
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise ParseError(f"cannot read {source}: {e}")
        try:
            doc = json.loads(text)
        except ValueError as e:   # also an int literal past Python's limit
            raise ParseError(f"not valid JSON: {e}")
    detect_kind(doc)
    return doc


def parse_definition(source):
    """The object a definition at a path, in JSON text, or in a dict
    defines, read and validated; ``detect_kind`` names its kind."""
    doc = read_document(source)
    name = builtin_reference(doc)
    if name is not None:
        return _builtin(name, "$")
    for key, _, _, reader, _ in _KIND_KEYS:
        if key in doc:
            return reader(doc, "$")


def dump_json(obj: dict) -> str:
    """Canonical byte-deterministic rendering used for --json output."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
