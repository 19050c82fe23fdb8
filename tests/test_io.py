"""JSON schemas: round trips, scalar rules, error paths, builtin references.

Every serializer is checked against its parser byte-for-byte, and every
rejection carries a $.path so a bad entry can be found in a large file.
"""

import json
import sys
import time
from fractions import Fraction

import pytest

from hopfforge import cli, fixtures, io
from hopfforge.errors import ParseError, SchemaError, UsageError
from hopfforge.hopf import GroupTable, HopfAlgebra
from hopfforge.linalg import LinMap, scalar_text
from hopfforge.yd import projection_yd


# -- scalars ---------------------------------------------------------------


def test_scalar_forms():
    assert io.parse_scalar(3, "$") == Fraction(3)
    assert io.parse_scalar("-2/7", "$") == Fraction(-2, 7)
    assert io.scalar_to_json(Fraction(3, 2), "$") == "3/2"
    assert io.scalar_to_json(Fraction(4, 2), "$") == 2


@pytest.mark.parametrize("big", [10 ** 5000, Fraction(1, 10 ** 5000)],
                         ids=["whole", "fraction"])
def test_entries_too_long_to_read_back_are_refused_on_writing(sweedler, big):
    """Past sys.get_int_max_str_digits() digits, neither json.loads nor
    Fraction reads an entry back, so serialize names it instead."""
    h = sweedler
    scaled = HopfAlgebra(h.space, h.mul, h.unit, h.comul, h.counit,
                         LinMap.from_entries(h.space, h.space,
                                             {(i, i): big for i in range(4)}))
    with pytest.raises(SchemaError) as e:
        io.serialize(scaled)
    assert str(e.value) == ("$.antipode[0][0]: an entry of more than "
                            f"{sys.get_int_max_str_digits()} digits cannot "
                            "be read back from JSON")
    with pytest.raises(ParseError):     # what reading such an entry gives
        io.parse_scalar(scalar_text(big), "$")


def test_longest_writable_entry_reads_back(sweedler):
    h = sweedler
    big = 10 ** (sys.get_int_max_str_digits() - 1)
    scaled = HopfAlgebra(h.space, h.mul, h.unit, h.comul, h.counit,
                         LinMap.from_entries(h.space, h.space,
                                             {(i, i): big for i in range(4)}))
    back = io.parse_definition(io.dump_json(io.serialize(scaled)))
    assert back.antipode == scaled.antipode


def test_scalar_rejects_floats():
    with pytest.raises(ParseError, match="inexact"):
        io.parse_scalar(0.5, "$.mul[0][0]")


def test_scalar_rejects_bools():
    with pytest.raises(ParseError):
        io.parse_scalar(True, "$")


def test_scalar_rejects_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        io.parse_scalar("1/0", "$")


# -- round trips -------------------------------------------------------------


def _roundtrip(obj, kind):
    doc = io.serialize(obj)
    s1 = io.dump_json(doc)
    assert io.detect_kind(doc) == kind
    parsed = io.parse_definition(s1)
    assert io.dump_json(io.serialize(parsed)) == s1
    return parsed


def test_hopf_roundtrip(sweedler):
    h = _roundtrip(sweedler, "hopf")
    assert h.space.labels == sweedler.space.labels
    assert h.mul == sweedler.mul and h.antipode == sweedler.antipode


def test_group_roundtrip():
    g = _roundtrip(fixtures.builtin_raw("s3"), "group")
    assert g.labels == fixtures.builtin_raw("s3").labels


def test_projection_roundtrip(proj_sweedler):
    p = _roundtrip(proj_sweedler, "projection")
    assert p.proj.lin == proj_sweedler.proj.lin


def test_yd_roundtrip(proj_sweedler):
    v = projection_yd(proj_sweedler)
    w = _roundtrip(v, "yd_module")
    # parsed carriers get fresh v0..vn labels; content must survive
    assert w.action.to_rows() == v.action.to_rows()
    assert w.coaction.to_rows() == v.coaction.to_rows()


def test_crossed_module_roundtrip():
    _roundtrip(fixtures.crossed_module("c2-id"), "crossed_module")


def test_simplicial_roundtrip(nerve_c2_id):
    t = _roundtrip(nerve_c2_id, "simplicial")
    assert [l.dim for l in t.levels] == [2, 4, 8, 16]


def test_braided_algebra_has_no_json_form(quantum_line):
    # written as a hopf document it would lose its braiding R'
    with pytest.raises(SchemaError):
        io.serialize(quantum_line.braided)


def test_parse_definition_accepts_dict_text_and_path(tmp_path, sweedler):
    doc = io.serialize(sweedler)
    text = io.dump_json(doc)
    f = tmp_path / "h.json"
    f.write_text(text)
    for source in (doc, text, str(f)):
        assert io.dump_json(io.serialize(io.parse_definition(source))) == text


def test_dump_json_deterministic(sweedler):
    doc = io.serialize(sweedler)
    a, b = io.dump_json(doc), io.dump_json(doc)
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == doc


# -- kind detection -----------------------------------------------------------


def test_detect_kind_by_distinguishing_key():
    assert io.detect_kind({"mul": []}) == "hopf"
    assert io.detect_kind({"table": []}) == "group"
    assert io.detect_kind({"proj": []}) == "projection"
    assert io.detect_kind({"coaction": []}) == "yd_module"
    assert io.detect_kind({"boundary": []}) == "crossed_module"
    assert io.detect_kind({"levels": []}) == "simplicial"


def test_unrecognised_document_rejected():
    with pytest.raises((SchemaError, ParseError)):
        io.parse_definition({"frobnicate": 1})


# -- error paths ----------------------------------------------------------


def _sweedler_doc():
    return io.serialize(fixtures.builtin_raw("sweedler"))


def test_bad_rational_reports_exact_path():
    doc = _sweedler_doc()
    doc["mul"][0][0] = "1/0"
    with pytest.raises(ParseError, match=r"\$\.mul\[0\]\[0\]"):
        io.parse_definition(doc)


def test_wrong_matrix_shape_reports_path():
    doc = _sweedler_doc()
    doc["comul"] = doc["comul"][:-1]
    with pytest.raises(SchemaError, match=r"\$\.comul"):
        io.parse_definition(doc)


def test_missing_field_rejected():
    doc = _sweedler_doc()
    del doc["counit"]
    with pytest.raises((SchemaError, ParseError)):
        io.parse_definition(doc)


def test_wrong_field_marker_rejected():
    doc = _sweedler_doc()
    doc["field"] = "R"
    with pytest.raises(SchemaError):
        io.parse_definition(doc)


# -- builtin references --------------------------------------------------------


def test_builtin_reference_in_projection_slot(proj_sweedler):
    doc = io.serialize(proj_sweedler)
    doc["big"] = {"builtin": "sweedler"}
    p = io.parse_definition(doc)
    assert p.big.space.labels == proj_sweedler.big.space.labels


def test_group_builtin_coerced_in_hopf_slot(proj_sign_s3):
    doc = io.serialize(proj_sign_s3)
    doc["big"] = {"builtin": "s3"}
    doc["small"] = {"builtin": "c2"}
    p = io.parse_definition(doc)
    assert p.big.dim == 6 and p.small.dim == 2


def test_unknown_builtin_lists_the_registry():
    doc = io.serialize(fixtures.builtin_raw("proj-sweedler"))
    doc["big"] = {"builtin": "atlantis"}
    with pytest.raises(UsageError, match="sweedler"):
        io.parse_definition(doc)


def test_builtin_registry_kinds():
    kinds = {name: fixtures.builtin_kind(name) for name in fixtures.BUILTIN_NAMES}
    assert kinds["sweedler"] == "hopf"
    assert kinds["s3"] == "group"
    assert kinds["proj-sign-s3"] == "projection"
    assert kinds["nerve-s3-id"] == "simplicial"
    assert fixtures.builtin_is_large("nerve-s3-id")
    assert not fixtures.builtin_is_large("nerve-c2-id")
    with pytest.raises(UsageError):
        fixtures.builtin_kind("atlantis")


# -- every refusal reaches exit 2 ------------------------------------------


def _document(name):
    """The document of a builtin, or of the crossed module behind c2-id."""
    if name == "c2-id":
        return io.serialize(fixtures.crossed_module(name))
    return io.serialize(fixtures.builtin_raw(name))


#: a command that reads each document kind
_COMMAND = {"hopf": "check-hopf", "group": "check-hopf", "projection": "rker",
            "crossed_module": "nerve", "simplicial": "simplicial-check"}


@pytest.mark.parametrize("name, mutate, says", [
    ("proj-sweedler", lambda d: d.update(big=[1]),
     "$.big: expected an object, got list"),
    ("sweedler", lambda d: d.update(dim=0),
     "$.dim: expected a positive integer, got 0"),
    ("sweedler", lambda d: d["basis"].pop(),
     "$.basis: expected a list of 4 labels"),
    ("sweedler", lambda d: d["mul"][1].pop(),
     "$.mul[1]: expected a row of 16 entries"),
    ("sweedler", lambda d: d["counit"].pop(),
     "$.counit: expected a list of 4 entries"),
    ("c2-id", lambda d: d["boundary"].__setitem__(1, 9),
     "$.boundary[1]: expected an index in 0..1, got 9"),
    ("sweedler", lambda d: d["basis"].__setitem__(1, "1"),
     "$.basis: basis labels must be distinct"),
    ("c3", lambda d: d["table"].pop(), "$.table: expected 3 rows"),
    ("proj-sweedler", lambda d: d.update(big={"builtin": "proj-sign-s3"}),
     "$.big.builtin: 'proj-sign-s3' is not a Hopf algebra"),
    ("c2-id", lambda d: d.update(M={"builtin": "sweedler"}),
     "$.M.builtin: 'sweedler' is not a group"),
    ("c2-id", lambda d: d.update(N={"builtin": 2}),
     "$.N.builtin: expected a fixture name string"),
    ("c2-id", lambda d: d["action"].pop(), "$.action: expected 2 rows"),
    ("nerve-c2-id", lambda d: d.update(levels=d["levels"][:1]),
     "$.levels: expected at least two levels"),
    ("nerve-c2-id", lambda d: d["faces"].pop(),
     "$.faces: expected one (possibly empty) list per level"),
], ids=["non-object-slot", "non-positive-dim", "label-count", "short-row",
        "vector-length", "index-range", "duplicate-labels", "table-rows",
        "non-hopf-builtin", "non-group-builtin", "non-string-builtin",
        "action-rows", "one-level", "faces-count"])
def test_malformed_document_names_its_path_and_exits_two(tmp_path, capsys,
                                                         name, mutate, says):
    doc = _document(name)
    mutate(doc)
    with pytest.raises((SchemaError, ParseError)) as e:
        io.parse_definition(doc)
    assert says in str(e.value)
    f = tmp_path / "bad.json"
    f.write_text(io.dump_json(doc))
    assert cli.main([_COMMAND[io.detect_kind(doc)], "--input", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and says in err


def test_text_that_is_not_json_exits_two(capsys):
    with pytest.raises(ParseError, match="not valid JSON"):
        io.parse_definition("{not json")
    assert cli.main(["check-hopf", "--input", "{not json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not valid JSON" in err


# -- numbers too large to convert ------------------------------------------

#: 10^3001 - 1 and its square, spelled out without int-to-str conversion
_NINES = "9" * 3001
_NINES_SQUARED = "9" * 3000 + "8" + "0" * 3000 + "1"


def _sweedler_text(entry: str) -> str:
    """The Sweedler document as JSON text with ``entry`` as mul[0][0]."""
    doc = io.serialize(fixtures.builtin_raw("sweedler"))
    doc["mul"][0][0] = "@"
    return io.dump_json(doc).replace('"@"', entry, 1)


@pytest.mark.parametrize("entry, says", [
    ("7" * 5000, "not valid JSON"),
    ('"1e1000000"', "$.mul[0][0]: bad rational '1e1000000'"),
    ('"1e10000000"', "$.mul[0][0]: bad rational '1e10000000'"),
], ids=["5000-digit-literal", "exponent-1e6", "exponent-1e7"])
def test_oversized_input_exits_two_quickly(tmp_path, capsys, entry, says):
    f = tmp_path / "big.json"
    f.write_text(_sweedler_text(entry))
    start = time.perf_counter()
    assert cli.main(["check-hopf", "--input", str(f)]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and says in err


@pytest.mark.parametrize("x", ["1.5", "1e3", " 3", "3 ", "+-1", "1/", "/2",
                               "1/-2", "0x10", "1_000", "\u0661"])
def test_scalar_accepts_only_integers_and_fractions(x):
    with pytest.raises(ParseError, match="bad rational"):
        io.parse_scalar(x, "$")


def test_huge_computed_scalar_is_rendered_exactly(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text(_sweedler_text(_NINES))
    assert cli.main(["check-hopf", "--input", str(f)]) == 1
    out, _ = capsys.readouterr()
    assert (f"FAIL comul-mul-compatibility @ row '1⊗1', col '1⊗1': "
            f"{_NINES} != {_NINES_SQUARED}\n") in out
    assert cli.main(["check-hopf", "--input", str(f), "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    witness = next(c["witness"] for c in checks
                   if c["name"] == "comul-mul-compatibility")
    assert witness == {"row": "1⊗1", "col": "1⊗1", "row_index": 0,
                       "col_index": 0, "lhs": _NINES, "rhs": _NINES_SQUARED}


def test_bare_group_reference_parses_to_the_group():
    g = io.parse_definition({"builtin": "c2"})
    assert isinstance(g, GroupTable)
    assert g is fixtures.builtin_raw("c2")
