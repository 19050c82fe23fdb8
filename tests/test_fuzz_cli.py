"""The exit-code contract on malformed documents.

A derandomised Hypothesis search mutates the serialized ``sweedler``,
``proj-sweedler``, ``c2``, ``c2-id`` (a crossed module) and
``nerve-c2-id`` documents -- a scalar or a whole node swapped for a huge
int, a "p/q" string, a float, a bool, null, a small int (which breaks a
group table's associativity or identity), a list of the wrong shape or a
``{"builtin": NAME}`` reference whose name is unknown, not a string,
nested or of the wrong kind -- or fills every zero entry of one structure
map with one of 1, 2, -1, 3, and runs a command on the result.
Whatever the input, the CLI must answer 0, 1 or 2, and an exit 2 must
print nothing on stdout: nothing in the input may reach exit 3.  The
same documents go to ``io.parse_definition`` alone, which may only
refuse them with an error the CLI answers with exit 1 or 2.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import given, settings, strategies as st

from hopfforge import cli, fixtures
from hopfforge.errors import (HypothesisFailed, InvalidCrossedModule,
                              InvalidGroup, NonInvertibleAntipode,
                              NonInvertibleBraiding, NotAProjection,
                              UsageError)
from hopfforge.io import parse_definition, serialize

DOCS = {name: serialize(fixtures.builtin_raw(name))
        for name in ("sweedler", "proj-sweedler", "c2", "nerve-c2-id")}
DOCS["c2-id"] = serialize(fixtures.crossed_module("c2-id"))

#: the commands that take each document; any command may be drawn too
PROJECTION = ["rker", "kernel-generators", "braided-hopf", "bosonise",
              "radford-iso", "pushforward", "check-yd"]
COMMANDS = {
    "sweedler": ["check-hopf", "check-yd"],
    "proj-sweedler": PROJECTION,
    "c2": ["check-hopf", "check-yd", "nerve", "linearize", "moore-oracle"],
    "c2-id": ["nerve", "linearize", "moore-oracle"],
    "nerve-c2-id": ["simplicial-check", "pipeline", "peiffer", "extract-xmod",
                    "check-restriction", "linearize"] + PROJECTION,
}
EVERY_COMMAND = sorted({c for cmds in COMMANDS.values() for c in cmds})

#: values that stand in for a scalar or a whole node
SCALARS = [2 ** 64, -(10 ** 40), 10 ** 400, "1/2", "-3/7", "2/2", "1/0",
           "x", "", 0.5, 1.0, 1e300, True, False, None, 0, 1, 2, -1, 7]


def _paths(node, path=()):
    """Every position in a JSON tree, the root aside."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _replace(doc, path, value):
    """doc with the node at path replaced by value(old node)."""
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return out


#: names for a {"builtin": NAME} reference: known ones of every kind (a
#: large one among them), unknown, not a string, and nested references
REFS = ["c2", "s3", "sweedler", "proj-sweedler", "nerve-c2-id",
        "nerve-s3-id", "no-such-builtin", "", 7, None, True, ["c2"],
        {"builtin": "c2"}]

#: what a mutation does to the node it picks
EDITS = [lambda x: x[:-1] if isinstance(x, list) else [x],
         lambda x: x + x[:1] if isinstance(x, list) else [x, x],
         lambda x: [],
         lambda x: x[::-1] if isinstance(x, list) else {"k": x}]


def _structure_maps(doc) -> list:
    """The paths of the matrices in doc: non-empty lists of scalar rows."""
    out = []
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if isinstance(node, list) and node and all(
                isinstance(r, list) and r and not isinstance(r[0], (list, dict))
                for r in node):
            out.append(path)
    return out


def _dense(value):
    """Fill every zero entry of a matrix with value: a dense structure map
    makes each composite over it carry many terms."""
    return lambda rows: [[value if x == 0 else x for x in r] for r in rows]


@st.composite
def _mutated(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[name]
    if draw(st.integers(0, 4)) == 0:
        path = draw(st.sampled_from(_structure_maps(doc)))
        doc = _replace(doc, path, _dense(draw(st.sampled_from([1, 2, -1, 3]))))
        return doc, draw(st.sampled_from(COMMANDS[name]))
    if draw(st.integers(0, 9)) == 0:
        doc = {"builtin": draw(st.sampled_from(REFS))}
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        kind = draw(st.integers(0, 5))
        if kind == 0:
            edit = draw(st.sampled_from(EDITS))
        elif kind == 1:
            ref = {"builtin": draw(st.sampled_from(REFS))}
            edit = lambda _, v=ref: v       # noqa: E731
        else:
            value = draw(st.sampled_from(SCALARS))
            edit = lambda _, v=value: v     # noqa: E731
        doc = _replace(doc, path, edit)
    anything = draw(st.integers(0, 7)) == 7
    return doc, draw(st.sampled_from(EVERY_COMMAND if anything
                                     else COMMANDS[name]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated())
def test_mutated_documents_exit_0_1_or_2(case):
    doc, command = case
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, "--input", json.dumps(doc), "--json",
                         "--level", "1"])
    assert code in (0, 1, 2), (code, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""


#: what the CLI answers with exit 1 or 2 (every UsageError is exit 2)
REFUSALS = (UsageError, NotAProjection, NonInvertibleAntipode,
            NonInvertibleBraiding, InvalidGroup, InvalidCrossedModule,
            HypothesisFailed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mutated())
def test_parse_definition_refuses_only_with_exit_1_or_2_errors(case):
    doc, _ = case
    try:
        parse_definition(doc)
    except REFUSALS:
        pass
