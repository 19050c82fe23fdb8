"""Round trip an object through the JSON schema and the command line.

Everything the CLI reads and writes is canonical: sorted keys, exact
rationals (ints or "p/q" strings), trailing newline.  Two runs of the
same command produce byte-identical reports.
"""

import tempfile
from pathlib import Path

from hopfforge import cli, fixtures, io

p = fixtures.builtin_raw("proj-sign-s3")
doc = io.serialize(p)
text = io.dump_json(doc)
print(f"serialized {p.big.name} -> {p.small.name}: {len(text)} bytes,",
      f"kind {io.detect_kind(doc)!r}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sign.json"
    path.write_text(text)

    # reload and confirm the parse is exact
    again = io.parse_definition(str(path))
    assert io.dump_json(io.serialize(again)) == text
    print("round trip: byte-identical")

    code = cli.main(["rker", "--input", str(path)])
    print(f"rker exit code: {code}")

    # builtin slots keep documents small
    doc["big"] = {"builtin": "s3"}
    doc["small"] = {"builtin": "c2"}
    print(f"with builtin refs: {len(io.dump_json(doc))} bytes")
    assert io.parse_definition(doc).big.dim == 6
