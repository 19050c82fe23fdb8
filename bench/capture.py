"""Capture the reference outputs the benchmark checks against.

    python3 bench/capture.py

Run it only at a commit whose outputs are the reference: it overwrites
bench/digests.json with the exit code and stdout digest of every
``hopfforge <command> --builtin <name> --json`` call that answers (exit 0
or 1), of the generated --input calls on their canonical documents, and
the report digests of the tower stages on nerve-s3-id and nerve-c2-id.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_cli(sweep, argv):
    proc = subprocess.run([sys.executable, "-m", "hopfforge.cli", *argv,
                           "--json"], cwd=ROOT, env=sweep.env,
                          capture_output=True, timeout=300)
    return {"exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def capture_cli(sweep):
    from hopfforge import cli, fixtures, io
    out = {}
    for cmd in cli._COMMANDS:
        for name in fixtures.BUILTIN_NAMES:
            if fixtures.builtin_is_large(name):
                continue
            argv = [cmd, "--builtin", name]
            got = run_cli(sweep, argv)
            if got["exit"] == 2 and fixtures.builtin_kind(name) == "simplicial":
                argv += ["--level", "1"]
                got = run_cli(sweep, argv)
            if got["exit"] in (0, 1):
                out[" ".join(argv)] = got
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        for name, doc in workloads.canonical_docs().items():
            (Path(tmp) / f"{name}.json").write_text(io.dump_json(doc),
                                                    encoding="utf-8")
        for cmd, name in workloads.INPUT_CALLS:
            out[f"{cmd} --input {name}"] = run_cli(
                sweep, [cmd, "--input", str(Path(tmp) / f"{name}.json")])
    return out


def capture_tower():
    out = {}
    for size in ("full", "small"):
        tower = workloads.Tower(ROOT, size)
        tower.expected = {}
        tower.imports()
        ops = tower.run(tower.setup(0, 0))
        bad = [o.name for o in ops if not o.ok]
        if bad:
            raise SystemExit(f"{tower.builtin}: not ok: {bad}")
        out[tower.builtin] = {o.name: o.digest for o in ops if o.digest}
    return out


def main():
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    if not workloads.DIGESTS.exists():
        workloads.DIGESTS.write_text("{}\n", encoding="utf-8")
    sweep = workloads.CliSweep(ROOT, "full")
    digests = {"cli": capture_cli(sweep), "tower": capture_tower()}
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")
    print(f"{len(digests['cli'])} cli calls, "
          f"{sum(map(len, digests['tower'].values()))} tower reports")


if __name__ == "__main__":
    main()
