"""The benchmark workloads.

Each workload has ``imports()``, ``setup(seed, i)`` which builds the
inputs of pass ``i`` from the seed, and ``run(inp)`` which makes every
operation of one pass and returns a list of ``Op`` records.  An operation
is one call whose result the benchmark checks; a check that does not
hold, or an exception, marks it failed.
"""

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
CALL_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    digest: str = ""
    note: str = ""
    known_defect: bool = False


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


class Checked:
    """Collects Op records; ``call`` times fn() and checks its value.

    ``pause`` wraps each check, so a traced pass records no spans for the
    benchmark's own checking.
    """

    def __init__(self, pause=nullcontext):
        self.ops = []
        self.pause = pause

    def call(self, name, fn, check):
        """check(value) -> (ok, digest, note); returns value or None."""
        t0 = perf_counter()
        try:
            value = fn()
        except Exception as e:  # noqa: BLE001 - an op that raises failed
            self.ops.append(Op(name, perf_counter() - t0, False,
                               note=f"{type(e).__name__}: {e}"))
            return None
        dt = perf_counter() - t0
        with self.pause():
            ok, digest, note = check(value)
        self.ops.append(Op(name, dt, ok, digest, note))
        return value

    def verdict(self, name, ok, note=""):
        """An extra check made from values already computed."""
        self.ops.append(Op(name, 0.0, bool(ok), note=note))


def report_digest(rep) -> str:
    """Digest of the report's canonical --json rendering."""
    import hopfforge
    from hopfforge import io
    return sha(io.dump_json(rep.to_dict(version=hopfforge.__version__)))


def report_check(rep, extra_ok=True, note=""):
    return (rep.ok and extra_ok, report_digest(rep),
            note if not rep.ok or not extra_ok else "")


def import_package():
    """Import hopfforge; returns its fixtures module and the fixture caches
    that set-up clears so every build is fresh."""
    import hopfforge  # noqa: F401
    from hopfforge import fixtures, io  # noqa: F401
    return fixtures, [v for v in vars(fixtures).values()
                      if hasattr(v, "cache_clear")]


def clear_fixture_caches(cached):
    for fn in cached:
        fn.cache_clear()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- tower-s3 -------------------------------------------------------------


@dataclass
class TowerInputs:
    t: object
    group_nerve: object
    xmod: object
    order: list


class Tower:
    """The level-2 kernel tower of a linearized nerve, cross-checked
    against the group-level Moore oracle.  The seed orders the stages
    that do not depend on each other."""

    name = "tower-s3"
    invocation_is_call = False

    def __init__(self, root: Path, size: str):
        self.builtin = "nerve-s3-id" if size == "full" else "nerve-c2-id"
        self.pause = nullcontext
        self.expected = load_digests().get("tower", {}).get(self.builtin, {})

    def imports(self):
        self.fixtures, self.cached = import_package()

    def setup(self, seed, i):
        fx = self.fixtures
        clear_fixture_caches(self.cached)
        t = fx.builtin_raw(self.builtin)
        g = fx.group_nerve(self.builtin)
        x = fx.crossed_module(self.builtin.removeprefix("nerve-"))
        order = ["verify", "fg", "moore", "tower"]
        random.Random(f"{self.name}:{seed}:{i}").shuffle(order)
        return TowerInputs(t, g, x, order)

    def _report(self, stage, rep, extra_ok=True, note=""):
        ok, digest, note = report_check(rep, extra_ok, note)
        want = self.expected.get(stage)
        if want is not None and digest != want:
            return False, digest, f"{stage}: report differs from reference"
        return ok, digest, note

    def run(self, inp):
        from hopfforge.simplicial import (check_fg_commutation, dim2_pipeline,
                                          extract_xmod, moore_group_oracle,
                                          peiffer_pairing, verify_simplicial)
        t = inp.t
        c = Checked(self.pause)
        pipe = moore = None
        for stage in inp.order:
            if stage == "verify":
                c.call("verify_simplicial", lambda: verify_simplicial(t),
                       lambda r: self._report("verify_simplicial", r))
            elif stage == "fg":
                c.call("check_fg_commutation", lambda: check_fg_commutation(t),
                       lambda r: self._report("check_fg_commutation", r))
            elif stage == "moore":
                moore = c.call(
                    "moore_group_oracle",
                    lambda: moore_group_oracle(inp.group_nerve, inp.xmod),
                    lambda r: self._report("moore_group_oracle", r))
            else:
                pipe = c.call("dim2_pipeline", lambda: dim2_pipeline(t),
                              lambda p: self._report("dim2_pipeline", p.report))
                if pipe is None:
                    continue
                c.call("peiffer_pairing", lambda: peiffer_pairing(t, pipe),
                       lambda pp: self._report(
                           "peiffer_pairing", pp.report,
                           pp.composite == pp.closed_form,
                           "closed form differs from composite"))
                c.call("extract_xmod", lambda: extract_xmod(t, pipe),
                       lambda xr: self._report("extract_xmod", xr[1]))
        if pipe is not None and moore is not None:
            d, m = pipe.report.derived, moore.derived
            c.verdict("moore-cross-check",
                      d["dim_A100"] == m["n1_order"]
                      and d["dim_A221"] == m["n2_order"],
                      f"pipeline {d} vs oracle {m}")
        else:
            c.verdict("moore-cross-check", False, "a stage did not finish")
        return c.ops

    peak_rss_mb = staticmethod(self_rss_mb)


# -- cli-sweep ------------------------------------------------------------


# Scalars in these keys may be respelled ("1" as "3/3"); everything else
# (dimensions, labels, group tables) is left alone.
MATRIX_KEYS = ("mul", "unit", "comul", "counit", "antipode", "proj", "incl",
               "faces", "degeneracies")

INPUT_DOCS = ("sweedler", "corrupted-c2", "proj-sign-s3", "nerve-c2-id")

# (command, document): the --input calls and the reference their output
# must match byte for byte.
INPUT_CALLS = (("check-hopf", "sweedler"), ("check-yd", "sweedler"),
               ("check-hopf", "corrupted-c2"), ("radford-iso", "proj-sign-s3"),
               ("bosonise", "proj-sign-s3"), ("pipeline", "nerve-c2-id"))

# Calls that must exit 2 with nothing on stdout.  "{bad}" is replaced by
# a generated document holding one float scalar.
USAGE_CALLS = (("check-hopf",),
               ("check-hopf", "--builtin", "no-such-builtin"),
               ("pipeline", "--builtin", "nerve-s3-id"),
               ("rker", "--builtin", "nerve-c2-id", "--level", "9"),
               ("check-hopf", "--input", "{bad}"))

# linearize refuses to densify the 216 x 46656 level-2 multiplication and
# dies with MemoryError (exit 3).  The call stays in the sweep; the
# outcome is tallied as the known defect, and a clean exit 2 or a correct
# document also passes once the defect is fixed.
DEFECT_CALLS = (("linearize", "--builtin", "s3"),)


def _respell(value, rng):
    if isinstance(value, list):
        return [_respell(v, rng) for v in value]
    if isinstance(value, bool) or rng.random() >= 0.3:
        return value
    m = rng.choice((2, 3, 5))
    if isinstance(value, int):
        return f"{value * m}/{m}"
    if isinstance(value, str) and "/" in value:
        p, q = value.split("/")
        return f"{int(p) * m}/{int(q) * m}"
    return value


def respell_doc(doc, rng):
    """The same definition with shuffled keys and respelled scalars."""
    keys = list(doc)
    rng.shuffle(keys)
    out = {}
    for k in keys:
        v = doc[k]
        if k in MATRIX_KEYS:
            v = _respell(v, rng)
        elif k in ("big", "small"):
            v = respell_doc(v, rng)
        elif k == "levels":
            v = [respell_doc(d, rng) for d in v]
        out[k] = v
    return out


def canonical_docs():
    """name -> the serialized definition the --input calls read."""
    from hopfforge import fixtures, io
    docs = {name: io.serialize(fixtures.builtin_raw(name))
            for name in INPUT_DOCS if name != "corrupted-c2"}
    docs["corrupted-c2"] = io.serialize(fixtures.corrupted_c2())
    return docs


def child_env(root: Path) -> dict:
    """The environment of a hopfforge child process: src/ on the path and
    the default dimension cap."""
    env = dict(os.environ)
    env.pop("HOPFFORGE_MAX_DIM", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


@dataclass
class Call:
    argv: list
    key: str          # digest key, "usage" or "defect"
    label: str        # the call with document names in place of paths


class CliSweep:
    """Every command x builtin pair that answers at the reference commit,
    plus generated --input documents and usage errors, each a fresh
    ``python -m hopfforge.cli ... --json`` run, one after another."""

    name = "cli-sweep"
    invocation_is_call = True

    def __init__(self, root: Path, size: str):
        self.root = root
        self.full = size == "full"
        self.pairs = load_digests().get("cli", {})
        self.env = child_env(root)
        self.workdir = None       # set by run.py
        self.trace_dir = None     # set by the traced run

    def imports(self):
        _, self.cached = import_package()

    def calls(self, paths):
        """The sweep in canonical order; ``paths`` maps doc name -> file."""
        keys = sorted(k for k in self.pairs if " --input " not in k)
        if not self.full:
            keys = keys[::8]
        out = [Call(k.split() + ["--json"], k, k) for k in keys]
        inputs = INPUT_CALLS if self.full else INPUT_CALLS[:3]
        for cmd, doc in inputs:
            key = f"{cmd} --input {doc}"
            out.append(Call([cmd, "--input", paths[doc], "--json"], key, key))
        usage = USAGE_CALLS if self.full else USAGE_CALLS[-2:]
        for argv in usage:
            out.append(Call([paths["bad"] if a == "{bad}" else a
                             for a in argv] + ["--json"], "usage",
                            " ".join(argv)))
        for argv in DEFECT_CALLS:
            out.append(Call(list(argv) + ["--json"], "defect", " ".join(argv)))
        return out

    def setup(self, seed, i):
        from hopfforge import io
        clear_fixture_caches(self.cached)
        rng = random.Random(f"{self.name}:{seed}:{i}")
        passdir = self.workdir / f"pass{i}"
        passdir.mkdir(parents=True, exist_ok=True)
        docs = canonical_docs()
        paths = {}
        for name, doc in docs.items():
            path = passdir / f"{name}.json"
            path.write_text(json.dumps(respell_doc(doc, rng),
                                       indent=rng.choice((None, 1, 2))),
                            encoding="utf-8")
            paths[name] = str(path)
        bad = docs["sweedler"]
        row = rng.randrange(len(bad["mul"]))
        col = rng.randrange(len(bad["mul"][row]))
        bad = dict(bad, mul=[list(r) for r in bad["mul"]])
        bad["mul"][row][col] = 0.5
        paths["bad"] = str(passdir / "bad-float.json")
        Path(paths["bad"]).write_text(io.dump_json(bad), encoding="utf-8")
        calls = self.calls(paths)
        rng.shuffle(calls)
        return calls

    def _argv(self, call, n):
        if self.trace_dir is None:
            return [sys.executable, "-m", "hopfforge.cli"] + call.argv
        spans = self.trace_dir / f"call{n}.json"
        return ([sys.executable, str(BENCH_DIR / "clitrace.py"), str(spans)]
                + call.argv)

    def _check(self, call, proc):
        code, out = proc.returncode, proc.stdout
        if call.key == "usage":
            return code == 2 and not out, "", f"exit {code}"
        if call.key == "defect":
            if code == 3 and b"MemoryError" in proc.stderr:
                return True, "", "known defect"
            if code == 2 and not out:
                return True, "", ""
            if code == 0:
                try:
                    dims = json.loads(out)["derived"]["level_dims"]
                except (ValueError, KeyError, TypeError):
                    dims = None
                return dims == [6, 36, 216], sha(out.decode()), f"dims {dims}"
            return False, "", f"exit {code}: {proc.stderr[-200:]!r}"
        want = self.pairs[call.key]
        digest = hashlib.sha256(out).hexdigest()
        ok = code == want["exit"] and digest == want["sha256"]
        return ok, digest, "" if ok else f"exit {code}, stdout differs"

    def run(self, calls):
        ops = []
        for n, call in enumerate(calls):
            t0 = perf_counter()
            try:
                proc = subprocess.run(self._argv(call, n), cwd=self.root,
                                      env=self.env, capture_output=True,
                                      timeout=CALL_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                ops.append(Op(call.label, perf_counter() - t0, False,
                              note="timed out"))
                continue
            dt = perf_counter() - t0
            ok, digest, note = self._check(call, proc)
            ops.append(Op(call.label, dt, ok, digest, note,
                          known_defect=note == "known defect"))
        return ops

    @staticmethod
    def peak_rss_mb():
        """The largest child: ru_maxrss of the waited-for children."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Tower, CliSweep)}
