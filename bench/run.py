"""hopfforge benchmark: one workload, one run, one JSON verdict line.

    python3 bench/run.py --workload {tower-s3,cli-sweep}
                         --seed N --seconds S --trace {0,1} [--size small]

Run from anywhere; the program under test is ``src/`` next to this
directory.  With --trace 0 the run repeats whole passes of the workload
until the next pass would overrun --seconds (at least two passes) and
reports the end-to-end metrics.  With --trace 1 it makes one untraced
and one traced pass over the same inputs and reports per-layer metrics.
The last line of stdout is the verdict; the line before it carries
informational fields (pass samples, src/ line count, known defects).
"""

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
# set-ups per run, and fresh interpreters timed importing the package
SETUP_REPS = 5
# passes per run, so that no run rests on a single sample
MIN_PASSES = 2


def percentile(samples, pct):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def pass_digest(ops) -> str:
    return workloads.sha(json.dumps([[o.name, o.ok, o.digest] for o in ops]))


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.known_defects = 0
        self.latencies = []
        self.failures = []

    def add(self, ops):
        for op in ops:
            self.attempted += 1
            self.latencies.append(op.seconds)
            if op.known_defect:
                self.known_defects += 1
            if not op.ok:
                self.failed += 1
                self.failures.append(f"{op.name}: {op.note}")


def timed_setup(wl, seed, i):
    gc.collect()
    t0 = perf_counter()
    inp = wl.setup(seed, i)
    return inp, perf_counter() - t0


def timed_pass(wl, inp):
    gc.collect()
    t0 = perf_counter()
    ops = wl.run(inp)
    return ops, perf_counter() - t0


def measure(wl, seed, seconds):
    tally = Tally()
    walls, setups, digest = [], [], None
    while True:
        inp, s = timed_setup(wl, seed, len(walls))
        setups.append(s)
        ops, w = timed_pass(wl, inp)
        del inp
        walls.append(w)
        tally.add(ops)
        digest = digest or pass_digest(ops)
        if (len(walls) >= MIN_PASSES
                and sum(walls) + statistics.median(walls) > seconds):
            break
    while len(setups) < SETUP_REPS:
        setups.append(timed_setup(wl, seed, len(setups))[1])
    # an invocation is what one user request waits for: a CLI process in
    # the sweep, a whole pass of checks in the tower, where the
    # percentiles are those of wall_s's samples
    lat = tally.latencies if wl.invocation_is_call else walls
    import_s = import_times_ms()[0] / 1e3
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "invocation_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "invocation_p85_ms": (percentile(lat, 85) * 1e3, "ms"),
    }
    info = {"passes": len(walls), "wall_samples_s": walls,
            "setup_samples_s": setups, "import_s": import_s,
            "invocation_samples_ms": [x * 1e3 for x in lat],
            "digest": digest}
    return tally, metrics, info


def import_times_ms(reps=SETUP_REPS):
    """Median cumulative import time of hopfforge.cli and of numpy, each
    import made in a fresh interpreter."""
    env = workloads.child_env(ROOT)
    cli, numpy = [], []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hopfforge.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("hopfforge.cli", "numpy"):
                found[parts[2]] = int(parts[1]) / 1e3
        cli.append(found.get("hopfforge.cli", 0.0))
        numpy.append(found.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


def traced(wl, seed, workdir):
    """A traced pass after an untraced one over the same inputs.

    In-process workloads get a second untraced pass after the traced one,
    so the first pass's warm-up does not bias the overhead; the CLI calls
    are fresh processes and need none.
    """
    tally = Tally()
    plains = []

    def plain_pass():
        inp, _ = timed_setup(wl, seed, 0)
        ops, wall = timed_pass(wl, inp)
        tally.add(ops)
        plains.append((ops, wall))

    plain_pass()
    in_children = isinstance(wl, workloads.CliSweep)
    if in_children:
        wl.trace_dir = workdir / "spans"
        wl.trace_dir.mkdir()
    tr = tracer.Tracer()
    wl.pause = tr.paused
    if in_children:
        # the sweep's set-up runs in the parent, not in the program: only
        # the children's spans count there
        inp = wl.setup(seed, 0)
    gc.collect()
    t0 = perf_counter()
    with tr:
        if not in_children:
            inp = wl.setup(seed, 0)
        ops, wall = timed_pass(wl, inp)
    traced_s = perf_counter() - t0
    del inp
    tally.add(ops)
    wl.pause = nullcontext
    if in_children:
        wl.trace_dir = None
    else:
        plain_pass()

    span_sets = [tr.export()]
    if in_children:
        # the spans live in the children; their share is of child wall time
        traced_s = 0.0
        for f in sorted(workdir.glob("spans/call*.json"),
                        key=lambda p: int(p.stem[4:])):
            child = json.loads(f.read_text(encoding="utf-8"))
            span_sets.append(child["spans"])
            traced_s += child["wall_s"]
    same = len({pass_digest(o) for o, _ in plains} | {pass_digest(ops)}) == 1
    if not same:
        tally.attempted += 1
        tally.failed += 1
        tally.failures.append("traced pass differs from untraced passes")

    agg = tracer.aggregate([s for spans in span_sets for s in spans])
    cli_ms, numpy_ms = import_times_ms()
    agg.update({
        "cli.import_ms": cli_ms,
        "cli.numpy_import_ms": numpy_ms,
        "cli.known_defect_calls": sum(o.known_defect for o in ops),
        "trace.top_span_share": agg.pop("_top_s") / traced_s,
        "trace.overhead_s": wall - statistics.mean(w for _, w in plains),
    })
    units = {n: u for n, u, _ in tracer.per_layer_metrics()}
    metrics = {n: (agg[n], units[n]) for n in units}
    spans_file = ROOT / ".bench_work" / f"spans-{wl.name}-{seed}.json"
    spans_file.write_text(json.dumps(span_sets), encoding="utf-8")
    info = {"untraced_wall_s": [w for _, w in plains], "traced_wall_s": wall,
            "digest": pass_digest(plains[0][0]), "traced_same": same,
            "spans_file": str(spans_file.relative_to(ROOT))}
    return tally, metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: the quick self-check inputs")
    args = ap.parse_args(argv)

    pkg = ROOT / "src" / "hopfforge"
    if not (pkg / "__init__.py").is_file():
        print(f"error: no hopfforge sources at {pkg}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[args.workload](ROOT, args.size)
    wl.imports()
    import hopfforge
    if Path(hopfforge.__file__).resolve().parent != pkg.resolve():
        print(f"error: imported hopfforge from {hopfforge.__file__}",
              file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=ROOT / ".bench_work"))
    wl.workdir = workdir
    try:
        if args.trace:
            tally, metrics, info = traced(wl, args.seed, workdir)
        else:
            tally, metrics, info = measure(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({"workload": args.workload, "seed": args.seed,
                 "size": args.size, "src_lines": src_lines(),
                 "known_defects": tally.known_defects,
                 "failures": tally.failures[:20]})
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
