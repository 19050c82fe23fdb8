"""Quick self-check of the benchmark itself.

    python3 bench/selfcheck.py

For every workload at its small size and each of SEEDS, runs bench/run.py
untraced and traced and asserts that both runs are correct, give the
same report digest and report exactly the metrics BENCHMARK.json names.
On the in-process tower-s3 the traced run's top-level spans must cover
at least 90% of its wall time (at full size they cover over 99%; at the
small size the benchmark's own glue weighs more).  Seed 9001 is held
out: it was not used while the benchmark was tuned, so later claims can
be re-checked on it.  Finally it runs the benchmark in a directory that
holds only BENCHMARK.json and bench/, where it must fail without a
verdict.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
IN_PROCESS = ("tower-s3",)
SEEDS = (1, 9001)


def require(ok, what):
    if not ok:
        raise SystemExit(f"FAIL {what}")


def run(root, workload, seed, trace):
    argv = [sys.executable, str(root / "bench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "small"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=600)


def verdict(proc, what):
    require(proc.returncode == 0,
            f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_workload(workload, seed):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        what = f"{workload} seed {seed} trace {trace}"
        info, out = verdict(run(ROOT, workload, seed, trace), what)
        require(out["correct"] and out["failed"] == 0,
                f"{what}: {info['failures']}")
        require(out["attempted"] >= 1, f"{what}: nothing attempted")
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        require(got == want, f"{what}: metrics {set(got) ^ set(want)}")
        if trace and workload in IN_PROCESS:
            share = out["metrics"]["trace.top_span_share"]["value"]
            require(share >= 0.9, f"{what}: top-level span share {share}")
        digests.append(info["digest"])
    require(digests[0] == digests[1], f"{workload} seed {seed}: digests differ")
    print(f"ok  {workload:17s} seed {seed:5d}  digest {digests[0][:16]}")


def check_bare_directory():
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "tower-s3", 1, 0)
        require(proc.returncode != 0, "bare directory run exited 0")
        require('"correct"' not in proc.stdout,
                "bare directory run printed a verdict")
    print("ok  bare directory fails without a verdict")


def main():
    for seed in SEEDS:
        for workload in (w["name"] for w in SPEC["workloads"]):
            check_workload(workload, seed)
    check_bare_directory()


if __name__ == "__main__":
    main()
