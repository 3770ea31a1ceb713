"""bornscat benchmark: time to a verified result and peak memory, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Each repetition runs in a fresh child interpreter (perfbench/child.py), one
at a time, so a child's peak RSS belongs to that repetition alone.  A run
first starts one untimed child that imports bornscat (warming the page cache
and byte-code files) and records library versions, then repeats the workload
until --seconds would be exceeded:

* --trace 0: full repetitions (at least two), then set-up-only repetitions
  until there are at least five set-up samples.  Reports BENCHMARK.json's
  end_to_end metrics as medians.
* --trace 1: traced and untraced repetitions alternate (at least one each).
  Reports BENCHMARK.json's per_layer metrics as medians over the traced
  ones; trace.overhead_s is traced minus untraced median solve_s.

Every repetition is checked: the workload's own gate, its exactness orders,
and the SHA-256 of its artifacts against the first digest seen for the same
workload, seed and source tree (kept under .perfbench/digests).  Traced
repetitions must also reproduce the workload's call counts exactly and fire
every wrapper the workload reaches.  A failing repetition is counted in
`failed` and never re-drawn.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2: usage error, or the program or
BENCHMARK.json is missing; 1: nothing could be measured; 0 otherwise.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import moves, unit_of
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
STATE = ROOT / ".perfbench"
MIN_FULL = 2
MIN_SETUP = 5
HARD_LIMIT = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class HarnessError(RuntimeError):
    """The benchmark could not measure anything; no result is printed."""

    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bornscat" / "__init__.py").is_file():
        raise HarnessError(f"program source not found under {ROOT / 'src'}", code=2)
    if not path.is_file():
        raise HarnessError(f"{path} not found", code=2)
    bench = json.loads(path.read_text())
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise HarnessError("BENCHMARK.json workloads differ from perfbench/workloads.py", code=2)
    return bench


def source_hash():
    """Digest of the program and benchmark sources: 'the same commit'."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "bornscat").rglob("*.py"))
    files += sorted(CHILD.parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spawn(job, rundir, index, hard_deadline):
    """Run one child to completion and return its result record."""
    workdir = rundir / f"rep{index:03d}"
    workdir.mkdir()
    job = dict(job, workdir=str(workdir), result=str(workdir / "result.json"))
    if job.get("inputs", {}).get("kind") == "cli":
        (workdir / "config.json").write_text(json.dumps(job["inputs"]["config"]))
    job_file = workdir / "job.json"
    job_file.write_text(json.dumps(job))
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job_file), repr(start)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(1.0, hard_deadline - start),
        )
    except subprocess.TimeoutExpired:
        rep = {"ok": False, "error": "timed out"}
    else:
        result = Path(job["result"])
        if proc.returncode == 0 and result.is_file():
            rep = json.loads(result.read_text())
        else:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
            rep = {"ok": False, "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    rep.update(wall=time.monotonic() - start, mode=job["mode"], traced=job.get("trace", False))
    shutil.rmtree(workdir, ignore_errors=True)
    return rep


def median_wall(reps, fallback):
    walls = [r["wall"] for r in reps]
    return statistics.median(walls) if walls else fallback


def repeat(job, rundir, seconds, trace):
    """All measured repetitions of one run, within the time budget."""
    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT
    reps = []

    def run(mode, traced):
        reps.append(spawn(dict(job, mode=mode, trace=traced), rundir, len(reps), hard))

    def of(mode, traced=None):
        return [r for r in reps if r["mode"] == mode and traced in (None, r["traced"])]

    def setup_wall():
        # a set-up-only child costs its set-up time plus process teardown
        samples = [r["setup_s"] for r in reps if "setup_s" in r]
        guess = statistics.median(samples) + 0.2 if samples else 0.5
        return median_wall(of("setup"), guess)

    while time.monotonic() < hard:
        if trace:
            traced = len(of("full", True)) <= len(of("full", False))
            if of("full", True) and of("full", False):
                if time.monotonic() + median_wall(of("full", traced), 0) > deadline:
                    break
            run("full", traced)
            continue
        full = of("full")
        if len(full) >= MIN_FULL:
            missing = max(0, MIN_SETUP - len(full) - 1)
            if time.monotonic() + median_wall(full, 0) + missing * setup_wall() > deadline:
                break
        run("full", False)
    while not trace and len(reps) < MIN_SETUP:
        if time.monotonic() + setup_wall() > min(deadline, hard):
            break
        run("setup", False)
    return reps


class DigestBook:
    """First artifact digest per (workload, seed, source tree), kept on disk."""

    def __init__(self, name, seed):
        folder = STATE / "digests"
        folder.mkdir(parents=True, exist_ok=True)
        self.path = folder / f"{name}-seed{seed}-{source_hash()}.sha256"
        self.first = self.path.read_text().strip() if self.path.is_file() else None

    def matches(self, digest):
        if self.first is None:
            self.first = digest
            self.path.write_text(digest + "\n")
        return digest == self.first


def problems_of(rep, spec, book):
    """Why a repetition failed; empty when it passed every check."""
    if not rep["ok"]:
        return [rep["error"].strip().splitlines()[-1]]
    if rep["mode"] != "full":
        return []
    found = []
    if not rep["passed"]:
        found.append("workload gate failed")
    if rep["exact_orders"] != spec["exact_orders"]:
        found.append(f"exactness orders {rep['exact_orders']} != {spec['exact_orders']}")
    if not book.matches(rep["digest"]):
        found.append("artifact digest differs from the first run")
    if rep["traced"]:
        layers = rep["layers"]
        for name, count in spec["counts"].items():
            if layers.get(f"{name}.calls") != count:
                found.append(f"{name} called {layers.get(f'{name}.calls')} times, expected {count}")
        silent = set(spec["counts"]) | set(spec["fires"])
        silent -= set(rep["fired"])
        if silent:
            found.append("wrappers never fired: " + ", ".join(sorted(silent)))
    return found


def describe(values):
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p >= 50:
        text += f", p{p} {sorted(values)[math.ceil(p * n / 100) - 1]:.6g}"
    return text + f" (n={n})"


def summarize(name, seed, trace, why, machine, reps):
    """Check every repetition, print the human report, return the result."""
    spec = WORKLOADS[name]
    book = DigestBook(name, seed)
    failed = 0
    print(f"workload {name}, seed {seed}, trace {trace}: {why}")
    for index, rep in enumerate(reps):
        found = problems_of(rep, spec, book)
        rep["problems"] = found
        failed += bool(found)
        kind = rep["mode"] + (" traced" if rep["traced"] else "")
        times = (f"setup {rep['setup_s']:.4f} s, solve {rep['solve_s']:.4f} s, "
                 f"rss {rep['peak_rss_mb']:.1f} MB" if "solve_s" in rep else "no timings")
        print(f"  rep {index:2d} {kind:12s} {times}: " + ("; ".join(found) or "ok"))
    done = [r for r in reps if r["ok"]]
    full = [r for r in done if r["mode"] == "full" and not r["traced"]]
    traced = [r for r in done if r["mode"] == "full" and r["traced"]]
    if not full or (trace and not traced):
        raise HarnessError(f"{name}: no repetition completed")
    values = {}
    if trace:
        for key, value in traced[0]["layers"].items():
            if value is None:  # a ratio over zero calls is undefined
                continue
            samples = [r["layers"][key] for r in traced]
            # counts and computed sizes repeat exactly; keep them as they are
            values[key] = value if len(set(samples)) == 1 else statistics.median(samples)
        values["trace.overhead_s"] = (
            statistics.median(r["solve_s"] for r in traced)
            - statistics.median(r["solve_s"] for r in full)
        )
        for key in sorted(values):
            computed = " (computed)" if key.endswith((".gflop", ".mb")) else ""
            print(f"  {key:34s} {values[key]:>14.6g} {unit_of(key):6s} "
                  f"moves {moves(key)}{computed}")
    else:
        values["setup_s"] = statistics.median(r["setup_s"] for r in done)
        values["solve_s"] = statistics.median(r["solve_s"] for r in full)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in full)
        if all("vanish_digits" in r for r in full):
            values["vanish_digits"] = statistics.median(r["vanish_digits"] for r in full)
        values["vanish_ratio"] = max(r["vanish_ratio"] for r in full)
        if full[0]["farfield_err"] is not None:
            values["farfield_err"] = max(r["farfield_err"] for r in full)
        print(f"  setup_s      (s)     {describe([r['setup_s'] for r in done])}")
        print(f"  solve_s      (s)     {describe([r['solve_s'] for r in full])}")
        print(f"  peak_rss_mb  (MB)    {describe([r['peak_rss_mb'] for r in full])}")
        print(f"  vanish_ratio (ratio) worst must-vanish order {values['vanish_ratio']:.6g}; "
              f"vanish_digits {values.get('vanish_digits', float('nan')):.6g}")
        if "farfield_err" in values:
            print(f"  farfield_err (ratio) worst direction {values['farfield_err']:.6g} "
                  f"(gate <= 0.05)")
    print(f"  fail_frac    (ratio) {failed}/{len(reps)} = {failed / len(reps):.6g}")
    report = {
        "workload": name, "seed": seed, "trace": trace, "machine": machine,
        "values": values, "failed": failed, "attempted": len(reps),
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "spans": traced[0]["spans"] if trace else None,
    }
    (STATE / "reports").mkdir(parents=True, exist_ok=True)
    report_path = STATE / "reports" / f"{name}-seed{seed}-trace{trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    print(f"  report written to {report_path.relative_to(ROOT)}")
    return values, len(reps), failed


def machine_lines(probe):
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return [
        f"machine: nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
        f"python {probe['python']}, numpy {probe['numpy']}, scipy {probe['scipy']}, "
        f"fft {probe['fft']}, blas {probe['blas']}",
        f"threads: {threads}",
    ]


def measure(name, seed, seconds, trace, why):
    """One run of one workload: probe, repeat, check, report."""
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE / "tmp"))
    try:
        job = {"inputs": make_inputs(name, seed)}
        probe = spawn(dict(job, mode="probe"), rundir, 0, time.monotonic() + 60)
        if not probe["ok"]:
            raise HarnessError(f"cannot start the program: {probe['error']}")
        for line in machine_lines(probe["machine"]):
            print(line)
        reps = repeat(job, rundir, seconds, trace)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return summarize(name, seed, trace, why, probe["machine"], reps)


def select(bench, trace, values, prefix=""):
    """The BENCHMARK.json metrics this mode reports, with their units."""
    out = {}
    for entry in bench["per_layer" if trace else "end_to_end"]:
        if entry["name"] not in values:
            raise HarnessError(f"metric {entry['name']} was not measured")
        out[prefix + entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if seconds < 1:
            raise HarnessError("--seconds must be at least 1", code=2)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed, rows = {}, 0, 0, []
        whys = {w["name"]: w["why"] for w in bench["workloads"]}
        for name in names:
            values, n, bad = measure(name, args.seed, seconds, args.trace, whys[name])
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update(select(bench, args.trace, values, prefix))
            attempted += n
            failed += bad
            rows.append((name, values, n, bad))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    if len(rows) > 1 and not args.trace:
        print(f"{'workload':12s} {'setup_s (s)':>12s} {'solve_s (s)':>12s} "
              f"{'peak_rss_mb (MB)':>17s} {'fail_frac (ratio)':>18s}  accuracy (ratio)")
        for name, values, n, bad in rows:
            accuracy = "farfield_err" if "farfield_err" in values else "vanish_ratio"
            print(f"{name:12s} {values['setup_s']:12.4f} {values['solve_s']:12.4f} "
                  f"{values['peak_rss_mb']:17.1f} {bad / n:18.4g}  "
                  f"{accuracy} {values[accuracy]:.4g}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
