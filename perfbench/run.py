"""Run one benchmark workload of lrhmm and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``BENCHMARK.json`` there lists the
workloads and metrics.  Load model: closed loop with one caller; every job
runs serially (``n_workers=1``) with one BLAS thread, and the next call is
issued when the previous one returns.

``--trace 0`` sets the workload up several times (``setup_s`` is the median)
and then runs measured passes, each in a fresh process that reads the set-up
artifacts, until ``--seconds`` are used (at least one pass; two where outputs
are compared across passes).  End-to-end metrics are medians over passes.

``--trace 1`` wraps every public function of the lrhmm layers, runs one
untraced pass and two traced set-up + pass pairs, and reports per-layer
metrics: self times and call counts from the first pair, the tracemalloc
peak of each fit from the second (tracemalloc slows the code it watches),
computed counts (required to repeat exactly between the pairs), and the
tracing overhead: traced minus untraced pass time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
machine, the source revision, the seed and the tail percentiles.  Spans and
a full report go to ``.perfbench_work/<workload>/``.  A run with a failed
operation or check exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Untraced set-ups per run, whose median is setup_s: at least SETUPS, and
# more, up to SETUPS_MAX, while they have taken under SETUP_BUDGET_S.
SETUPS, SETUPS_MAX, SETUP_BUDGET_S = 3, 7, 3.0
DEADLINE_S = 170    # no child process outlives this, so a run ends in 180 s
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def source_revision() -> dict:
    """The git commit when the checkout is a git work tree, and a digest of
    the package sources either way."""
    rev = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "lrhmm").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return {"git": rev, "src_sha256": h.hexdigest()}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.runs: list[dict] = []

    def child(self, role: str, run_id: str, trace: bool, track_alloc=False) -> dict:
        out = self.work / f"{run_id}.response.json"
        request = self.work / f"{run_id}.request.json"
        request.write_text(json.dumps({
            "role": role, "workload": self.workload.name, "seed": self.seed,
            "work": str(self.work), "run_id": run_id, "trace": trace,
            "track_alloc": track_alloc, "out": str(out)}))
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            raise HarnessError(f"no time left for {run_id}")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(request)],
                                  cwd=ROOT, stdout=sys.stderr,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{run_id} did not finish in {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise HarnessError(f"{run_id} exited with status {proc.returncode}")
        response = json.loads(out.read_text())
        self.runs.append(response)
        return response


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than eleven."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, runner: Runner, seconds: int, faults: list) -> dict:
    setups = []
    started = time.monotonic()
    while len(setups) < SETUPS or (len(setups) < SETUPS_MAX and
                                   time.monotonic() - started < SETUP_BUDGET_S):
        setups.append(runner.child("setup", f"setup{len(setups) + 1}", False))
    if len({s["inputs_sha256"] for s in setups}) != 1:
        faults.append("set-up artifacts differ between set-ups of one seed")
    passes = []
    started = time.monotonic()
    while True:
        begin = time.monotonic()
        passes.append(runner.child("pass", f"pass{len(passes) + 1}", False))
        now = time.monotonic()
        last = now - begin
        if len(passes) >= workload.min_passes and (
                now - started + last > seconds or now + 2 * last > runner.deadline):
            break
    _compare_outputs(passes)

    tails = [tail(p["score_ms"]) for p in passes]
    print(f"setup_s: median of {len(setups)} set-ups; other metrics: median of "
          f"{len(passes)} passes")
    print(f"score_ms_tail: p{tails[0][1]:.1f} of {tails[0][2]} scored recordings "
          "per pass")
    return {
        "setup_s": median([s["wall_s"] for s in setups]),
        "run_s": median([p["wall_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "score_ms_p50": median([statistics.median(p["score_ms"]) for p in passes]),
        "score_ms_tail": median([t[0] for t in tails]),
        "decisions_per_s": median([p["decisions"] / p["wall_s"] for p in passes]),
    }


def _compare_outputs(passes) -> None:
    """Fail each scored recording whose output bytes differ from the first
    pass's; passes of workloads that record no digests are skipped."""
    first, *others = [p for p in passes if "digests" in p] or [None]
    for p in others:
        differ = sum(a != b for a, b in zip(first["digests"], p["digests"]))
        differ += abs(len(first["digests"]) - len(p["digests"]))
        if differ:
            p["failed"] += differ
            p["errors"].append(f"{differ} recordings: output bytes differ from "
                               f"{first['run_id']} on the same inputs")


# Counts that must repeat exactly between the two traced pairs.
EXACT = ("training.em_iterations", "training.nonconverged", "training.band_cells",
         "training.estep_array_mb", "inference.band_cells", "experiments.resamples")


def layer_metrics(pair, names) -> dict:
    """Per-layer metrics over one traced set-up and one traced pass."""
    from tracing import SCORING, self_times

    stats: dict = {}
    for run in pair:
        for name, (self_s, calls) in self_times(run["spans"]).items():
            entry = stats.setdefault(name, [0.0, 0])
            entry[0] += self_s
            entry[1] += calls
    spans = [s for run in pair for s in run["spans"]]

    def self_s(name):
        return stats.get(name, [0.0, 0])[0]

    fits = [s[5] for s in spans if s[0] == "training.baum_welch" and "raised" not in s[5]]
    fit_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "training.baum_welch"]
    iterations = sum(f["iterations"] for f in fits)
    # A trained model has one state per step, so T = N.
    cells = sum(f["iterations"] * f["K"] * f["N"] * f["N"] * (f["band"] + 1) for f in fits)
    scoring_cells = sum(s[5]["cells"] for s in spans if s[0] in SCORING)
    scoring_s = sum(self_s(n) for n in SCORING)
    csv_bytes = sum(s[5]["bytes"] for s in spans if s[0] == "dataio.load_csv")
    out = {
        "training.em_iterations": iterations,
        "training.nonconverged": sum(not f["converged"] for f in fits),
        "training.band_cells": cells,
        "training.em_iter_ms": self_s("training.baum_welch") * 1e3 / max(iterations, 1),
        "training.band_cells_per_s": cells / self_s("training.baum_welch") if fits else 0.0,
        # log_b, alpha, beta and gamma: four float64 (K, T, N) arrays per fit
        "training.estep_array_mb": max((4 * 8 * f["K"] * f["N"] ** 2 for f in fits),
                                       default=0) / 2 ** 20,
        "training.peak_alloc_mb": max((f.get("peak_alloc_bytes", 0) for f in fits),
                                      default=0) / 2 ** 20,
        "inference.band_cells": scoring_cells,
        "inference.band_cells_per_s": scoring_cells / scoring_s if scoring_s else 0.0,
        "dataio.load_csv.mb_per_s": (csv_bytes / 2 ** 20 / self_s("dataio.load_csv")
                                     if csv_bytes else 0.0),
        "experiments.resamples": sum(run.get("resamples", 0) for run in pair),
        "training.fit_ms_p50": median(fit_ms),
        "training.fit_ms_tail": tail(fit_ms)[0] if fit_ms else 0.0,
        "fit_tail_at": tail(fit_ms)[1:] if fit_ms else (0.0, 0),
    }
    for name in names:
        layer, _, metric = name.rpartition(".")
        if metric == "self_ms":
            out[name] = self_s(layer) * 1e3
        elif metric == "calls":
            out[name] = stats.get(layer, [0.0, 0])[1]
    return out


def per_layer(workload, runner: Runner, names, faults: list) -> dict:
    from tracing import self_times

    setups = [runner.child("setup", "setup1", True)]
    untraced = runner.child("pass", "pass1", False)
    traced = [runner.child("pass", "pass2", True)]
    setups.append(runner.child("setup", "setup2", True, track_alloc=True))
    traced.append(runner.child("pass", "pass3", True, track_alloc=True))
    _compare_outputs([untraced, *traced])
    for run, expected in [(s, workload.expect_setup) for s in setups] + \
                         [(p, workload.expect_pass) for p in traced]:
        fired = {s[0] for s in run["spans"]}
        missing = sorted(set(expected) - fired)
        if missing:
            faults.append(f"{run['run_id']}: wrappers never fired: {missing}")
        busy = sum(v[0] for v in self_times(run["spans"]).values())
        if busy > run["wall_s"]:
            faults.append(f"{run['run_id']}: self times sum to {busy:.3f} s, more "
                          f"than the phase's {run['wall_s']:.3f} s")

    pairs = [layer_metrics(pair, names) for pair in zip(setups, traced)]
    for key in [*EXACT, *(n for n in names if n.endswith(".calls"))]:
        if len({p[key] for p in pairs}) != 1:
            faults.append(f"computed count {key} differs between runs: "
                          f"{[p[key] for p in pairs]}")
    metrics = pairs[0]
    metrics["training.peak_alloc_mb"] = pairs[1]["training.peak_alloc_mb"]
    metrics["trace.overhead_s"] = traced[0]["wall_s"] - untraced["wall_s"]
    pct, n = metrics["fit_tail_at"]
    print(f"training.fit_ms_tail: p{pct:.1f} of {n} baum_welch calls")
    print("per-layer metrics: times from the first traced set-up + pass, "
          "training.peak_alloc_mb from the second; computed counts "
          f"({', '.join(EXACT)}) come from call arguments and shapes, not timers")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    start = time.monotonic()

    package = ROOT / "src" / "lrhmm" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from the root of an lrhmm "
              "checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    for key in BLAS_ENV:    # inherited by every child process
        os.environ[key] = BLAS_THREADS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work, start + DEADLINE_S)
    revision = source_revision()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    faults: list[str] = []
    try:
        if args.trace:
            specs = bench["per_layer"]
            values = per_layer(workload, runner, [m["name"] for m in specs], faults)
        else:
            specs = bench["end_to_end"]
            values = end_to_end(workload, runner, args.seconds, faults)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    machine = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
               "cpu": cpu_model(), "blas_threads_env": BLAS_THREADS,
               **next(r["software"] for r in runner.runs if r["role"] == "setup")}
    attempted = sum(r["attempted"] for r in runner.runs)
    failed = sum(r["failed"] for r in runner.runs)
    faults += [f for r in runner.runs for f in r["faults"]]
    errors = [f"{r['run_id']}: {e}" for r in runner.runs for e in r["errors"]]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print("machine " + json.dumps(machine))
    print("revision " + json.dumps(revision))
    print(f"ops_failed_frac: {failed / max(attempted, 1)} ({failed} of {attempted} "
          "fits, scored recordings, model loads and distances failed)")
    for line in (errors + faults)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    (work / "spans.json").write_text(json.dumps({r["run_id"]: r["spans"]
                                                 for r in runner.runs}))
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "revision": revision,
              "metrics": metrics, "errors": errors, "faults": faults,
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runner.runs]}
    (work / "report.json").write_text(json.dumps(report, indent=1))
    correct = failed == 0 and not faults
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
