"""One set-up or one measured pass of a workload, in a fresh process.

Usage: ``python3 perfbench/child.py REQUEST.json``.  The request names the
role (``setup`` or ``pass``), workload, seed, work directory, run id, whether
to trace, and the path of the JSON response this process writes.  A fresh
process per pass keeps the set-up's memory out of the pass's peak RSS.
"""

from __future__ import annotations

import ctypes
import json
import platform
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401  (loads scipy's BLAS for the thread query)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def peak_rss_mb() -> float:
    """This process's own RSS high-water mark (VmHWM), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in-process."""
    out = {}
    libs = set()
    for line in Path("/proc/self/maps").read_text().splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in Path(fields[-1]).name:
            libs.add(fields[-1])
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def software() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    workload = workloads.WORKLOADS[request["workload"]]
    role, run_id = request["role"], request["run_id"]
    work = Path(request["work"])
    if role == "setup":
        shutil.rmtree(work / "inputs", ignore_errors=True)
        (work / "inputs").mkdir(parents=True)

    tracer = Tracer(track_alloc=request["track_alloc"])
    if request["trace"]:
        tracer.install()
    elif role == "pass" and workload.probe:
        tracer.install(workload.probe)
    phase = workloads.Phase(tracer, run_id)
    ops = workloads.Ops(workload.planned(role))
    run = workload.setup if role == "setup" else workload.run_pass
    try:
        result = run(work, request["seed"], phase, ops)
    except Exception as exc:  # an exception is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        ops.abort(exc)
        result = {}
    if role == "setup":
        result["inputs_sha256"] = workloads.digest_dir(work / "inputs")
        result["software"] = software()
    response = {"run_id": run_id, "role": role, "wall_s": phase.wall_s, "peak_rss_mb": peak_rss_mb(),
                "attempted": ops.attempted, "failed": ops.failed,
                "errors": ops.errors, "faults": ops.faults,
                "spans": tracer.spans, **result}
    Path(request["out"]).write_text(json.dumps(response))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
