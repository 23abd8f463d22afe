"""seqnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {build,analyze} --seed N \
        --seconds S --trace {0,1}

Generates the workload's input from the seed, then starts fresh worker
processes (``worker.py``), each limited to ``nproc`` BLAS threads. With
``--trace 0`` a few of them only set up, to sample the set-up time, and one
sets up and runs untraced pipeline passes for the rest of the ``--seconds``
budget; the result carries the end-to-end metrics. With ``--trace 1`` a
single worker runs traced passes and the result carries the per-layer
metrics. The last line
of standard output is the JSON result; the lines before it are a readable
summary and the full record (work counts, checks, provenance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({name: str(NPROC) for name in BLAS_ENV})

WORKLOAD_NAMES = ("build", "analyze")
SETUP_PROBES = 4  # set-up-only processes; the measuring process adds one more sample
WORKER_TIMEOUT_S = 170.0

END_TO_END = {
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "f1_macro": "ratio",
}


def spawn(workload, seed, workdir, out, budget=0.0, trace=0, setup_only=False):
    """Run one worker to completion and return the result it wrote."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget), "--trace", str(trace),
           "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {workload} timed out") from None
    if code != 0 or not Path(out).exists():
        raise RuntimeError(f"worker for {workload} exited with code {code}")
    return json.loads(Path(out).read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def blas_info():
    """BLAS library name and version as numpy was built, and the thread count
    the loaded library reports (the environment setting if it cannot be asked)."""
    import ctypes

    import numpy as np

    info = {"threads_requested": NPROC}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                info["library"] = Path(path).name
                return info
    return info


def provenance(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqnet").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "workload_seed": seed,
    }


def measure(workload, seed, seconds, trace, workdir):
    """Set-up samples before and after the measuring process, which gets the
    rest of ``seconds``; spreading the samples over the run steadies their
    median. A traced run reports no set-up time and takes no samples."""
    main = workdir / "main.json"
    if trace:
        result = spawn(workload, seed, workdir, main, budget=seconds, trace=1)
        setups = [result["setup_s"]]
    else:
        started = time.monotonic()

        def probe(i):
            return spawn(workload, seed, workdir, workdir / f"probe{i}.json",
                         setup_only=True)["setup_s"]

        setups = [probe(i) for i in range(SETUP_PROBES // 2)]
        remaining = SETUP_PROBES - len(setups) + 1  # the measuring process sets up too
        budget = seconds - (time.monotonic() - started) - remaining * statistics.median(setups)
        result = spawn(workload, seed, workdir, main, budget=max(0.0, budget))
        setups += [result["setup_s"]] + [probe(i) for i in range(len(setups), SETUP_PROBES)]
    result["setups"] = setups
    result["peak_rss_mb"] = result["peak_kb"] * 1024 / 1e6
    return result


def summarise(workload, seed, trace, result):
    walls = result["walls"]
    checks = result["checks"]
    failed = result["failed_calls"] + sum(not ok for ok in checks.values())
    attempted = result["calls"] + len(checks)
    n = result["n"]
    rates = [n / w for w in walls]
    record = {
        "workload": workload,
        "n": n,
        "length": result["length"],
        "class_counts": result["class_counts"],
        "trace": trace,
        "passes": len(walls),
        "pass_walls_s": walls,
        "records_per_s": {"median": statistics.median(rates),
                          "quartiles": quartiles(rates), "samples": len(rates)},
        "setup_s": {"median": statistics.median(result["setups"]),
                    "quartiles": quartiles(result["setups"]),
                    "samples": len(result["setups"])},
        "peak_rss_mb": result["peak_rss_mb"],
        "f1_macro": result["f1_macro"],
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "work": result["work"],
        "checks": checks,
        "provenance": provenance(seed),
    }
    end_to_end = {
        "records_per_s": record["records_per_s"]["median"],
        "setup_s": record["setup_s"]["median"],
        "peak_rss_mb": record["peak_rss_mb"],
        "f1_macro": record["f1_macro"],
    }
    if trace:
        metrics = result["layers"]
        record["layers"] = {name: m["value"] for name, m in metrics.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"perfbench {workload} seed={seed} n={n} L={result['length']} classes={len(result['class_counts'])} "
          f"passes={len(walls)} traced={trace}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<34} {record['failed_frac']:>14.6g} fraction "
          f"({failed} of {attempted} calls and checks)")
    print("  work: " + " ".join(f"{k}={v}" for k, v in sorted(result["work"].items())))
    print("record: " + json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seqnet" / "__init__.py").is_file():
        print(f"perfbench: no seqnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        spans_path = scratch / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(result.pop("spans")))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    print(json.dumps(summarise(args.workload, args.seed, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
