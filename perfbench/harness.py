"""One benchmark run: timed set-up, warm-up, the timed loop, checks and metrics.

With tracing off the run reports the end-to-end metrics named in
BENCHMARK.json; with tracing on it reports the per-layer ones.  Either way
the result counts every attempted operation and every failed one.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics
from workloads import FULL, WORKLOADS, Rep, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9
STARTUP_REPEATS = 3
# op_ms_p90 needs ten or more samples beyond it; it is reported in the info
# line, not gated, because only glide-sweep reaches this count.
P90_MIN_OPS = 100


def metric_units() -> tuple[dict, dict]:
    """(end-to-end units, per-layer units) keyed by metric name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the env setting."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    value = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return int(value) if value else None


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def _timed_subprocess(argv, **kwargs) -> float:
    """Wall time of a child process that must exit 0.

    No timeout: with one, ``Popen.wait`` polls in sleeps of up to 50 ms and
    the time reads in steps of 50 ms.
    """
    start = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, **kwargs)
    return time.perf_counter() - start


def time_setup(name: str, seed: int, workdir: Path, tiny: bool) -> float:
    """Start a process that imports modespect and writes the inputs; its wall time."""
    argv = [sys.executable, str(HERE / "setup_inputs.py"), name, str(seed), str(workdir)]
    return _timed_subprocess(argv + (["--tiny"] if tiny else []))


def cli_startup() -> float:
    argv = [sys.executable, "-c", "import modespect.cli"]
    return statistics.median(
        _timed_subprocess(argv, env=child_env()) for _ in range(STARTUP_REPEATS)
    )


def nproc_thread_run(name: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Body wall and CPU seconds of one untraced run in a child with a BLAS thread per core."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--trace", "0", "--blas-threads", str(os.cpu_count())]
    argv += ["--tiny"] if tiny else []
    out = subprocess.run(
        argv,
        check=True,
        capture_output=True,
        text=True,
        timeout=170,
        env=child_env(),
    )
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return result["metrics"]["wall_s"]["value"], info["info"]["body_cpu_s"]


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def repeat(seconds: float, body) -> list:
    """Run ``body`` until ``seconds`` have passed, at least once."""
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(body())
    return reps


def _guarded(workload, inputs, workdir, in_process: bool, tracer=None) -> Rep:
    """One body execution, traced if a tracer is given, then its checks.

    An exception fails every operation of the rep.
    """
    start = time.perf_counter()
    try:
        with tracer or contextlib.nullcontext():
            rep = workload.body(inputs, workdir, in_process)
        workload.check(rep)
    except Exception:  # a raising program is a measured failure, not a crash
        traceback.print_exc()
        wall = time.perf_counter() - start
        n = workload.ops_per_rep
        return Rep(wall, [wall / n] * n, {}, attempted=n, failed=n)
    return rep


def end_to_end(reps, setup) -> tuple[dict, dict]:
    ops = [s for r in reps for s in r.op_seconds]
    child_rss = [kb for r in reps for kb in r.child_rss_kb]
    peak_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(r.wall for r in reps),
        "op_ms_gmean": 1e3 * statistics.geometric_mean(ops),
        "op_ms_p50": 1e3 * statistics.median(ops),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup),
    }
    samples = {
        "wall_s": len(reps),
        "op_ms_gmean": len(ops),
        "op_ms_p50": len(ops),
        "peak_rss_mb": len(child_rss) or 1,
        "setup_s": len(setup),
    }
    if len(ops) >= P90_MIN_OPS:
        metrics["op_ms_p90"] = 1e3 * statistics.quantiles(ops, n=10, method="inclusive")[8]
        samples["op_ms_p90"] = len(ops)
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=FULL):
    """Run one workload; return (result, info) as printed by run.py."""
    e2e_units, layer_units = metric_units()
    tiny = sizes is not FULL
    workload = WORKLOADS[name](sizes)
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = [time_setup(name, seed, workdir, tiny) for _ in range(SETUP_REPEATS)]
        inputs = workload.load(workdir)
        workload.warm_up(inputs)
        cpu_start = cpu_seconds()
        plain = repeat(
            seconds / 2 if trace else seconds,
            lambda: _guarded(workload, inputs, workdir, False),
        )
        body_cpu_s = (cpu_seconds() - cpu_start) / len(plain)
        reps = list(plain)
        env = env_record()
        if trace:
            tracer = Tracer(workload.op_span)
            traced = repeat(
                seconds / 2, lambda: _guarded(workload, inputs, workdir, True, tracer)
            )
            reps += traced
            tracer.dump(WORK / f"trace-{name}-seed{seed}.jsonl")
            blas_nproc_wall, blas_nproc_cpu = nproc_thread_run(name, seed, tiny)
            metrics = {
                **layer_metrics(tracer.spans, len(traced)),
                "cli.startup_s": cli_startup(),
                "process.cpu_s": body_cpu_s,
                "trace.overhead_s": statistics.median(r.wall for r in traced)
                - statistics.median(r.wall for r in plain),
                "blas_nproc.wall_s": blas_nproc_wall,
                "blas_nproc.cpu_s": blas_nproc_cpu,
                "env.nproc": env["nproc"],
                "env.blas_threads": env["blas_threads"] or 0,
            }
            samples = {k: len(traced) for k in metrics}
            units = layer_units
        else:
            metrics, samples = end_to_end(plain, setup)
            units = e2e_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"BENCHMARK.json metrics not measured: {sorted(missing)}")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rep_wall_s": [r.wall for r in reps],
        "samples": samples,
        "ungated": {k: metrics[k] for k in sorted(metrics.keys() - units.keys())},
        "failed_ratio": failed / attempted,
        "body_cpu_s": body_cpu_s,
        "checks": [r.notes for r in reps],
        "env": env,
    }
    return result, {"info": info}


def format_table(result: dict, info: dict) -> str:
    """Human-readable metric table: name, value, unit, sample count."""
    samples = info["info"]["samples"]
    lines = [f"{info['info']['workload']}  seed={info['info']['seed']}  "
             f"correct={result['correct']}  failed={result['failed']}/{result['attempted']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<16} n={samples[name]}")
    for name, value in info["info"]["ungated"].items():
        lines.append(f"  {name:<36} {value:>14.6g} {'ms':<16} n={samples[name]}  (not gated)")
    return "\n".join(lines)
