"""Fast self-check of the benchmark harness at tiny problem sizes.

Usage, from the repository root:  python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is well formed, that every workload runs at tiny
sizes and prints a result line of the right shape with the metrics and
units BENCHMARK.json names, that the correctness checks reject wrong
outputs, that inputs follow the seed, and that the benchmark exits non-zero
without printing a result when the sources are missing.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from modespect import fileio  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract keys")
    names = [w["name"] for w in spec["workloads"]]
    check(2 <= len(names) <= 8 and names == list(workloads.WORKLOADS),
          "workloads match the harness")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "each workload has a one-line why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in all_names) and len(set(all_names)) == len(all_names),
          "names are valid and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "units and directions are valid")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end metrics carry bounds <= 0.25")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics carry no bound")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present with the largest bound")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
          "run_seconds is a whole number in [1, 60]")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(line: str, expected: dict, label: str) -> dict:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1
          and isinstance(result["failed"], int), f"{label}: integer counts")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: correct, no failures")
    got = result["metrics"]
    check(set(got) == set(expected), f"{label}: metric names match BENCHMARK.json")
    check(all(got[n]["unit"] == u and isinstance(got[n]["value"], (int, float))
              and math.isfinite(got[n]["value"]) for n, u in expected.items() if n in got),
          f"{label}: units match and values are finite numbers")
    return got


def check_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        out = run_bench(name, 0)
        check(out.returncode == 0, f"{name}: exit code 0")
        if out.returncode == 0:
            got = check_result(out.stdout.splitlines()[-1], e2e, name)
            check(all(v["value"] > 0 for v in got.values()), f"{name}: end-to-end metrics > 0")
    out = run_bench("cli-pipeline", 1)
    check(out.returncode == 0, "cli-pipeline traced: exit code 0")
    if out.returncode == 0:
        got = check_result(out.stdout.splitlines()[-1], layers, "cli-pipeline traced")
        check(all(got[n]["value"] > 0 for n in ("fileio.read.s", "fileio.write.s",
                                                "fourier.welch.s", "fourier.periodogram.s",
                                                "cli.main.s", "decompose.hodmd.s")),
              "cli-pipeline traced: fileio, fourier, cli and decompose spans recorded")
    trace = ROOT / ".perfbench" / "trace-cli-pipeline-seed3.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    check(bool(spans) and all(s["op"] is not None for s in spans),
          "cli-pipeline traced: every span belongs to a command, none to the checks")


def check_checks(tmp_dir: Path) -> None:
    good = [(1400.1, 3.0), (2600.0, 2.0), (3699.9, 1.0), (3000.0, 0.1)]
    check(workloads.check_glide_peaks(good) is None, "glide peak check accepts the truth")
    shifted = [(1401.0, 3.0)] + good[1:]
    check(workloads.check_glide_peaks(shifted) is not None, "glide peak check rejects 1 Hz off")
    report = tmp_dir / "report.json"
    report.write_text(json.dumps({"mode_errors_hz": [0.001, 0.02]}))
    check(workloads._report_error(report, 0.01) is not None, "report check rejects 0.02 Hz")
    check(workloads._report_error(report, 0.1) is None, "report check accepts within tolerance")
    check(workloads._report_error(tmp_dir / "absent.json", 0.1) is not None,
          "report check rejects a missing report")
    bad = tmp_dir / "bad.csv"
    bad.write_text("# dt=1 t0=0\n1.0\nnot-a-number\n")
    check(not workloads._outputs_ok([(bad, fileio.read_timeseries)]),
          "output check rejects an unparsable CSV")


def check_seeding(tmp_dir: Path) -> None:
    def inputs(seed, tag):
        d = tmp_dir / tag
        d.mkdir()
        for w in workloads.WORKLOADS.values():
            w(workloads.TINY).write_inputs(seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, again, other = inputs(5, "a"), inputs(5, "b"), inputs(6, "c")
    check(first == again, "same seed gives the same inputs")
    check(all(first[k] != other[k] for k in ("glide.npy", "segments.npy", "case2.csv",
                                             "case3.csv", "inputs.json")),
          "another seed changes every input")


def check_bare_directory(tmp_dir: Path) -> None:
    bare = tmp_dir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = run_bench("glide-sweep", 0, cwd=bare)
    check(out.returncode != 0 and not out.stdout.strip(),
          "without the sources: non-zero exit and no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp_dir = Path(tmp)
        check_checks(tmp_dir)
        check_seeding(tmp_dir)
        check_bare_directory(tmp_dir)
    check_runs(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
