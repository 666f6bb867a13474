"""End-to-end benchmark: from a CSV on disk to the analyst's answers.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One invocation writes the workload's
seeded CSV and oracle (``prepare.py``), then repeats fresh-process runs
(``measure.py``) for about ``S`` seconds and reports the median of the runs
(query latency percentiles over the samples of all runs).  Every run gets
its own directory under ``.perfbench-work/`` with a copy of the CSV, an
empty ``REPRO_KERNEL_CACHE`` and an empty ``TMPDIR``, so no cache carried
over from an earlier run can hide work.  After each run the benchmark fails
it if its process group, a ``/dev/shm`` entry or a temp file outlived it.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced runs (plus, on streaming
workloads, the single-process baseline) and prints the per-layer metrics.
The last stdout line is one JSON object with ``correct``, ``attempted``
(runs started), ``failed`` (runs that raised, disagreed with the oracle or
leaked a process, segment or file) and ``metrics``.  The exit code is 0
only when every run passed.  ``--workload all`` measures every workload of
``BENCHMARK.json`` in turn, ``--seconds`` each, and names each metric
``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Set

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SHM = Path("/dev/shm")
#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Fewest measured runs (untraced) or run cycles (traced) per invocation.
MIN_RUNS = {0: 3, 1: 2}
#: No new run starts after this many seconds (an invocation must end by 180 s).
DEADLINE_S = 140.0
#: A single child process is killed after this long.
CHILD_TIMEOUT_S = 60.0
#: Layer self times inside the result_s region, for the printed shares.
RESULT_LAYERS = (
    "datasets.parse_s",
    "core.intern_s",
    "runtime.build_policy_s",
    "runtime.partition_s",
    "core.engine.self_s",
    "runtime.shm.append_s",
    "runtime.shm.finish_s",
    "stores.stats_s",
)


def _group_members(group: int) -> List[int]:
    """Live (non-zombie) processes whose process group is ``group``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == group:
            members.append(int(entry.name))
    return members


def _become_subreaper() -> None:
    """Adopt the processes a run leaves behind, so they can be reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: leaks are still killed
        pass


def _reap(pids: List[int]) -> None:
    """Wait until every killed leftover and every adopted zombie is gone."""
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # not adopted: wait for it to vanish
            deadline = time.monotonic() + 10.0
            while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
                time.sleep(0.05)
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _segments() -> Set[str]:
    if not SHM.is_dir():
        return set()
    return {entry.name for entry in SHM.iterdir()}


def _child(command: List[str], run_dir: Path, errors: List[str]) -> int:
    """Run one benchmark child to completion and check what it left behind.

    The child leads its own process group, so every process it starts
    (shard workers, the resource tracker, the C compiler) can be found and
    stopped afterwards.
    """
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        TMPDIR=str(tmp),
        REPRO_KERNEL_CACHE=str(run_dir / "kernels"),
        # Bytecode is cached as for an installed package, so set-up measures
        # the import itself whether or not the caller's environment disables
        # bytecode writing.
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    segments_before = _segments()
    log_path = run_dir / "log.txt"
    with open(log_path, "w") as log:
        child = subprocess.Popen(
            command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            errors.append(f"run exceeded {CHILD_TIMEOUT_S:.0f} s and was killed")
            os.killpg(child.pid, signal.SIGKILL)
            code = child.wait()
    leaked = _group_members(child.pid)
    if leaked:
        errors.append(f"processes outlived the run: {leaked}")
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _reap(leaked)
    for name in sorted(_segments() - segments_before):
        errors.append(f"shared-memory entry outlived the run: /dev/shm/{name}")
        (SHM / name).unlink(missing_ok=True)
    left = sorted(path.name for path in tmp.iterdir())
    if left:
        errors.append(f"temp files outlived the run: {left}")
    if code != 0:
        tail = log_path.read_text()[-2000:]
        errors.append(f"exit code {code}: {tail}")
    return code


def _prepare(workload: Workload, seed: int, directory: Path) -> None:
    errors: List[str] = []
    command = [
        sys.executable, str(HERE / "prepare.py"), "--workload", workload.name,
        "--seed", str(seed), "--out", str(directory),
    ]
    _child(command, directory / "prepare", errors)
    if errors:
        raise RuntimeError("input generation failed: " + "; ".join(errors))


def _measure(
    workload: Workload, seed: int, mode: str, directory: Path, index: int,
    trace_out: Path,
) -> Dict[str, Any]:
    run_dir = directory / f"run-{index}"
    (run_dir / "kernels").mkdir(parents=True)
    shutil.copyfile(directory / "input.csv", run_dir / "input.csv")
    report_path = run_dir / "report.json"
    command = [
        sys.executable, str(HERE / "measure.py"), "--workload", workload.name,
        "--seed", str(seed), "--dir", str(run_dir), "--mode", mode,
        "--report", str(report_path),
    ]
    if mode == "traced":
        command += ["--trace-out", str(trace_out)]
    errors: List[str] = []
    command += ["--spawned-at", repr(time.monotonic())]
    _child(command, run_dir, errors)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as error:
        report = {"mode": mode, "errors": [f"no run report: {error}"]}
    report["errors"] = report.get("errors", []) + errors
    shutil.rmtree(run_dir)
    return report


def _median(reports: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(report[key] for report in reports)


def _bench(workload: Workload, seed: int, seconds: float, trace: int, wanted) -> Dict[str, Any]:
    """Measure one workload; print its metrics and return its result object."""
    directory = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    directory.mkdir()
    trace_out = WORK / f"trace-{workload.name}.json"
    modes = ["plain"]
    if trace:
        modes.append("traced")
        if workload.streaming_shards:
            modes.append("fused")
    reports: List[Dict[str, Any]] = []
    try:
        _prepare(workload, seed, directory)
        cycles: List[float] = []
        began = time.monotonic()
        while True:
            cycle_began = time.monotonic()
            # Alternate the order, so no mode always runs first in a cycle.
            for mode in modes if len(cycles) % 2 == 0 else modes[::-1]:
                reports.append(
                    _measure(workload, seed, mode, directory, len(reports), trace_out)
                )
            cycles.append(time.monotonic() - cycle_began)
            elapsed = time.monotonic() - began
            if elapsed > DEADLINE_S:
                break
            if len(cycles) >= MIN_RUNS[trace] and (
                elapsed + statistics.median(cycles) > seconds
            ):
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    passed = [report for report in reports if not report["errors"]]
    for report in reports:
        for error in report["errors"]:
            print(f"{workload.name}: {report['mode']} run failed: {error}", file=sys.stderr)
    by_mode = {mode: [r for r in passed if r["mode"] == mode] for mode in modes}
    values: Dict[str, float] = {}
    if all(by_mode.values()):
        plain = by_mode["plain"]
        if trace:
            traced = by_mode["traced"]
            for name in traced[0]["layers"]:
                values[name] = statistics.median(r["layers"][name] for r in traced)
            values["trace.overhead_s"] = _median(traced, "result_s") - _median(plain, "result_s")
            fused = by_mode.get("fused")
            values["stream.fused_baseline_s"] = _median(fused, "result_s") if fused else 0.0
            values["stream.sharded_over_fused"] = (
                _median(plain, "result_s") / values["stream.fused_baseline_s"] if fused else 0.0
            )
        else:
            # Latency percentiles are taken over the samples of all runs
            # together; every other metric is the median of the runs.
            samples = [latency for report in plain for latency in report["query_ms"]]
            values["query_p50_ms"] = statistics.median(samples)
            values["query_p99_ms"] = statistics.quantiles(samples, n=100)[98]
            for metric in wanted:
                if metric["name"] not in values:
                    values[metric["name"]] = _median(plain, metric["name"])
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }

    counts = ", ".join(f"{len(by_mode[mode])} {mode}" for mode in modes)
    print(
        f"{workload.name} seed {seed}: {len(reports)} runs ({counts} passed); "
        "medians over runs"
    )
    if by_mode["plain"]:
        print(
            f"  query latency over {sum(len(r['query_ms']) for r in by_mode['plain'])} "
            "samples of the untraced runs, each the faster of two queries of one vertex"
        )
    for name, metric in metrics.items():
        runs = " ".join(f"{r[name]:.4g}" for r in by_mode["plain"] if name in r)
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}" + (f"  (runs: {runs})" if runs else ""))
    if trace and values:
        base = _median(by_mode["traced"], "result_s")
        shares = ", ".join(
            f"{name} {values[name] / base:.0%}" for name in RESULT_LAYERS if values[name]
        )
        print(f"  layer self time as a share of the traced result_s ({base:.3g} s): {shares}")
    return {
        "correct": len(passed) == len(reports) and len(metrics) == len(wanted),
        "attempted": len(reports),
        "failed": len(reports) - len(passed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload == "all":
        names = [workload["name"] for workload in spec["workloads"]]
    else:
        names = [args.workload]
    _become_subreaper()
    WORK.mkdir(exist_ok=True)

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = _bench(WORKLOADS[name], args.seed, args.seconds, args.trace, wanted)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}/" if args.workload == "all" else ""
        for metric, value in result["metrics"].items():
            total["metrics"][prefix + metric] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
