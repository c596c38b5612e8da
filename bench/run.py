"""Benchmark of the rotodyne package: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``. The workload runs in a fresh worker process (``worker.py``);
four more fresh processes only set up, two before it and two after, so
that ``setup_s`` is a median of five taken across the run. Every
process stays on one CPU, and every time is reported at the host's fast
speed, read from a reference computation (``hostspeed.py``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics (import probe, spans, accuracy figures); names and
units come from BENCHMARK.json. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Scratch files go
to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUPS = 5  # fresh processes whose set-up time is measured; the median is reported
IMPORT_REPEATS = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    pass


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so readings compare across processes
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn_worker(args, env, workdir: Path, setup_only: bool) -> tuple[tuple[float, float], dict]:
    """((set-up time, set-up time at the host's fast speed), result)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), "--src", str(ROOT / "src"),
        "--trace-out", str(trace_path(args)),
    ]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    ref_before = min(hostspeed.timed_reference() for _ in range(3))
    t_spawn = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    setup = result["t_ready"] - t_spawn
    return (setup, hostspeed.scaled(setup, ref_before, result["ref_s"])), result


def trace_path(args) -> Path:
    return ROOT / ".bench_work" / f"trace-{args.workload}.tsv"


def subprocess_wall(args, env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, env=env, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - t0


def import_probe(env) -> dict:
    """import.* metrics from fresh interpreters; the package is not touched."""
    rot = statistics.median(subprocess_wall(["-c", "import rotodyne"], env) for _ in range(IMPORT_REPEATS))
    npy = statistics.median(subprocess_wall(["-c", "import numpy"], env) for _ in range(IMPORT_REPEATS))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rotodyne"],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    # lines come children first; read them parents first, so that a scipy
    # module counts once, at its outermost entry, with everything under it
    total = scipy_cum = 0
    open_entries: list[tuple[int, bool]] = []  # (indent, inside scipy) of the enclosing entries
    for line in reversed(proc.stderr.splitlines()):
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
        while open_entries and open_entries[-1][0] >= indent:
            open_entries.pop()
        inside = bool(open_entries) and open_entries[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if name == "rotodyne":
            total = cumulative
        elif is_scipy and not inside:
            scipy_cum += cumulative
        open_entries.append((indent, inside or is_scipy))
    if total == 0:
        raise BenchError("-X importtime output has no rotodyne line")
    return {"import.rotodyne_s": rot, "import.numpy_floor_s": npy, "import.scipy_frac": scipy_cum / total}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rotodyne benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="small inputs and one set-up, for the self-test")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rotodyne" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from the root of a rotodyne checkout (src/rotodyne and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "ROTODYNE_OUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    hostspeed.pin_to_one_cpu()
    try:
        imports = import_probe(env) if args.trace else {}
        # set-up-only processes on both sides of the worker, so drift of
        # the host's speed during the run weighs on both halves alike
        extra = 0 if args.tiny else SETUPS - 1
        setups = [spawn_worker(args, env, work / f"setup{k}", True)[0] for k in range(extra // 2)]
        setup_main, res = spawn_worker(args, env, work / "main", False)
        setups.append(setup_main)
        setups += [spawn_worker(args, env, work / f"setup{k}", True)[0] for k in range(extra // 2, extra)]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    e2e = res["e2e"]
    values = dict(imports, **res.get("layers", {}))
    values.update(
        setup_s=statistics.median(scaled for _, scaled in setups),
        task_p50_s=e2e["task_p50_s"],
        task_tail_s=e2e["task_tail_s"],
        tasks_per_s=e2e["tasks_per_s"],
        peak_rss_mb=e2e["peak_rss_mb"],
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    versions = res["versions"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"machine  nproc={os.cpu_count()}  cpu={cpu_model()!r}  python {platform.python_version()}"
        f"  numpy {versions['numpy']}  scipy {versions['scipy']}"
    )
    print(f"load     closed loop, 1 client, {res['attempted']} tasks in {e2e['wall_s']:.2f} s")
    print(f"setup    {', '.join(f'{s:.4f}' for s, _ in setups)} s wall")
    print(f"setup    {', '.join(f'{s:.4f}' for _, s in setups)} s at fast speed (median reported)")
    print(
        f"host     reference {e2e['slowdown_p50']:.3f}x its fast time (median over tasks);"
        f" wall p50 {e2e['wall_p50_s']:.6g} s, wall tail {e2e['wall_tail_s']:.6g} s"
    )
    beyond = round(e2e["tasks"] * (1.0 - e2e["tail_percentile"] / 100.0))
    print(f"tail     p{e2e['tail_percentile']:.1f} of {e2e['tasks']} tasks ({beyond} beyond it)")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} ({res['failed']} failed of {res['attempted']} attempted)")
    if res["nonunitary_digits_min"] is not None:
        print(f"nonunitary_digits_min {res['nonunitary_digits_min']:.4f} digits")
    if args.trace:
        print(f"spans    {trace_path(args)}")
    for problem in res["problems"]:
        print(f"failed   {problem}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
        )
    )
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
