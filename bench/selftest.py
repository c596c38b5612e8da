"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py        (from the root of a checkout)

Runs every workload through ``run.py --tiny``, untraced and traced, and
asserts that each prints every metric BENCHMARK.json names, with its
unit, in a well-formed result line. Then feeds each workload's task loop
a deliberately corrupted output and asserts that those tasks are counted
as failed. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, res = run_bench(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (workload, res)
            assert any(line.startswith("fail_ratio ") for line in lines), workload
            if trace == 0:
                assert all(m["value"] > 0 for m in res["metrics"].values()), (workload, res["metrics"])
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, {res['attempted']} tasks")


def check_corruption_counts() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import worker
    import workloads

    scratch = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(np.random.default_rng(7), scratch / name, True)
        records = worker.run_loop(wl, 0.0, mutate=cls.corrupt)
        failed = sum(not r.ok for r in records)
        assert records and failed == len(records), (name, [r.problem for r in records])
        print(f"ok  {name}: corrupted outputs give fail_ratio {failed / len(records):g} ({records[0].problem})")
    shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_corruption_counts()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
