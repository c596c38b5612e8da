"""One workload in one fresh Python process.

Started by ``run.py``. Imports the package (from the checkout's ``src``),
builds the workload's seeded inputs, reports the monotonic clock reading
at which set-up ended and the host-speed reference time right after
it, and, unless ``--setup-only``, runs the task loop: closed loop, one
task at a time, a fixed set of tasks (see ``run_loop``). With
``--trace 1`` the same tasks run once more under the tracer and the
result carries the per-layer metrics. The result is one JSON object on
the last line of stdout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import resource
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from tracing import Tracer, loglog_slope

HARD_STOP_FACTOR = 3.0  # a pass stops where it is past this multiple of --seconds
CLI_COMMANDS = ("presets", "rates", "gp", "sweep-cavity", "gp-vs-n", "figure1")


@dataclass
class Record:
    latency_s: float  # wall time
    ref_s: float  # mean reference time around it
    ok: bool
    traced: bool
    facts: dict = field(default_factory=dict)
    problem: str = ""
    error: str = ""

    @property
    def scaled_s(self) -> float:
        return self.latency_s * hostspeed.REFERENCE_S / self.ref_s


def run_loop(workload, seconds, tracer=None, mutate=None):
    """Run a fixed set of rounds once, then, with a tracer, once more
    traced. The round count is ``seconds`` over the workload's baseline
    round cost, in whole ``workload.block``s, so the work a run holds
    depends on ``seconds`` alone, never on the host's speed. Each task is
    timed between two runs of the host-speed reference. A pass that has
    lasted ``HARD_STOP_FACTOR`` times ``seconds`` stops where it is. A
    task that raises or fails a check is recorded as failed; the loop
    goes on."""
    blocks = max(1, int(seconds / (workload.round_s * workload.block)))
    count = min(blocks * workload.block * workload.unit, len(workload.tasks))
    records: list[Record] = []
    for traced in (False, True)[: 1 + (tracer is not None)]:
        start = time.perf_counter()
        for spec in workload.tasks[:count]:
            if traced:
                tracer.install(len(records))
            ref_before = hostspeed.timed_reference()
            t0 = time.perf_counter()
            try:
                out, error = workload.run(spec), None
            except Exception as exc:  # a failing task must not end the run
                out, error = None, exc
            latency = time.perf_counter() - t0
            ref_s = 0.5 * (ref_before + hostspeed.timed_reference())
            if traced:
                tracer.uninstall()
            if error is None:
                if mutate is not None:
                    out = mutate(out)
                try:
                    problems, facts = workload.check(spec, out, traced)
                except Exception as exc:
                    problems, facts = [f"check raised {exc!r}"], {}
                records.append(Record(latency, ref_s, not problems, traced, facts, "; ".join(problems[:2])))
            else:
                records.append(Record(latency, ref_s, False, traced, problem=repr(error), error=type(error).__name__))
            if time.perf_counter() - start > HARD_STOP_FACTOR * seconds:
                break
    return records


def tail(latencies):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(latencies)
    idx = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(records, rusage_who):
    """The end-to-end metrics from the untraced tasks' scaled latencies,
    with the raw wall-time figures beside them."""
    plain = [r for r in records if not r.traced]
    lat = [r.scaled_s for r in plain]
    value, pct = tail(lat)
    return {
        "task_p50_s": statistics.median(lat),
        "task_tail_s": value,
        "tail_percentile": pct,
        "tasks": len(plain),
        "tasks_per_s": sum(r.ok for r in plain) / math.fsum(lat),
        "peak_rss_mb": resource.getrusage(rusage_who).ru_maxrss / 1024.0,
        "wall_p50_s": statistics.median(r.latency_s for r in plain),
        "wall_tail_s": tail([r.latency_s for r in plain])[0],
        "slowdown_p50": statistics.median(r.ref_s for r in plain) / hostspeed.REFERENCE_S,
    }


def _facts(records, key, traced_only=False):
    return [r.facts[key] for r in records if key in r.facts and (r.traced or not traced_only)]


def layer_metrics(records, tracer):
    """Every per-layer metric; 0 where this workload does not reach the layer."""
    layer, fn, by_task = tracer.aggregate()
    m = {}
    for lay in ("kinematics", "cavity", "rates", "dynamics", "geophase", "scenarios", "svgplot"):
        m[f"{lay}.calls"] = layer.get(lay, {}).get("calls", 0)
        m[f"{lay}.self_s"] = layer.get(lay, {}).get("self_s", 0.0)
    busy = lambda *names: sum(fn[n][1] for n in names)  # noqa: E731
    per = lambda total, count, scale: total / count * scale if count else 0.0  # noqa: E731

    rates = layer.get("rates", {"calls": 0, "busy_s": 0.0})
    m["rates.us_per_call"] = per(rates["busy_s"], rates["calls"], 1e6)
    dos_points = sum(_facts(records, "dos_points"))
    m["cavity.dos.points"] = dos_points
    m["cavity.dos.ns_per_point"] = per(sum(_facts(records, "dos_s")), dos_points, 1e9)
    m["cavity.dos.bytes_computed"] = 16 * dos_points

    swept = sum(_facts(records, "points", traced_only=True))
    m["scenarios.sweep_cavity.points"] = swept
    m["scenarios.sweep_cavity.us_per_point"] = per(busy("sweep_cavity"), swept, 1e6)
    m["scenarios.gp_vs_n.busy_s"] = busy("gp_vs_n")
    m["scenarios.serialize.busy_s"] = busy("table_to_csv_text", "table_to_json_text", "write_csv", "write_json")
    m["scenarios.serialize.bytes"] = sum(_facts(records, "serialize_bytes", traced_only=True))
    m["svgplot.busy_s"] = busy("line_chart")
    m["svgplot.bytes"] = sum(_facts(records, "svg_bytes", traced_only=True))

    samples = sum(_facts(records, "samples", traced_only=True))
    m["geophase.tong.calls"] = fn["gp_tong_closed_form"][0]
    m["geophase.tong.busy_s"] = busy("gp_tong_closed_form")
    m["geophase.tong.samples"] = samples
    m["geophase.tong.ns_per_sample"] = per(busy("gp_tong_closed_form"), samples, 1e9)
    # asymptotic cost: calls at n >= 1e3, where fixed per-call work is small
    m["geophase.tong.cost_slope"] = loglog_slope(
        (r.facts["n"], by_task[i]["gp_tong_closed_form"])
        for i, r in enumerate(records)
        if r.traced and r.facts.get("n", 0) >= 1000 and "gp_tong_closed_form" in by_task.get(i, {})
    )
    m["geophase.exact-integral.busy_s"] = busy("gp_exact_integral")
    m["geophase.quasi-cycle.busy_s"] = busy("gp_quasi_cycle")
    m["geophase.case.busy_s"] = busy("gp_case1", "gp_case2")
    m["geophase.numerics_errors"] = sum(r.error == "NumericsError" for r in records)
    tong_digits = _facts(records, "digits_tong")
    exact_digits = _facts(records, "digits_exact")
    m["geophase.nonunitary_digits.tong"] = min(tong_digits, default=0.0)
    m["geophase.nonunitary_digits.exact-integral"] = min(exact_digits, default=0.0)
    m["nonunitary_digits_min"] = min(tong_digits + exact_digits, default=0.0)

    cycles = sum(_facts(records, "cycles", traced_only=True))
    m["dynamics.evolve_ode.calls"] = fn["evolve_ode"][0]
    m["dynamics.evolve_ode.busy_s"] = busy("evolve_ode")
    m["dynamics.evolve_ode.us_per_cycle"] = per(busy("evolve_ode"), cycles, 1e6)
    m["dynamics.evolve_ode.cost_slope"] = loglog_slope(
        (r.facts["cycles"], by_task[i]["evolve_ode"])
        for i, r in enumerate(records)
        if r.traced and r.facts.get("cycles", 0.0) >= 1.0 and "evolve_ode" in by_task.get(i, {})
    )
    m["dynamics.closed_form.busy_s"] = busy("closed_form_rho")
    m["dynamics.trace_distance_max"] = max(_facts(records, "trace_distance"), default=0.0)

    for cmd in CLI_COMMANDS:
        walls = [r.latency_s for r in records if r.facts.get("cmd") == cmd]
        m[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0.0
    m["cli.exit_mismatch"] = sum(_facts(records, "exit_mismatch"))

    plain = [r.scaled_s for r in records if not r.traced]
    traced = [r.scaled_s for r in records if r.traced]
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0 if plain and traced else 0.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out", help="TSV file the spans are written to")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np

    import rotodyne
    from workloads import WORKLOADS

    src = Path(args.src).resolve()
    if src not in Path(rotodyne.__file__).resolve().parents:
        print(f"worker: imported rotodyne from {rotodyne.__file__}, not from {src}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, zlib.crc32(cls.name.encode())])
    workload = cls(rng, Path(args.workdir), args.tiny)
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    # the host's speed as set-up ended; the first run warms the reference's code paths
    result = {"t_ready": t_ready, "ref_s": min(hostspeed.timed_reference() for _ in range(3))}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        t0 = time.perf_counter()
        records = run_loop(workload, args.seconds, tracer)
        is_cli = args.workload == "cli-session"
        result["e2e"] = end_to_end(records, resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
        result["e2e"]["wall_s"] = time.perf_counter() - t0
        result["attempted"] = len(records)
        result["failed"] = sum(not r.ok for r in records)
        result["problems"] = sorted({r.problem for r in records if not r.ok})[:5]
        result["nonunitary_digits_min"] = min(
            _facts(records, "digits_tong") + _facts(records, "digits_exact"), default=None
        )
        result["versions"] = {name: importlib.metadata.version(name) for name in ("numpy", "scipy")}
        if tracer is not None:
            result["layers"] = layer_metrics(records, tracer)
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
