"""The four benchmark workloads: seeded inputs, the timed task, and its checks.

Each workload builds its whole task list in ``__init__`` (that is part
of set-up) as a sequence of rounds; a run takes the first
``seconds / round_s`` of them, rounded down to a whole number of
``block``s and at least one block (``worker.run_loop``). ``round_s`` is
a round's cost, checks included, on the baseline machine in its fast
state, so the work a run holds is fixed by ``--seconds``. A round holds
one task per point of a log-spaced lattice over the size that sets a
task's cost (grid points, cycle count, simulated cycles), each moved by
a seeded factor within +-2.3 %, so every seed gives the same mix of
sizes. Costs spread over three decades and a run holds only tens of the
largest tasks, so freely drawn sizes would move the median and the tail
by more than any bound worth having. Every cost-neutral parameter
(angles, rates, scenario physics, formats, task order) is drawn freely.
``unit`` is the number of tasks in a round; on ``cli-session`` a round
is two sessions of every subcommand.

Every package function is looked up on its module at call time
(``rd.sweep_cavity``, ``rd.scenarios.rates_sweep_chart``), so that the
traced run's wrappers, installed on those module attributes, see the call.

``run(spec)`` is the timed task. ``check(spec, out, traced)`` returns the
list of problems (empty when the output is correct) and a dict of facts
the layer metrics aggregate. ``corrupt(out)`` returns a damaged copy of
an output that ``check`` must reject; only the self-test uses it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import rotodyne as rd
import rotodyne.cli  # noqa: F401  (binds rd.cli for the in-process reference)

ROUNDS = 64  # in-process rounds generated per run; a run never takes more
STRATA = 8  # rounds over which ode-oracle stratifies its decay parameter
C02_REL_TOL = 1e-6  # tong vs exact-integral totals, as in acceptance check c02
SPLIT_REL_TOL = 1e-12  # inertial + non-inertial vs total, as in c09
TRACE_DISTANCE_GATE = 1e-9  # closed form vs ODE, as in c01
DIGITS_REFERENCE_MAX_EXPANSION = 1e-8  # quasi-cycle is a reference below this
DIGITS_CAP = 17.0  # an exact match counts as 17 significant digits


def lattice(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """The centres of ``k`` equal log-strata of [lo, hi], each moved by a
    seeded factor within 10**+-0.01."""
    pos = (np.arange(k) + 0.5) / k
    return 10.0 ** (math.log10(lo) + pos * (math.log10(hi) - math.log10(lo)) + rng.uniform(-0.01, 0.01, k))


def stratified(rng, rows: int, m: int) -> np.ndarray:
    """``rows`` x ``m`` draws in [0, 1): each row holds one draw from each of
    ``m`` equal strata, in random order."""
    order = rng.permuted(np.tile(np.arange(m), (rows, 1)), axis=1)
    return (order + rng.random((rows, m))) / m


def rounds(rng, make_round, count: int) -> tuple[int, list]:
    """(tasks per round, ``count`` rounds concatenated, each shuffled)."""
    out = []
    for r in range(count):
        tasks = make_round(r)
        out += [tasks[i] for i in rng.permutation(len(tasks))]
    return len(tasks), out


def general_scenario(rng, name: str) -> rd.Scenario:
    """An in-regime ``general``-family scenario (rim speed far below c, so
    the rate engine attaches no warning), cavity on the upper sideband."""
    omega0 = 10.0 ** rng.uniform(6.5, 7.5)
    if rng.uniform() < 0.5:
        omega = omega0 * 10.0 ** rng.uniform(1.0, 2.0)  # fast orbit
    else:
        omega = omega0 * 10.0 ** rng.uniform(-3.0, -1.5)  # slow orbit
    zeta = 10.0 ** rng.uniform(-10.0, -6.0)
    radius = math.sqrt(zeta) * rd.SPEED_OF_LIGHT / omega
    omega_c = (omega0 * math.sqrt(1.0 - zeta) + omega) * (1.0 + rng.uniform(-1e-6, 1e-6))
    return rd.scenario_from_dict(
        {
            "name": name,
            "family": "general",
            "atom": {
                "omega0_rad_per_s": omega0,
                "dipole_C_m": rd.DEFAULT_DIPOLE,
                "theta0_rad": rng.uniform(0.2, math.pi - 0.2),
            },
            "trajectory": {"radius_m": radius, "omega_rad_per_s": omega},
            "cavity": {
                "omega_c_rad_per_s": omega_c,
                "q_factor": 10.0 ** rng.uniform(5.0, 7.0),
                "volume_m3": 10.0 ** rng.uniform(-7.0, -3.0),
            },
            "n_default": 1000,
            "n_max": int(10.0 ** rng.uniform(5.0, 7.0)),
        }
    )


def digits(value: float, reference: float) -> float:
    """Correct significant digits of ``value`` against ``reference``
    (negative when the error exceeds the reference itself)."""
    err = abs(value - reference)
    if err == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err / abs(reference)))


# ---------------------------------------------------------------- cli-session


def _cli_stdout(argv: list[str]) -> bytes:
    """Reference stdout: the same command run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rd.cli.main(argv)
    return buf.getvalue().encode()


def _written_files(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class CliSession:
    """A seeded sequence of ``python -m rotodyne`` subprocesses, one at a
    time, covering every subcommand plus one call that must exit 1."""

    name = "cli-session"
    block = 1
    round_s = 13.0

    def __init__(self, rng, workdir: Path, tiny: bool):
        self.workdir = workdir
        src = Path(rd.__file__).resolve().parent.parent
        self.env = {k: v for k, v in os.environ.items() if k != "ROTODYNE_OUT"}
        self.env["PYTHONPATH"] = str(src)
        self.tiny = tiny
        # a round is two sessions, so that a one-round run has 28 calls and
        # its tail percentile lies above the median
        per_round = 1 if tiny else 2
        self.unit, self.tasks = rounds(
            rng, lambda r: [t for j in range(per_round) for t in self._session(rng, per_round * r + j)], 4
        )

    def _session(self, rng, r: int) -> list[dict]:
        base = self.workdir / f"r{r}"
        base.mkdir(parents=True, exist_ok=True)
        pick = lambda *opts: str(rng.choice(opts))  # noqa: E731
        # one cycle count per engine from a lattice over 1e2..2e3; tong, the
        # engine whose memory grows with n, always takes the middle one
        engines = ("quasi-cycle", "case1", "tong", "exact-integral", "case2")
        cycles = dict(zip(engines, lattice(rng, 1e2, 3e2 if self.tiny else 2e3, len(engines))))
        config = base / "scenario.json"
        rd.save_scenario(general_scenario(rng, f"config-{r}"), config)

        sweep_scn = pick("case1", "case2")
        scn = rd.preset(sweep_scn)
        points = int(rng.integers(20, 60) if self.tiny else rng.integers(150, 400))
        lo = scn.sweep_lo * rng.uniform(1.0, 1.02)
        hi = scn.sweep_hi * rng.uniform(0.98, 1.0)
        grid_spec = f"{lo!r}:{hi!r}:{points}:log"

        def sweep_text(fmt):
            grid = rd.build_grid(lo, hi, points, log=True, anchors=rd.default_anchors(scn))
            table = rd.sweep_cavity(scn, grid)
            return (rd.table_to_json_text if fmt == "json" else rd.table_to_csv_text)(table).encode()

        plot_scn = pick("case1", "case2")
        plot_dir = base / "sweep"

        def plot_files():
            ref = base / "sweep-ref"
            ref.mkdir(exist_ok=True)
            s = rd.preset(plot_scn)
            table = rd.sweep_cavity(s)
            rd.write_csv(table, ref / f"{plot_scn}_rates_sweep.csv")
            rd.scenarios.rates_sweep_chart(table, s, ref / f"{plot_scn}_rates_sweep.svg")
            return _written_files(ref)

        gpn_scn = pick("case1", "case2")
        n_max = int(10.0 ** rng.uniform(3.0, 7.0))
        gpn_points = int(rng.integers(5, 40))

        def gpn_text():
            table = rd.gp_vs_n(rd.preset(gpn_scn), rd.default_n_grid(n_max, gpn_points))
            return rd.table_to_csv_text(table).encode()

        fig_points = int(rng.integers(8, 16) if self.tiny else rng.integers(40, 120))
        fig_dir = base / "figure1"

        def fig_files():
            ref = base / "figure1-ref"
            rd.figure1(ref, points=fig_points)
            return _written_files(ref)

        def stdout_task(cmd, argv):
            return {"cmd": cmd, "argv": argv, "expect": 0, "stdout": lambda: _cli_stdout(argv)}

        def gp_argv(engine, s):
            n = str(int(round(cycles[engine])))
            return ["gp", "--scenario", s, "--engine", engine, "-n", n, "--format", pick("csv", "json")]

        tasks = [
            stdout_task("presets", ["presets", "--format", pick("csv", "json")]),
            stdout_task("rates", ["rates", "--scenario", pick("case1", "case2"), "--format", pick("csv", "json")]),
            stdout_task("rates", ["rates", "--config", str(config), "--format", pick("csv", "json")]),
            stdout_task("gp", gp_argv("tong", pick("case1", "case2"))),
            stdout_task("gp", gp_argv("exact-integral", pick("case1", "case2"))),
            stdout_task("gp", gp_argv("quasi-cycle", pick("case1", "case2"))),
            stdout_task("gp", gp_argv("case1", "case1")),
            stdout_task("gp", gp_argv("case2", "case2")),
            {
                "cmd": "sweep-cavity",
                "argv": ["sweep-cavity", "--scenario", sweep_scn, "--grid", grid_spec],
                "expect": 0,
                "stdout": lambda: sweep_text("csv"),
            },
            {
                "cmd": "sweep-cavity",
                "argv": ["sweep-cavity", "--scenario", sweep_scn, "--grid", grid_spec, "--format", "json"],
                "expect": 0,
                "stdout": lambda: sweep_text("json"),
            },
            {
                "cmd": "sweep-cavity",
                "argv": ["sweep-cavity", "--scenario", plot_scn, "--out", str(plot_dir), "--plot"],
                "expect": 0,
                "files": plot_files,
                "outdir": plot_dir,
            },
            {
                "cmd": "gp-vs-n",
                "argv": ["gp-vs-n", "--scenario", gpn_scn, "--n-max", str(n_max), "--points", str(gpn_points)],
                "expect": 0,
                "stdout": gpn_text,
            },
            {
                "cmd": "figure1",
                "argv": ["figure1", "--out", str(fig_dir), "--points", str(fig_points)],
                "expect": 0,
                "files": fig_files,
                "outdir": fig_dir,
            },
            {
                "cmd": "bad-input",
                "argv": pick("gp -n 0", "rates --scenario no-such-preset", "sweep-cavity --grid 1e7:2e7").split(),
                "expect": 1,
                "stdout": lambda: b"",
            },
        ]
        return tasks

    def run(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "rotodyne", *spec["argv"]],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return {"code": proc.returncode, "stdout": proc.stdout}

    def check(self, spec, out, traced):
        problems = []
        if out["code"] != spec["expect"]:
            problems.append(f"{spec['cmd']}: exit {out['code']}, expected {spec['expect']}")
        written = {}
        if "files" in spec:
            written = _written_files(spec["outdir"]) if spec["outdir"].is_dir() else {}
            if written != spec["files"]():
                problems.append(f"{spec['cmd']}: written files differ from the in-process reference")
        elif out["stdout"] != spec["stdout"]():
            problems.append(f"{spec['cmd']}: stdout differs from the in-process reference")
        svg = sum(len(b) for name, b in written.items() if name.endswith(".svg"))
        facts = {
            "cmd": spec["cmd"],
            "exit_mismatch": int(out["code"] != spec["expect"]),
            "serialize_bytes": len(out["stdout"]) + sum(len(b) for b in written.values()) - svg,
            "svg_bytes": svg,
        }
        return problems, facts

    @staticmethod
    def corrupt(out):
        return {"code": 3, "stdout": out["stdout"] + b"#"}


# --------------------------------------------------------------- sweep-tables


class SweepTables:
    """build_grid -> sweep_cavity -> gp_vs_n -> CSV and JSON text -> SVG,
    in process, over both presets and seeded general-family scenarios."""

    name = "sweep-tables"
    block = 1
    round_s = 1.2

    def __init__(self, rng, workdir: Path, tiny: bool):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        presets = [rd.preset(name) for name in rd.preset_names()]
        lo, hi, k = (20, 80, 2) if tiny else (300, 3000, 6)

        def make_round(r):
            specs = [
                (scn or general_scenario(rng, f"general-{r}-{j}"), int(round(points)))
                for scn in presets + [None]
                for j, points in enumerate(lattice(rng, lo, hi, k))
            ]
            # the shipped c08 guarantee is stated on each preset's own grid
            specs += [(scn, None) for scn in presets]
            return [{"scenario": scn, "points": p, "spots": rng.uniform(0.0, 1.0, 3)} for scn, p in specs]

        self.unit, self.tasks = rounds(rng, make_round, 2 if tiny else ROUNDS)

    def run(self, spec):
        scn = spec["scenario"]
        grid = None
        if spec["points"] is not None:
            grid = rd.build_grid(
                scn.sweep_lo, scn.sweep_hi, spec["points"], log=True, anchors=rd.default_anchors(scn)
            )
        table = rd.sweep_cavity(scn, grid)
        gp_table = rd.gp_vs_n(scn)
        texts = [
            rd.table_to_csv_text(table),
            rd.table_to_json_text(table),
            rd.table_to_csv_text(gp_table),
            rd.table_to_json_text(gp_table),
        ]
        svgs = [
            rd.scenarios.rates_sweep_chart(table, scn, self.workdir / "rates.svg"),
            rd.scenarios.gp_vs_n_chart(gp_table, scn, self.workdir / "gp.svg"),
        ]
        return {"table": table, "gp": gp_table, "texts": texts, "svgs": svgs}

    def check(self, spec, out, traced):
        scn = spec["scenario"]
        table = out["table"]
        rows = table.rows
        problems = []
        for row in rows:
            total, inertial, noninertial, up, validity = row[1:]
            if total < 0.0 or inertial < 0.0 or up < 0.0:
                problems.append(f"negative rate at omega_c={row[0]!r}")
            if abs(inertial + noninertial - total) > SPLIT_REL_TOL * abs(total):
                problems.append(f"inertial + non-inertial != total at omega_c={row[0]!r}")
            if scn.family == "general" and validity != "ok":
                problems.append(f"in-regime scenario flagged: {validity}")
        for u in spec["spots"]:
            row = rows[int(u * len(rows))]
            cavity = rd.CavitySpec(row[0], scn.cavity.q_factor, scn.cavity.volume)
            direct = rd.scenario_rates(scn, cavity)
            want = (direct.gamma_down, direct.gamma_down_inertial, direct.gamma_down_ni, direct.gamma_up, direct.validity)
            if tuple(row[1:]) != want:
                problems.append(f"row at omega_c={row[0]!r} differs from scenario_rates")
        if spec["points"] is None:
            problems += _c08_peaks(scn, table)
        csv_rates, json_rates, csv_gp, json_gp = out["texts"]
        for csv_text, json_text, tab in ((csv_rates, json_rates, table), (csv_gp, json_gp, out["gp"])):
            if csv_text.count("\n") != len(tab.rows) + 1 or len(json.loads(json_text)["rows"]) != len(tab.rows):
                problems.append("serialized table row count differs from the table")
        facts = {
            "points": len(rows),
            "serialize_bytes": sum(len(t.encode()) for t in out["texts"]),
            "svg_bytes": sum(Path(p).stat().st_size for p in out["svgs"]),
        }
        if traced:
            # array-call floor of the mode-density kernel on this grid
            grid = table.column("omega_c_rad_per_s")
            t0 = time.perf_counter()
            rd.cavity.dos(scn.cavity, grid)
            facts["dos_s"] = time.perf_counter() - t0
            facts["dos_points"] = grid.size
        return problems, facts

    @staticmethod
    def corrupt(out):
        table = out["table"]
        first = list(table.rows[0])
        first[1] = 2.0 * first[1] + 1.0
        return dict(out, table=dataclasses.replace(table, rows=(tuple(first),) + table.rows[1:]))


def _c08_peaks(scn, table) -> list[str]:
    """Acceptance check c08: the sweep peaks sit on the predicted anchors."""
    freqs = [row[0] for row in table.rows]
    kin = rd.derive_kinematics(scn.trajectory, scn.atom)

    def peak(col):
        values = [row[table.columns.index(col)] for row in table.rows]
        return values.index(max(values))

    i_ni = peak("gamma_down_noninertial_per_s")
    if scn.family == "case1":
        ok = abs(i_ni - freqs.index(kin.omega_plus)) <= 1
    else:
        i_in = peak("gamma_down_inertial_per_s")
        ok = (
            abs(i_ni - freqs.index(kin.obar_plus)) <= 1
            and abs(i_in - freqs.index(scn.atom.omega0)) <= 1
            and i_ni != i_in
        )
    return [] if ok else [f"{scn.name}: sweep peaks off the c08 anchors"]


# -------------------------------------------------------------- phase-horizon


class PhaseHorizon:
    """tong, exact-integral and quasi-cycle (plus case1/case2 on presets) on
    both presets at log-uniform n over 1e2..1e5 and on c02-style draws."""

    name = "phase-horizon"
    block = 1
    round_s = 3.0

    def __init__(self, rng, workdir: Path, tiny: bool):
        self.presets = {}
        for name in rd.preset_names():
            scn = rd.preset(name)
            params = rd.EvolutionParams.from_rates(rd.scenario_rates(scn), scn.atom.theta0, scn.atom.omega0)
            self.presets[name] = (scn, params)
        # The c02 draws cost about 1 ms each and outnumber the preset tasks
        # two to one, so the median lies among many near-equal latencies.
        # A coarse lattice repeated over rounds puts several near-equal
        # preset tasks at each size, so the tail is not set by one task.
        lo, hi, k, draws = (1e2, 3e2, 2, 1) if tiny else (1e2, 1e5, 8, 32)

        def make_round(r):
            tasks = [
                {"preset": name, "n": int(round(n))} for name in rd.preset_names() for n in lattice(rng, lo, hi, k)
            ]
            # c02's n, uniform over 3..60, one draw per stratum: n sets a draw's cost
            cycles = 3 + (stratified(rng, 1, draws)[0] * 58).astype(int)
            return tasks + [self._c02_draw(rng, int(n)) for n in cycles]

        self.unit, self.tasks = rounds(rng, make_round, 2 if tiny else ROUNDS // 4)

    @staticmethod
    def _c02_draw(rng, n: int) -> dict:
        """One draw of acceptance check c02's distribution at ``n`` cycles."""
        theta = rng.uniform(0.15, math.pi - 0.15)
        per_cycle = 10.0 ** rng.uniform(-7.0, -3.1)
        a = per_cycle / (math.pi * n)
        params = rd.EvolutionParams(a, a * rng.uniform(-1.0, 1.0), 1.0, theta)
        return {"preset": None, "n": n, "params": params}

    def run(self, spec):
        n = spec["n"]
        if spec["preset"] is None:
            params = spec["params"]
        else:
            scn, params = self.presets[spec["preset"]]
        horizon = math.tau * n / params.omega_eff
        res = {
            "tong": rd.gp_tong_closed_form(params, horizon),
            "exact-integral": rd.gp_exact_integral(params, horizon, n_cycles=float(n)),
            "quasi-cycle": rd.gp_quasi_cycle(params, n),
        }
        if spec["preset"] == "case1":
            res["case"] = rd.gp_case1(scn.trajectory, scn.atom, scn.cavity, n)
        elif spec["preset"] == "case2":
            res["case"] = rd.gp_case2(scn.trajectory, scn.atom, scn.cavity, n)
        return res

    def check(self, spec, out, traced):
        n = spec["n"]
        exact = out["exact-integral"].total
        quasi = out["quasi-cycle"]
        expansion = quasi.diagnostics["pi_n_a_over_omega0"]
        problems = [f"{k}: non-finite phase" for k, r in out.items() if not math.isfinite(r.total)]
        if abs(out["tong"].total - exact) > C02_REL_TOL * abs(exact):
            problems.append(f"n={n}: tong total off exact-integral beyond {C02_REL_TOL:g}")
        budget = 10.0 * expansion * n + 1e-9  # c02's budget, 10 * per_cycle * n + 1e-9
        for key in ("quasi-cycle", "case"):
            if key in out and abs(out[key].total - exact) > budget * abs(exact):
                problems.append(f"n={n}: {key} total off exact-integral beyond {budget:.1e}")
        facts = {"n": n, "samples": out["tong"].diagnostics["samples"]}
        if expansion < DIGITS_REFERENCE_MAX_EXPANSION:
            ref = quasi.nonunitary_part
            facts["digits_tong"] = digits(out["tong"].nonunitary_part, ref)
            facts["digits_exact"] = digits(out["exact-integral"].nonunitary_part, ref)
        return problems, facts

    @staticmethod
    def corrupt(out):
        tong = out["tong"]
        return dict(out, tong=dataclasses.replace(tong, total=tong.total * (1.0 + 1e-3) + 1e-3))


# ----------------------------------------------------------------- ode-oracle


class OdeOracle:
    """evolve_ode against closed_form_rho at nine sample times, on c01-style
    draws whose simulated cycle count spans 0.1..100."""

    name = "ode-oracle"
    block = STRATA  # whole blocks of decay strata
    round_s = 0.37

    def __init__(self, rng, workdir: Path, tiny: bool):
        lo, hi, k = (0.1, 1.0, 2) if tiny else (0.1, 100.0, 9)  # odd: the median task sits mid-lattice
        count = 2 if tiny else ROUNDS
        quantiles = np.hstack([stratified(rng, k, STRATA) for _ in range(-(-count // STRATA))])

        def make_round(r):
            tasks = []
            for j, cycles in enumerate(lattice(rng, lo, hi, k)):
                a, omega = self._a_omega(rng, quantiles[j, r])
                params = rd.EvolutionParams(a, a * rng.uniform(-1.0, 1.0), omega, rng.uniform(0.0, math.pi))
                times = np.linspace(0.0, math.tau * cycles / omega, 9)
                tasks.append({"params": params, "cycles": float(cycles), "times": times})
            return tasks

        self.unit, self.tasks = rounds(rng, make_round, count)

    @staticmethod
    def _a_omega(rng, q: float) -> tuple[float, float]:
        """c01's draw, log10 a ~ U(-3, 0) and log10 omega ~ U(0, 2), made
        through the ratio d = log10(a / omega) at quantile ``q`` of its
        trapezoidal law, then log10 a uniform given d. The integrator's cost
        falls, by up to 5x, once the decay over the run, 2 pi cycles a /
        omega, exceeds a few, and the tail is the cost of the largest-cycle
        tasks, so d is the one draw stratified over rounds (``quantiles``
        holds STRATA strata per lattice point in each block of STRATA
        rounds). Drawn freely, it gave task_tail_s and tasks_per_s quartile
        spreads of 0.26 and 0.29 over ten seeds, while task_p50_s, set by
        small tasks, held at 0.09."""
        if q <= 1.0 / 3.0:
            d = -5.0 + math.sqrt(12.0 * q)
        elif q <= 2.0 / 3.0:
            d = -3.0 + 3.0 * (q - 1.0 / 3.0)
        else:
            d = -math.sqrt(12.0 * (1.0 - q))
        log_a = rng.uniform(max(-3.0, d), min(0.0, d + 2.0))
        return 10.0 ** log_a, 10.0 ** (log_a - d)

    def run(self, spec):
        p, times = spec["params"], spec["times"]
        ode = rd.evolve_ode(p, float(times[-1]), rtol=1e-12, t_eval=times)
        closed = [rd.closed_form_rho(p, float(t)) for t in times]
        return {"ode": ode.states, "closed": closed}

    def check(self, spec, out, traced):
        dist = max(rd.trace_distance(w, g) for w, g in zip(out["closed"], out["ode"]))
        problems = [] if dist < TRACE_DISTANCE_GATE else [f"trace distance {dist:.3e} >= {TRACE_DISTANCE_GATE:g}"]
        return problems, {"cycles": spec["cycles"], "trace_distance": dist}

    @staticmethod
    def corrupt(out):
        ode = out["ode"].copy()
        ode[-1] += np.diag([1e-6, -1e-6])
        return dict(out, ode=ode)


WORKLOADS = {w.name: w for w in (CliSession, SweepTables, PhaseHorizon, OdeOracle)}
