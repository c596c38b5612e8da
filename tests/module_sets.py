"""Which modules each command loads, checked in one fresh interpreter.

    PYTHONPATH=src:SITE python -S tests/module_sets.py OUTDIR

where SITE is the site-packages directory that holds numpy (``sysconfig``'s
``purelib`` and ``platlib`` paths). The script checks that ``import
rotodyne`` loads no layer and neither numpy nor scipy, then runs the
commands of LOAD_STEPS in order through ``rotodyne.cli.main`` (the table and
figure commands write under OUTDIR) and, after each step, checks the exit
codes and that the step's modules are still unloaded. It ends with the
record check: a record is no dataclass until its caller loads
``dataclasses``. It prints its report as one JSON line, with the stdout of
each command of TABLE_COMMANDS and the sorted ``rotodyne.*`` modules loaded
after each step, and exits 1, with the problems on stderr, when any check
fails; a step that loaded a module of its list is reported with the
package modules loaded after it.

``-S`` keeps ``site`` and the ``.pth`` files it runs from loading modules
first, which would hide a module that a command loads. SITE keeps numpy and
scipy importable, so that a command that imports either, guarded or not,
shows in the report. This file is the one statement of which modules each
command loads: acceptance tests c11–c14 and the record test read its
report, and the CI step that runs before the test extras are installed runs
it the same way.
"""

import sys

# what no command loads: the value types are records of rotodyne._record,
# no module of the package needs ``typing`` or ``csv``, and only a number of
# another type than int and float (a numpy scalar, a Fraction) needs ``numbers``
NEVER_LOADED = ["dataclasses", "inspect", "typing", "csv", "numbers"]
# numpy, which only a grid of more than 20000 points imports, and scipy,
# which only the tests use
NUMPY = ["numpy", "scipy"]
# what no table or figure command uses: numpy's masked arrays (``np.unique``
# imports them) and the stdlib network, e-mail and TLS stack
# (``xml.sax.saxutils`` imports it through ``urllib.request``); ``pathlib``
# imports ``urllib.parse``, the one urllib module left out
UNUSED = [
    "numpy.ma", "xml", "urllib.request", "urllib.error", "urllib.response",
    "http", "email", "ssl", "socket", "hashlib",
]

# the table and figure commands, "{out}" standing for OUTDIR: each
# sweep-cavity grid form and format, gp-vs-n on both presets, the plotted
# tables, figure1, and a written grid and gp-vs-n table without a plot
TABLE_COMMANDS = [
    ["sweep-cavity"],
    ["sweep-cavity", "--scenario", "case2", "--grid", "9.5e6:1.05e7:300:log"],
    ["sweep-cavity", "--grid", "4.9e9:5.1e9:40:lin"],
    ["sweep-cavity", "--scenario", "case2", "--format", "json"],
    ["sweep-cavity", "--plot", "--out", "{out}/sweep"],
    ["sweep-cavity", "--scenario", "case2", "--format", "json", "--plot", "--out", "{out}/sweep2"],
    ["sweep-cavity", "--grid", "4.9e9:5.1e9:40:lin", "--out", "{out}/grid"],
    ["gp-vs-n"],
    ["gp-vs-n", "--scenario", "case2"],
    ["gp-vs-n", "--out", "{out}/gp_vs_n_table"],
    ["gp-vs-n", "--plot", "--out", "{out}/gp_vs_n"],
    ["figure1", "--out", "{out}/figure1"],
]
# --plot without --out, refused before the million-point grid or the 2**53
# cycle-count grid is built
PLOT_WITHOUT_OUT = [
    ["gp-vs-n", "--points", "1000000", "--n-max", "9007199254740992", "--plot"],
    ["sweep-cavity", "--grid", "1e7:2e7:1000000", "--plot"],
]
# a case2 horizon past the phase kernel's series, so that gp sums the panels
PANEL_CYCLES, PANEL_ENGINES = 99999999999999999999, ("tong", "exact-integral")
# the case2 preset as a general scenario, written before the step that reads it
CONFIG = "{out}/general.json"


def _gp(engines):
    """gp with each engine on both presets, at the default n and at n = 1000."""
    return [
        ["gp", "--scenario", name, "--engine", engine, *n]
        for name in ("case1", "case2")
        for engine in engines
        for n in ([], ["-n", "1000"])
    ]


def _tables(command, plotted):
    """The TABLE_COMMANDS of a command, with or without an SVG panel."""
    return [c for c in TABLE_COMMANDS if c[0] == command and ("--plot" in c) == plotted]


# what only gp with a numeric engine loads: the phase kernel and the generator
KERNEL = ["rotodyne._kernel", "rotodyne.dynamics"]
# what bad input, presets and rates load none of besides: the tables, the
# panels, the phase engines and json
SCALAR = ["rotodyne.scenarios", "rotodyne.svgplot", "rotodyne.geophase", *KERNEL, "json"]
# the commands in order of growing module sets: each step with the exit code
# of its commands and the modules that it and every step before it leave
# unloaded
LOAD_STEPS = [
    (
        1,
        [["gp", "-n", "0"], ["rates", "--scenario", "no-such-preset"]]
        + [["sweep-cavity", "--grid", "1e7:2e7"], *PLOT_WITHOUT_OUT],
        [*SCALAR, *NUMPY, *UNUSED, *NEVER_LOADED],
    ),
    (
        0,
        [["presets"], ["rates"], ["rates", "--scenario", "case1"], ["rates", "--scenario", "case2"]],
        [*SCALAR, *NUMPY, *UNUSED, *NEVER_LOADED],
    ),
    (
        0,
        [["presets", "--format", "json"], *_tables("sweep-cavity", False)],
        ["rotodyne.svgplot", "rotodyne.geophase", *KERNEL, *NUMPY, *UNUSED, *NEVER_LOADED],
    ),
    (
        0,
        [["gp", "--scenario", "case1"], *_gp(("case1", "case2", "quasi-cycle"))]
        + _tables("gp-vs-n", False),
        ["rotodyne.svgplot", *KERNEL, *NUMPY, *UNUSED, *NEVER_LOADED],
    ),
    (
        0,
        [*_tables("sweep-cavity", True), *_tables("gp-vs-n", True), *_tables("figure1", False)],
        [*KERNEL, *NUMPY, *UNUSED, *NEVER_LOADED],
    ),
    (
        0,
        _gp(PANEL_ENGINES)
        + [["gp", "--scenario", "case2", "--engine", e, "-n", str(PANEL_CYCLES)] for e in PANEL_ENGINES]
        + [["rates", "--config", CONFIG], ["gp", "--config", CONFIG]],
        [*NUMPY, *NEVER_LOADED],
    ),
]


def run(out: str) -> dict:
    """The layers and the numpy modules ``import rotodyne`` loads; each
    step's exit codes and the modules of its list that are loaded after it;
    the sorted ``rotodyne.*`` modules loaded after each step; the stdout of
    each table command, by its argv joined with spaces;
    whether ``dynamics`` is loaded at the end; and the record check, whether
    ``dataclasses`` is loaded and a record has ``__dataclass_fields__``
    before and after the check imports ``dataclasses``."""
    import contextlib
    import io

    import rotodyne  # noqa: F401 (what it loads is checked)

    layers = sorted(m for m in sys.modules if m.startswith("rotodyne."))
    imported = [m for m in NUMPY if m in sys.modules]
    from rotodyne.cli import main

    runs, modules, stdout = [], [], {}
    for _, argvs, absent in LOAD_STEPS:
        if any(CONFIG in argv for argv in argvs):
            import json

            from rotodyne.scenarios import preset, scenario_to_dict

            general = dict(scenario_to_dict(preset("case2")), family="general")
            with open(CONFIG.format(out=out), "w") as f:
                json.dump(general, f)
        codes = []
        for argv in argvs:
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                codes.append(main([arg.format(out=out) for arg in argv]))
            if argv in TABLE_COMMANDS:
                stdout[" ".join(argv)] = text.getvalue()
        runs.append([codes, [m for m in absent if m in sys.modules]])
        modules.append(sorted(m for m in sys.modules if m.startswith("rotodyne.")))

    from rotodyne.kinematics import AtomParams

    atom = AtomParams(1.0e7, 8.478e-30, 1.5)
    before = ["dataclasses" in sys.modules, hasattr(atom, "__dataclass_fields__")]
    import dataclasses

    after = [dataclasses.is_dataclass(atom), hasattr(atom, "__dataclass_fields__")]
    return {
        "layers": layers,
        "imported": imported,
        "runs": runs,
        "modules": modules,
        "stdout": stdout,
        "dynamics": "rotodyne.dynamics" in sys.modules,
        "records": [before, after],
    }


def problems(report: dict) -> list:
    """What the report shows wrong, one line each."""
    found = []
    if report["layers"] != ["rotodyne._version"]:
        found.append(f"import rotodyne loaded {report['layers']}")
    if report["imported"]:
        found.append(f"import rotodyne loaded {report['imported']}")
    steps = zip(LOAD_STEPS, report["runs"], report["modules"])
    for (code, argvs, _), (got, loaded), modules in steps:
        if got != [code] * len(argvs):
            found.append(f"exit codes {got}, want {code} each, of {argvs}")
        if loaded:
            found.append(f"{loaded} loaded by the end of {argvs}, with {modules}")
    if not report["dynamics"]:
        found.append("rotodyne.dynamics not loaded by gp --engine tong")
    if report["records"] != [[False, False], [True, True]]:
        found.append(f"records: {report['records']}, want no dataclass until dataclasses is loaded")
    return found


if __name__ == "__main__":
    report = run(sys.argv[1])
    import json

    print(json.dumps(report))
    found = problems(report)
    if found:
        sys.exit("\n".join(found))
