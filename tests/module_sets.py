"""Which modules each command loads, checked in one fresh interpreter.

    PYTHONPATH=src:SITE python -S tests/module_sets.py OUTDIR

where SITE is the site-packages directory that holds numpy (``sysconfig``'s
``purelib`` and ``platlib`` paths). The script checks that ``import
rotodyne`` loads no layer and neither numpy nor scipy, then runs the
commands of LOAD_STEPS in order through ``rotodyne.cli.main`` (the table and
figure commands write under OUTDIR) and, after each step, checks the exit
codes and that the step's modules are still unloaded; ``rotodyne.dynamics``
is among them at every step, and so are ``argparse`` and ``gettext`` at
every step but the last: each command line before it is plain (see
``rotodyne.cli``). The last step runs the other spellings of FALLBACK,
which the parser reads: they must print what their plain spellings
printed, and load both. Reading a private or dunder name from the
package right after ``import rotodyne`` must load nothing more. After the
last step, ``from rotodyne import _kernel`` must load no module but the
kernel and ``errors``, nor ``dynamics``. Then every input value type
is built from Python ints, and ``dos``, ``gp_quasi_cycle`` and
``scenario_gp`` (with each engine) run at int inputs: they must load
neither numpy nor ``numbers``, which the step past the kernel's series
imported with ``decimal`` and which is set aside for them. It ends with
the record check: a record is no dataclass until its caller loads
``dataclasses``. It prints its report as one JSON line, with the stdout of
each command of TABLE_COMMANDS and of FALLBACK and the sorted
``rotodyne.*`` modules loaded after each
step, and exits 1, with the problems on stderr, when any check
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
# no module of the package needs ``typing`` or ``csv``, only a number of
# another type than int and float (a numpy scalar, a Fraction) needs
# ``numbers``, the engines read their generator from rotodyne.rates, not
# from the closed form and ODE oracle of rotodyne.dynamics, and only the
# phase kernel past its series needs ``decimal`` (which imports ``numbers``)
NEVER_LOADED = [
    "dataclasses", "inspect", "typing", "csv", "numbers", "decimal", "rotodyne.dynamics",
]
# what the phase kernel's antiderivative loads, past its series
PAST_SERIES = ["decimal", "numbers"]
# the command-line parser, which only a command line that is not plain (help,
# a usage error or another spelling) loads
PARSER = ["argparse", "gettext"]
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
# a case2 horizon past the phase kernel's series, so that gp takes its antiderivative
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


# other spellings of plain command lines, each beside its plain spelling: an
# abbreviation, an ``=`` form and a value joined to its short option; the
# parser reads them, with the exit code and stdout of the plain spelling
FALLBACK = [
    (
        ["gp", "--scen", "case2", "--eng", "tong", "-n", "1000"],
        ["gp", "--scenario", "case2", "--engine", "tong", "-n", "1000"],
    ),
    (["rates", "--format=json"], ["rates", "--format", "json"]),
    (["gp", "-n5"], ["gp", "-n", "5"]),
]

# what only gp with a numeric engine loads: the phase kernel
KERNEL = ["rotodyne._kernel"]
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
        [*SCALAR, *NUMPY, *UNUSED, *NEVER_LOADED, *PARSER],
    ),
    (
        0,
        [["presets"], ["rates"], ["rates", "--scenario", "case1"], ["rates", "--scenario", "case2"]],
        [*SCALAR, *NUMPY, *UNUSED, *NEVER_LOADED, *PARSER],
    ),
    (
        0,
        [["presets", "--format", "json"], ["rates", "--format", "json"]]
        + _tables("sweep-cavity", False),
        ["rotodyne.svgplot", "rotodyne.geophase", *KERNEL, *NUMPY, *UNUSED, *NEVER_LOADED, *PARSER],
    ),
    (
        0,
        [["gp", "--scenario", "case1"], ["gp", "-n", "5"], *_gp(("case1", "case2", "quasi-cycle"))]
        + _tables("gp-vs-n", False),
        ["rotodyne.svgplot", *KERNEL, *NUMPY, *UNUSED, *NEVER_LOADED, *PARSER],
    ),
    (
        0,
        [*_tables("sweep-cavity", True), *_tables("gp-vs-n", True), *_tables("figure1", False)],
        [*KERNEL, *NUMPY, *UNUSED, *NEVER_LOADED, *PARSER],
    ),
    (
        0,
        _gp(PANEL_ENGINES) + [["rates", "--config", CONFIG], ["gp", "--config", CONFIG]],
        [*NUMPY, *NEVER_LOADED, *PARSER],
    ),
    (
        0,
        [["gp", "--scenario", "case2", "--engine", e, "-n", str(PANEL_CYCLES)] for e in PANEL_ENGINES],
        [*NUMPY, *(m for m in NEVER_LOADED if m not in PAST_SERIES), *PARSER],
    ),
    (
        0,
        [other for other, _ in FALLBACK],
        [*NUMPY, *(m for m in NEVER_LOADED if m not in PAST_SERIES)],
    ),
]


def run(out: str) -> dict:
    """The layers and the numpy modules ``import rotodyne`` loads; each
    step's exit codes and the modules of its list that are loaded after it;
    the sorted ``rotodyne.*`` modules loaded after each step; the stdout of
    each table command and of each spelling of FALLBACK, by its argv joined
    with spaces; which of PARSER are loaded after the last step;
    whether ``dynamics`` is loaded after the last step; what the kernel's
    import loads; which of numpy and ``numbers`` the int inputs load; and
    the record check, whether
    ``dataclasses`` is loaded and a record has ``__dataclass_fields__``
    before and after the check imports ``dataclasses``."""
    import contextlib
    import io

    import rotodyne

    # a private or dunder name read from the package binds no layer
    private = [hasattr(rotodyne, "__wrapped__"), hasattr(rotodyne, "_nope")]
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
            if argv in TABLE_COMMANDS or any(argv in pair for pair in FALLBACK):
                stdout[" ".join(argv)] = text.getvalue()
        runs.append([codes, [m for m in absent if m in sys.modules]])
        modules.append(sorted(m for m in sys.modules if m.startswith("rotodyne.")))
    parser = [m for m in PARSER if m in sys.modules]

    # a private module read by name is imported alone: the kernel, which the
    # steps loaded, is unloaded first so that its import shows what it adds
    del sys.modules["rotodyne._kernel"], rotodyne._kernel
    loaded = set(sys.modules)
    from rotodyne import _kernel  # noqa: F401 (what it loads is checked)

    kernel = sorted(set(sys.modules) - loaded)
    dynamics = "rotodyne.dynamics" in sys.modules
    from rotodyne._scenario import ENGINES, Scenario, scenario_gp
    from rotodyne.cavity import CavitySpec, dos
    from rotodyne.geophase import gp_quasi_cycle
    from rotodyne.kinematics import AtomParams, TrajectoryParams
    from rotodyne.rates import EvolutionParams

    # the kernel past its series loaded ``decimal`` and with it ``numbers``,
    # which is set aside so that only a fresh import shows
    numbers = sys.modules.pop("numbers", None)
    cavity = CavitySpec(5_000_000_000, 10**7, 1)
    dos(cavity, 10**7)
    atom, orbit = AtomParams(10**7, 1, 1), TrajectoryParams(1, 1, (0, 0))
    ints = Scenario("ints", atom, orbit, cavity, "general", 100, 1000, 10**6, 10**10, 40)
    gp_quasi_cycle(EvolutionParams(1, 0, 10, 1), 1000)
    for engine in ENGINES:
        scenario_gp(ints, 1000, engine)
    int_inputs = [m for m in ("numpy", "numbers") if m in sys.modules]
    if numbers is not None:
        sys.modules["numbers"] = numbers

    atom = AtomParams(1.0e7, 8.478e-30, 1.5)
    before = ["dataclasses" in sys.modules, hasattr(atom, "__dataclass_fields__")]
    import dataclasses

    after = [dataclasses.is_dataclass(atom), hasattr(atom, "__dataclass_fields__")]
    return {
        "private": private,
        "layers": layers,
        "imported": imported,
        "runs": runs,
        "modules": modules,
        "stdout": stdout,
        "parser": parser,
        "dynamics": dynamics,
        "kernel": kernel,
        "int_inputs": int_inputs,
        "records": [before, after],
    }


def problems(report: dict) -> list:
    """What the report shows wrong, one line each."""
    found = []
    if report["layers"] != ["rotodyne._version"]:
        found.append(f"import rotodyne and its private-name probes loaded {report['layers']}")
    if report["private"] != [False, False]:
        found.append(f"rotodyne has __wrapped__ or _nope: {report['private']}")
    if report["imported"]:
        found.append(f"import rotodyne loaded {report['imported']}")
    steps = zip(LOAD_STEPS, report["runs"], report["modules"])
    for (code, argvs, _), (got, loaded), modules in steps:
        if got != [code] * len(argvs):
            found.append(f"exit codes {got}, want {code} each, of {argvs}")
        if loaded:
            found.append(f"{loaded} loaded by the end of {argvs}, with {modules}")
    if report["parser"] != PARSER:
        found.append(f"of {PARSER}, only {report['parser']} loaded after the last step")
    for other, plain in FALLBACK:
        if report["stdout"][" ".join(other)] != report["stdout"][" ".join(plain)]:
            found.append(f"{other} printed other than {plain}")
    if report["dynamics"]:
        found.append("rotodyne.dynamics loaded by a command")
    if not set(report["kernel"]) <= {"rotodyne._kernel", "rotodyne.errors"}:
        found.append(f"from rotodyne import _kernel loaded {report['kernel']}")
    if report["int_inputs"]:
        found.append(f"the value types and engines at int inputs loaded {report['int_inputs']}")
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
