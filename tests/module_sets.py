"""Which modules each command loads, checked in one fresh interpreter on
the standard library alone.

    PYTHONPATH=src python -S tests/module_sets.py OUTDIR

checks that ``import rotodyne`` loads no layer, then runs the commands of
LOAD_STEPS in order through ``rotodyne.cli.main`` (``figure1`` writes into
OUTDIR) and, after each step, checks the exit codes and that the step's
modules are still unloaded. It prints its report as one JSON line and
exits 1, with the problems on stderr, when any check fails. ``-S`` keeps
``site`` and the ``.pth`` files it runs from loading modules first, which
would hide a module that a command loads. Acceptance test c14 runs this
file, and so does the CI step that runs before the test extras are
installed.
"""

import sys

# what no command loads: the value types are records of rotodyne._record,
# and no module of the package needs ``typing``
NEVER_LOADED = ["dataclasses", "inspect", "typing"]
# the commands in order of growing module sets: each step with its exit
# codes and the modules that it and every step before it leave unloaded
LOAD_STEPS = [
    (
        [["presets"], ["gp", "-n", "0"], ["rates", "--scenario", "no-such-preset"]]
        + [["sweep-cavity", "--grid", "1e7:2e7"], ["rates"], ["rates", "--scenario", "case2"]],
        [0, 1, 1, 1, 0, 0],
        ["rotodyne.geophase", "rotodyne.dynamics", "json", "csv", *NEVER_LOADED],
    ),
    ([["sweep-cavity"]], [0], ["rotodyne.geophase", "rotodyne.dynamics", *NEVER_LOADED]),
    (
        [
            ["gp", "--scenario", name, "--engine", engine]
            for name in ("case1", "case2")
            for engine in ("case1", "case2", "quasi-cycle")
        ]
        + [["gp-vs-n"], ["figure1", "--out", "{out}"]],
        [0] * 8,
        ["rotodyne.dynamics", *NEVER_LOADED],
    ),
    ([["gp", "--engine", "tong"]], [0], NEVER_LOADED),
]


def run(out: str) -> dict:
    """The layers ``import rotodyne`` loads, each step's exit codes and the
    modules of its list that are loaded after it, and whether ``dynamics``
    is loaded at the end."""
    import contextlib
    import io

    import rotodyne  # noqa: F401 (what it loads is checked)

    layers = sorted(m for m in sys.modules if m.startswith("rotodyne."))
    from rotodyne.cli import main

    runs = []
    for argvs, _, absent in LOAD_STEPS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [main([arg.format(out=out) for arg in argv]) for argv in argvs]
        runs.append([codes, [m for m in absent if m in sys.modules]])
    return {"layers": layers, "runs": runs, "dynamics": "rotodyne.dynamics" in sys.modules}


def problems(report: dict) -> list:
    """What the report shows wrong, one line each."""
    found = []
    if report["layers"] != ["rotodyne._version"]:
        found.append(f"import rotodyne loaded {report['layers']}")
    for (argvs, codes, _), (got, loaded) in zip(LOAD_STEPS, report["runs"]):
        if got != codes:
            found.append(f"exit codes {got}, want {codes}, of {argvs}")
        if loaded:
            found.append(f"{loaded} loaded by the end of {argvs}")
    if not report["dynamics"]:
        found.append("rotodyne.dynamics not loaded by gp --engine tong")
    return found


if __name__ == "__main__":
    report = run(sys.argv[1])
    import json

    print(json.dumps(report))
    found = problems(report)
    if found:
        sys.exit("\n".join(found))
