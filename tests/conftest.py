import json
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import rotodyne


@pytest.fixture(scope="session")
def module_report(tmp_path_factory):
    """The report of ``tests/module_sets.py`` and its OUTDIR, run once in a
    fresh ``python -S`` interpreter whose path holds this checkout's
    package and the site-packages directory: no ``.pth`` file runs, and
    numpy and scipy stay importable."""
    out = tmp_path_factory.mktemp("module-sets")
    src = str(Path(rotodyne.__file__).resolve().parents[1])
    site = dict.fromkeys(sysconfig.get_path(k) for k in ("purelib", "platlib"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *site]))
    script = str(Path(__file__).with_name("module_sets.py"))
    done = subprocess.run(
        [sys.executable, "-S", script, str(out)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout, done.stderr
    return json.loads(done.stdout), out
