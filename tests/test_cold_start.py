"""Import cost of the package: every CLI command is a fresh process."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["ebsmooth", "ebsmooth.cli"])
def test_import_does_not_load_scipy_stats(module):
    # scipy.stats alone costs most of a second and ~45 MB per command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
