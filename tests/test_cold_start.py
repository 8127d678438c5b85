"""Import cost of the package: every CLI command is a fresh process.

No module of the package imports scipy, so importing it and running any
command, the certifying ones included, loads no scipy module at all: with a
process pool, neither in the parent nor in a worker.  The standard library's
statistics module, which the bound and the quantile use, loads only in the
commands that certify.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
POOL_MODULES = ("sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing'))")
POOL_OR_QUEUE_MODULES = ("sorted(m for m in sys.modules "
                         "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'queue'))")
STATISTICS_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'statistics')"


def run_python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["ebsmooth", "ebsmooth.cli"])
def test_import_loads_no_scipy(module):
    # scipy.stats costs most of a second and ~45 MB per command, and
    # scipy.special alone as much as the rest of the package
    assert run_python(f"import sys, {module}; print({SCIPY_MODULES})") == "[]"


@pytest.mark.parametrize("module", ["ebsmooth", "ebsmooth.cli"])
def test_import_loads_no_pool_stack(module):
    # only certify_points at workers > 1 makes a process pool, and it imports
    # concurrent.futures (and with it multiprocessing, socket, logging and
    # queue) then, so the commands that never make one never load it
    assert run_python(f"import sys, {module}; print({POOL_MODULES})") == "[]"


@pytest.mark.parametrize("module", ["ebsmooth", "ebsmooth.cli"])
def test_import_loads_no_statistics(module):
    # statistics loads decimal and fractions, about 5 ms; only a bound or a
    # quantile imports it
    assert run_python(f"import sys, {module}; print({STATISTICS_MODULES})") == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_import_keeps_megabyte_temporaries_on_the_heap():
    # the package frees a 2 MB buffer at import, which raises glibc's mmap
    # and trim thresholds: a loop of 1 MB temporaries then reuses heap pages
    # already faulted in (without it, each one faults in about 11 pages), for
    # library callers as for the CLI
    code = (
        "import resource\n"
        "import numpy as np\n"
        "import ebsmooth\n"
        "np.ones(1 << 17)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    np.ones(1 << 17)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    assert int(run_python(code)) < 20


def run_command(tmp_path, command, modules, nc=200):
    """Run one command in a fresh process on a tiny config, at an estimation
    budget of nc, and return the list the `modules` expression prints after
    it."""
    cfg = {
        "seed": 3,
        "sigma": 0.5,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"kind": "gaussian_classes", "means": [[1.0, 0.0], [-1.0, 0.0]],
                    "sigma0": 0.5, "n_train": 32, "n_test": 8},
        "classifier": {"kind": "mlp", "hidden": [4]},
        "energy_train": {"hidden": [4], "steps": 2, "batch_size": 8},
        "train": {"mode": "adversarial", "steps": 2, "batch_size": 8},
        "attack": {"epsilon": 0.5, "steps": 2},
        "walk_jump": {"n_samples": 3, "tau": 2, "dump_trajectory": True},
        "confidence": {"alpha": 0.01, "n0": 10, "nc": nc},
        "certify": {"max_points": 3, "workers": 1},
    }
    if command in ("certify", "curve", "oracle-check"):
        # oracle-check referees a linear base over one centred Gaussian
        cfg["dataset"]["means"] = [[0.0, 0.0]]
        cfg["classifier"] = {"kind": "linear", "weights": [1.0, -0.5], "bias": 0.2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = ("import sys\nfrom ebsmooth.cli import main\n"
            f"assert main([{command!r}, '-c', {str(path)!r}]) == 0\n"
            f"print({modules})")
    out = run_python(code)
    assert list((tmp_path / "out").iterdir())
    return out


@pytest.mark.parametrize("command", ["gen-data", "train-energy", "train-xhat", "walk-jump",
                                     "certify", "curve", "oracle-check"])
def test_non_certifying_command_loads_no_scipy(tmp_path, command):
    # the certifying commands too: the bound and the quantile need no scipy
    assert run_command(tmp_path, command, SCIPY_MODULES) == "[]"


@pytest.mark.parametrize("command", ["gen-data", "train-energy", "train-xhat", "walk-jump",
                                     "certify"])
def test_only_certifying_commands_load_statistics(tmp_path, command):
    # certify bounds and takes a quantile, so it shows the check can see
    # the module
    want = "['statistics']" if command == "certify" else "[]"
    assert run_command(tmp_path, command, STATISTICS_MODULES) == want


def test_multi_block_tallies_load_no_pool_or_queue(tmp_path):
    # at d = 2 a tally block is 32,768 rows, so each estimation tally of
    # 70,000 spans three blocks and draws ahead on a helper thread, which
    # needs only the threading module numpy has already loaded
    assert run_command(tmp_path, "oracle-check", POOL_OR_QUEUE_MODULES, nc=70_000) == "[]"


def test_pool_workers_count_without_scipy_special():
    # with a pool, each worker certifies whole points, both tallies and the
    # bound, and the parent only collects the results: neither loads
    # scipy.special.  The bound is wrapped through sys.modules, because
    # `import ebsmooth.certify` gives the function the package re-exports
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "from ebsmooth.classifiers import EbClassifier, LinearClassifier\n"
        "from ebsmooth.densities import Identity\n"
        "from ebsmooth.harness import certify_points\n"
        "from ebsmooth.stats import ConfidenceSpec\n"
        "PARENT = os.getpid()\n"
        "class Checked(LinearClassifier):\n"
        "    def predict_class(self, x):\n"
        "        assert os.getpid() != PARENT, 'tallied in the parent'\n"
        "        assert 'scipy.special' not in sys.modules, 'worker loaded scipy.special'\n"
        "        return super().predict_class(x)\n"
        "cert = sys.modules['ebsmooth.certify']\n"
        "bound = cert.binom_lower_bound\n"
        "def checked_bound(*args):\n"
        "    assert os.getpid() != PARENT, 'bounded in the parent'\n"
        "    return bound(*args)\n"
        "cert.binom_lower_bound = checked_bound\n"
        "assert 'scipy.special' not in sys.modules\n"
        "clf = EbClassifier(Checked(np.array([1.0, 0.0]), 0.1), Identity(), 0.5)\n"
        "res = certify_points(clf, np.array([[2.0, 0.0], [-2.0, 1.0]]),\n"
        "                     ConfidenceSpec(alpha=0.01, n0=20, nc=200), 1, workers=2)\n"
        "assert [r.predicted for r in res] == [1, 0]\n"
        "print('scipy.special' in sys.modules)"
    )
    assert run_python(code) == "False"
