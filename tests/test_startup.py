"""What ``import kerrspec`` loads: never scipy.optimize, scipy.linalg nor
concurrent.futures, whatever runs.

Crossing refinement and ``track`` find their roots with the package's own
Brent iteration, the eigensolvers call the LAPACK drivers of scipy's
compiled ``_flapack`` extension directly, and sweeps run in the calling
thread, so importing scipy.optimize, scipy.linalg or a thread pool would only
add start-up time and memory.  Each check runs in a fresh interpreter, since
any other test module may already have imported them into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = r"""
import json, sys, tempfile
from pathlib import Path

def loaded():
    return {m: m in sys.modules for m in ("scipy.optimize", "scipy.linalg", "concurrent.futures")}

import kerrspec, kerrspec.cli
seen = {"import": loaded()}
base = {"schema_version": 1}
numeric = {"n_max": 40, "n_probe": 60}
configs = {
    "spectrum": {"hamiltonian": {"eta": 2.0, "xi": 1.0}, "numeric": numeric},
    "sweep": {
        "hamiltonian": {"xi": 1.0},
        "numeric": numeric,
        "grid": {"varying": "eta", "start": 0.0, "stop": 2.0, "step": 0.5},
        "output": {"formats": ["csv", "svg"]},
    },
    "esqpt": {
        "numeric": numeric,
        "grid": {"varying": "xi", "start": 0.0, "stop": 6.0, "step": 0.1},
        "esqpt": {"v_max": 4},
    },
    "casimir": {"casimir": {"N": 40}},
    # off the integer nodes, so that every crossing found is refined
    "crossings": {
        "hamiltonian": {"xi": 1.0},
        "numeric": numeric,
        "grid": {"varying": "eta", "start": 0.05, "stop": 3.05, "step": 0.1},
    },
    "track": {
        "numeric": {"n_max": 40},
        "grid": {"varying": "xi", "start": 0.5, "stop": 2.0, "step": 0.5},
        "track": {"eta0": 2, "pair": [0, 0, 1, 0]},
    },
}
with tempfile.TemporaryDirectory() as tmp:
    for command, extra in configs.items():
        path = Path(tmp) / f"{command}.json"
        path.write_text(json.dumps({**base, "command": command, **extra}))
        code = kerrspec.cli.main(["--config", str(path), "--out", tmp, "--threads", "1"])
        rows = len((Path(tmp) / f"{command}.csv").read_text().splitlines()) - 1
        seen[command] = {"exit": code, "rows": rows, "loaded": loaded()}
print(json.dumps(seen))
"""


def fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(proc.stdout)


def test_no_command_imports_scipy_optimize():
    # nor scipy.linalg, whose Python layer the LAPACK drivers are loaded
    # without, nor concurrent.futures, as no sweep starts a thread pool
    seen = fresh(_PROBE)
    assert seen.pop("import") == {
        "scipy.optimize": False, "scipy.linalg": False, "concurrent.futures": False
    }
    for command, run in seen.items():
        assert run["exit"] == 0 and run["rows"] > 0, (command, run)
    assert sorted(seen) == ["casimir", "crossings", "esqpt", "spectrum", "sweep", "track"]
    assert [c for c, run in seen.items() if any(run["loaded"].values())] == []


def test_scipy_linalg_imported_before_kerrspec_still_works():
    # kerrspec loads its own copy of the extension beside scipy's
    seen = fresh(
        "import json, numpy as np, scipy.linalg, kerrspec.eigensolve as E\n"
        "from kerrspec.fock import BandedSymMatrix\n"
        "ab = np.array([[2.0, 2.0], [1.0, 0.0]])\n"
        "w = scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)\n"
        "m = BandedSymMatrix((np.array([2.0, 2.0]), np.array([1.0])))\n"
        "print(json.dumps([E._lapack.__name__, scipy.linalg._flapack.__name__,\n"
        "                  w.tolist(), E.eigen(m).tolist()]))"
    )
    assert seen == ["kerrspec._flapack", "scipy.linalg._flapack", [1.0, 3.0], [1.0, 3.0]]


def test_scipy_linalg_imported_after_kerrspec_still_works():
    seen = fresh(
        "import json, numpy as np, kerrspec, scipy.linalg\n"
        "ab = np.array([[2.0, 2.0], [1.0, 0.0]])\n"
        "w = scipy.linalg.eig_banded(ab, lower=True, eigvals_only=True)\n"
        "print(json.dumps([scipy.linalg._flapack.__name__, w.tolist()]))"
    )
    assert seen == ["scipy.linalg._flapack", [1.0, 3.0]]


def test_without_the_extension_file_scipy_linalg_is_imported():
    # as in an editable install of scipy, where the extension lives in a build tree
    assert fresh(
        "import importlib.machinery, json, sys, kerrspec.eigensolve as E\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "importlib.machinery.EXTENSION_SUFFIXES = []\n"
        "lapack = E._load_lapack()\n"
        "import scipy.linalg\n"
        "print(json.dumps(lapack is scipy.linalg._flapack))"
    )
