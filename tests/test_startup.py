"""What ``import kerrspec`` loads: never scipy.optimize, not even once a crossing is refined.

Crossing refinement and ``track`` find their roots with the package's own
Brent iteration, so importing scipy.optimize would only add start-up time
and memory.  Each check runs in a fresh interpreter, since any other test
module may already have imported scipy.optimize into this one.
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
    return "scipy.optimize" in sys.modules

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
        seen[command] = {"exit": code, "rows": rows, "optimize": loaded()}
print(json.dumps(seen))
"""


def test_no_command_imports_scipy_optimize():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen.pop("import") is False
    for command, run in seen.items():
        assert run["exit"] == 0 and run["rows"] > 0, (command, run)
    assert sorted(seen) == ["casimir", "crossings", "esqpt", "spectrum", "sweep", "track"]
    assert [c for c, run in seen.items() if run["optimize"]] == []
