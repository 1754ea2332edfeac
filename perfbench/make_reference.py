"""Regenerate reference/seed0.json from a seed-0 run of the current library.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the reference outputs, and say
why in the change.  It refuses to write a reference that fails the
analytic checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import check as C
import workloads as W
from run import NAMES, OUT


def _blocks_as_lists(blocks: dict, count: int) -> list:
    return [
        [[float(x) for x in blocks[(g, r)][0]] for r in (0, 1)]
        for g in C.sample_indices(count)
    ]


def main() -> int:
    reference: dict = {name: {} for name in NAMES}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        outputs = {}
        for name in NAMES:
            count = W.GRIDS[name][2]
            outputs[name] = out = W.execute(name, W.build(name, 0, workdir / name), 0)
            if name in ("esqpt_xi", "crossings_eta"):
                reference[name]["levels"] = _blocks_as_lists(C.grid_blocks(out["grid"]), count)
            if name == "sweep_cli_full":
                _, _, blocks = C.csv_scan(out["out_dir"] / "sweep.csv", count)
                reference[name]["levels"] = _blocks_as_lists(blocks, count)
        reference["esqpt_xi"]["estimates"] = [
            [e.v, e.method, e.xi_c, e.E_c] for e in outputs["esqpt_xi"]["estimates"]
        ]
        reference["crossings_eta"]["avoided"] = [
            [e.kind, list(e.level_pair), e.param_value]
            for e in outputs["crossings_eta"]["events"]
            if e.kind == "avoided_crossing"
        ]
        failed = 0
        for name in NAMES:
            tally = C.check(name, 0, outputs[name], reference)
            failed += tally.failed
            for note in tally.notes:
                print(f"{name}: FAILED {note}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        print("reference not written", file=sys.stderr)
        return 1
    C.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {C.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
