"""Show that the output check flags perturbed results.

    python3 perfbench/selftest.py

Executes crossings_eta once at seed 0 and sweep_cli_full once at seed 1 and
checks their outputs as produced (no item may fail).  Then it checks
perturbed copies: a dropped or duplicated crossing event, one level shifted
by 1e-6, a tracked crossing moved by 1e-3, a nonzero CLI exit, one CSV
energy shifted by 1e-6 (at seed 1, where only the independent solve knows
the levels), a CSV row removed, and one ESQPT estimate shifted.  Each
perturbation must add failed items; the script exits with status 1 if one
does not.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import check as C
import workloads as W
from run import OUT

import kerrspec.esqpt


def _failed(name: str, out: dict, reference: dict, seed: int = 0) -> int:
    return C.check(name, seed, out, reference).failed


def _shift_level(grid, residue: int, g: int, level: int, delta: float):
    curves = dict(grid.curves)
    shifted = curves[residue].copy()
    shifted[g, level] += delta
    curves[residue] = shifted
    return dataclasses.replace(grid, curves=curves)


def main() -> int:
    reference = C.load_reference()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    results = []

    def expect(label: str, base: int, perturbed: int) -> None:
        ok = perturbed > base
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}: failed items {base} -> {perturbed}")

    try:
        name = "crossings_eta"
        out = W.execute(name, W.build(name, 0, workdir / name), 0)
        base = _failed(name, out, reference)
        results.append(base == 0)
        print(f"{'PASS' if base == 0 else 'FAIL'} {name} as produced: failed items {base}")
        events = out["events"]
        mid = len(events) // 2  # an interior event; those at the grid ends are optional
        dropped = events[:mid] + events[mid + 1 :]
        expect("one crossing event dropped", base, _failed(name, {**out, "events": dropped}, reference))
        expect(
            "one crossing event duplicated",
            base,
            _failed(name, {**out, "events": events + events[:1]}, reference),
        )
        g = C.SAMPLE_STRIDE
        expect(
            "one level shifted by 1e-6",
            base,
            _failed(name, {**out, "grid": _shift_level(out["grid"], 0, g, 3, 1e-6)}, reference),
        )
        tracked = list(out["tracked"])
        tracked[2] = tracked[2]._replace(eta_star=tracked[2].eta_star + 1e-3)
        expect("one tracked point moved by 1e-3", base, _failed(name, {**out, "tracked": tracked}, reference))

        name, seed = "sweep_cli_full", 1
        out = W.execute(name, W.build(name, seed, workdir / name), 0)
        base = _failed(name, out, reference, seed)
        results.append(base == 0)
        print(f"{'PASS' if base == 0 else 'FAIL'} {name} seed {seed} as produced: failed items {base}")
        expect("nonzero CLI exit code", base, _failed(name, {**out, "exit_code": 3}, reference, seed))
        csv_path = out["out_dir"] / "sweep.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        # level 3 of the even sector at a sampled grid point (line 0 is the header)
        row = 1 + C.SAMPLE_STRIDE * (W.BASES[name][0] + 1) + 3
        fields = lines[row].split(",")
        fields[3] = repr(float(fields[3]) + 1e-6)
        csv_path.write_text("".join(lines[:row] + [",".join(fields)] + lines[row + 1 :]))
        expect("one CSV energy shifted by 1e-6", base, _failed(name, out, reference, seed))
        csv_path.write_text("".join(lines[:-1]))
        expect("one CSV row removed", base, _failed(name, out, reference, seed))

        # Estimates rebuilt from the reference, so that esqpt_xi need not run:
        # the grid is absent in both outputs and only the estimate items differ.
        name = "esqpt_xi"
        estimates = [kerrspec.esqpt.CriticalPointEstimate(*e) for e in reference[name]["estimates"]]
        synthetic = {"estimates": estimates, "separatrix": kerrspec.esqpt.separatrix_from_estimates(estimates)}
        base = _failed(name, synthetic, reference)
        moved = list(estimates)
        moved[0] = moved[0]._replace(xi_c=moved[0].xi_c + 0.01)
        expect("one max-rate estimate moved by 0.01", base, _failed(name, {**synthetic, "estimates": moved}, reference))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
