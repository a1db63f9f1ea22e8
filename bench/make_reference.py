"""Regenerate the stored reference outputs of the envelope and cli-sweep workloads.

    python3 bench/make_reference.py

The stored files were produced by the code of the commit that introduced the
benchmark.  Regenerate them only when a change is meant to alter these
outputs beyond the tolerances in workloads.py, and say so in the change.
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def envelope_reference() -> dict:
    import workloads as w

    arrays = {}
    for sig in (w.persistence_signal(0.0), w.decay_signal(0.0)):
        coeffs, values = w.run_signal(sig)
        arrays[sig.label] = values
        arrays[sig.label + ".n_max"] = coeffs.n_max
    return arrays


def sweep_reference(workdir: Path) -> tuple[dict, dict]:
    """Outputs of every sweep command; 3+1 two-component trajectories at the
    three relative phases of PHASE_GRID, everything else at phase 0."""
    import workloads as w

    configs = w.bundled_configs()
    phased = sorted(n for n, c in configs.items()
                    if w.is_two_component(c) and c.get("model") == "3+1")
    arrays, doc = {}, {"columns": {}, "phased": {n: list(w.PHASE_GRID) for n in phased},
                       "docs": {}, "spectra": {}}
    for i, phi in enumerate(w.PHASE_GRID):
        inputs = w.sweep_inputs(0, workdir / str(i), relative=phi)
        result = w.sweep_job(inputs)
        for cmd in inputs.commands:
            code, got = result[cmd.key]
            if code != 0:
                raise SystemExit(f"{cmd.key} exited with {code}")
            if cmd.command in ("trajectory", "spectrum"):
                _, columns, spectrum = got
                if spectrum is not None:
                    doc["spectra"][cmd.config] = spectrum
                if cmd.command == "trajectory":
                    doc["columns"][cmd.key] = list(columns)
                    if cmd.config in phased:
                        arrays.update({f"{cmd.key}@{i}/{c}": v for c, v in columns.items()})
                    elif i == 0:
                        arrays.update({f"{cmd.key}/{c}": v for c, v in columns.items()})
            elif i == 0:
                doc["docs"][cmd.key] = got
    return arrays, doc


def main() -> None:
    import numpy as np

    warnings.simplefilter("ignore")
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    np.savez_compressed(out / "envelope.npz", **envelope_reference())
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        arrays, doc = sweep_reference(Path(tmp))
    np.savez_compressed(out / "cli_sweep.npz", **arrays)
    with open(out / "cli_sweep.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
