#!/usr/bin/env python3
"""Pin the §VII-A study at the paper's grid: all 1820 groups at 1024 units.

Profiles the 16-program suite at ``ExperimentConfig(cache_blocks=16384,
unit_blocks=16)``, sweeps every 4-program group in one process, and
compares ``groups``, ``group_mr`` and ``allocations`` byte for byte with
``tests/golden/study_paper.npz`` (written by ``np.savez_compressed``
from the same three arrays plus ``schemes``).  Prints each scheme's
byte-equality and largest relative difference, the Table I rows, and
the set-up and sweep seconds.

Usage: PYTHONPATH=src python scripts/check_study.py
Exits 1 on any difference from the pin.
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.methodology import (
    ExperimentConfig,
    build_suite_profile,
    run_study,
)
from repro.experiments.table1 import format_table, improvement_table

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "study_paper.npz"
CONFIG = ExperimentConfig(cache_blocks=16384, unit_blocks=16)


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest ``|a - b| / |a|`` over the cells (0 where both are equal)."""
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(a))
    return float(rel.max()) if rel.size else 0.0


def main() -> int:
    t0 = time.perf_counter()
    profile = build_suite_profile(CONFIG)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = run_study(profile, n_jobs=1)
    sweep_s = time.perf_counter() - t0

    pin = np.load(GOLDEN, allow_pickle=False)
    ok = tuple(pin["schemes"]) == result.schemes
    ok &= pin["groups"].tobytes() == result.groups.tobytes()
    print(f"schemes and groups: {'equal' if ok else 'DIFFERENT'}")
    if ok:
        for s, scheme in enumerate(result.schemes):
            pairs = [
                (pin[name][..., s], getattr(result, name)[..., s])
                for name in ("group_mr", "allocations")
            ]
            equal = all(a.tobytes() == b.tobytes() for a, b in pairs)
            worst = max(max_rel_diff(a, b) for a, b in pairs)
            ok &= equal
            verdict = "byte-identical" if equal else "DIFFERENT"
            print(f"  {scheme:18s} {verdict:15s} max rel diff {worst:.3g}")
    print()
    print(format_table(improvement_table(result)))
    print()
    print(f"set-up {setup_s:.1f} s, sweep {sweep_s:.1f} s "
          f"({1e3 * sweep_s / len(result.groups):.2f} ms/group)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
