"""POSS's search on positions against the bit-vector reference, 300 problems.

    PYTHONPATH=src python3 tests/poss_reference_sweep.py

Each problem has the loop's shape (``paper_checks.loop_shaped_problem``:
pool 200, whole costs 1-10, budget 25) and runs 5000 iterations. The
script exits 1 at the first problem whose archive (positions, j1, j2) or
``poss_optimize`` picks differ from ``paper_checks.reference_pomc``'s. It
takes a few seconds. Not named ``test_*``, so pytest does not collect it;
``tests/test_poss.py`` runs the first 20 of these checks.
"""

import sys

import numpy as np
from paper_checks import loop_shaped_problem, reference_picks, reference_pomc

from activemc.poss import _evolve, poss_optimize

PROBLEMS = 300
ITERATIONS = 5000


def main() -> int:
    for seed in range(PROBLEMS):
        p = loop_shaped_problem(np.random.default_rng(seed))
        expected, _, _ = reference_pomc(p, ITERATIONS, np.random.default_rng([seed, 1]), 1 / len(p))
        archive = _evolve(p, ITERATIONS, np.random.default_rng([seed, 1]), 1 / len(p))
        if [(s.positions, s.j1, s.j2) for s in archive.solutions] != expected:
            print(f"problem {seed}: the archive differs from the reference")
            return 1
        picks = poss_optimize(p, ITERATIONS, rng=np.random.default_rng([seed, 1])).tolist()
        if picks != reference_picks(expected, p.budget):
            print(f"problem {seed}: picks {picks} differ from the reference's")
            return 1
    print(f"{PROBLEMS} problems: archives and picks equal the reference's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
