"""Criteria 6 and 8 rerun on the data sets of seeds 1-12.

    PYTHONPATH=src python3 tests/sweep_6_8.py

The acceptance suite runs both criteria on one data set (seed 777). This
script reruns their plans unchanged at data seeds 1-12, prints one line
per seed and each criterion's hold rate, and exits 1 when either rate
falls below the 11 of 12 that the README records. It takes about 75 s.
Not named ``test_*``, so pytest does not collect it.
"""

import sys

from test_acceptance import active_beats_random, cost_awareness_helps

SEEDS = range(1, 13)
RECORDED_HOLDS = 11  # of the 12 seeds, for each criterion


def main() -> int:
    held = {6: 0, 8: 0}
    for seed in SEEDS:
        line = [f"seed {seed:2d}"]
        for number, check in ((6, active_beats_random), (8, cost_awareness_helps)):
            ok, detail = check(seed)
            held[number] += bool(ok)
            line.append(f"criterion {number} {'holds' if ok else 'FAILS'} ({detail})")
        print("  ".join(line), flush=True)
    for number, count in held.items():
        print(f"criterion {number} held {count}/{len(SEEDS)}")
    return int(min(held.values()) < RECORDED_HOLDS)


if __name__ == "__main__":
    sys.exit(main())
