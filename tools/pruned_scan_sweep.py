"""Compare the shortcuts of the inclusion check with the whole-left-side scan, exhaustively.

    python3 tools/pruned_scan_sweep.py

Every case of every claim set in `tests/oracles.CLAIM_SETS` goes through
`oracles.compare`, which sets the verdict JSON, or the refusal, of
`check_inequation` against `oracles.check_inequation_by_full_scan`: each
claim at each of its set's two rank settings, on every partial pair of
`oracles.all_pairs(2, 2)` (77 pairs).  The suite compares a seeded sample of
each set the same way.  Where the full scan refuses, a set may allow the
check an answer; those are counted by the verdict the check gives.  The
first other mismatch is printed with its input, and the sweep exits 1;
otherwise it prints each set's counts and the seconds it took, and exits 0.
The full scan keeps the left sides it enumerates for the rest of their pair.
It is stdlib only.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from oracles import CLAIM_SETS, Mismatch, all_pairs, compare  # noqa: E402


def main() -> int:
    for name, claim_set in CLAIM_SETS.items():
        start = time.perf_counter()
        counts = Counter()
        for p in all_pairs(2, 2):
            cache: dict = {}
            for lhs, rhs in claim_set.claims:
                for ranks in claim_set.ranks:
                    try:
                        result, _ = compare(claim_set, lhs, rhs, p, ranks, cache)
                    except Mismatch as exc:
                        print(exc)
                        return 1
                    counts[result] += 1
        print(
            f"{name}: {counts['same']} checks over {len(claim_set.claims)} claims agree with the full scan; "
            f"where it refuses, {counts['holds_up_to']} more hold and {counts['fails_with_evidence']} more fail "
            f"({time.perf_counter() - start:.1f} s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
