"""Compare the pruned inclusion scan with the whole-left-side scan, exhaustively.

    python3 tools/pruned_scan_sweep.py

`check_inequation` passes over the argument sets of a set-level abstraction
(its body built from variables and applications only) that cannot hold a
witness.  This sweep takes every ordered pair of distinct set-level closed
abstractions of size <= 9 (`\\a.a` to `\\a.a a a a`, 72 pairs), every
partial pair of `tests/oracles.all_pairs(2, 2)` (77 pairs) and the rank
settings (kM, kN) = (2, 4) and (1, 3), and compares the verdict JSON, or the
refusal, of `check_inequation` with `oracles.check_inequation_by_full_scan`.
It prints the first mismatch with its input and exits 1; otherwise it prints
the number of checks and exits 0.  It is stdlib only.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from gml.approximation import check_inequation  # noqa: E402
from gml.completion import CeilingExceeded  # noqa: E402
from gml.terms import print_term  # noqa: E402
from oracles import all_pairs, check_inequation_by_full_scan, set_level_abstractions  # noqa: E402

RANKS = ((2, 4), (1, 3))


def outcome(run):
    """run()'s verdict JSON, or the type and message of the refusal it raises."""
    try:
        return run()
    except CeilingExceeded as exc:
        return type(exc).__name__, str(exc)


def main() -> int:
    terms = set_level_abstractions(9)
    claims = [(lhs, rhs) for lhs in terms for rhs in terms if lhs is not rhs]
    count = 0
    for p in all_pairs(2, 2):
        for k_lhs, k_rhs in RANKS:
            for lhs, rhs in claims:
                got = outcome(lambda: check_inequation(lhs, rhs, p, k_lhs, k_rhs).to_json(p))
                want = outcome(lambda: check_inequation_by_full_scan(lhs, rhs, p, k_lhs, k_rhs).to_json(p))
                if got != want:
                    print(f"mismatch: {print_term(lhs)} <= {print_term(rhs)}, kM={k_lhs}, kN={k_rhs}")
                    print(f"pair: {p.to_json()}")
                    print(f"pruned scan: {got}")
                    print(f"full scan:   {want}")
                    return 1
                count += 1
    print(f"{count} checks over {len(claims)} claims agree with the full scan")
    return 0


if __name__ == "__main__":
    sys.exit(main())
