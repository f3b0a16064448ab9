"""Compare the shortcuts of the inclusion check with the whole-left-side scan, exhaustively.

    python3 tools/pruned_scan_sweep.py

`check_inequation` passes over the argument sets that cannot hold a witness
when both sides reach abstractions through their head redexes, and answers
a claim whose sides are a step-bounded number of beta reductions apart
without a scan.  This sweep compares the verdict JSON, or the refusal, of
`check_inequation` with `oracles.check_inequation_by_full_scan` on every
partial pair of `tests/oracles.all_pairs(2, 2)` (77 pairs), over four claim
sets:

  * set-level: every ordered pair of distinct closed abstractions of size
    <= 9 whose body holds only variables and applications (72 claims), at
    (kM, kN) = (2, 4) and (1, 3);
  * redex-free: every ordered pair of the 17 closed redex-free abstractions
    of size <= 5 (`oracles.redex_free_abstractions`, 289 claims), at (2, 4)
    and (1, 3);
  * beta-related: every closed term of size <= 7 against each term it
    reduces to in one or two steps, both ways (`oracles.beta_related_claims`,
    176 claims), at (2, 4) and at (2, 3), where the two-step reducts are past
    the slack;
  * head-reaching: every ordered pair of distinct closed terms of size <= 5
    that reach an abstraction by contracting the redex at the top
    (`oracles.head_reaching_terms`, 20 terms, 380 claims), at (2, 4) and
    (1, 3).

The one difference allowed is a refusal of the full scan where the check
answers; the sweep counts those by the verdict the check gives.  It prints
the first other mismatch with its input and exits 1; otherwise it prints the
counts and exits 0.  Each claim set's line ends with the seconds it took, so
a run near a time limit shows which set spent it.  It is stdlib only.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from gml.approximation import check_inequation  # noqa: E402
from gml.completion import CeilingExceeded  # noqa: E402
from gml.terms import print_term  # noqa: E402
from oracles import (  # noqa: E402
    all_pairs,
    beta_related_claims,
    check_inequation_by_full_scan,
    head_reaching_terms,
    redex_free_abstractions,
    set_level_abstractions,
)


def outcome(run):
    """run()'s verdict JSON, or the type and message of the refusal it raises."""
    try:
        return run()
    except CeilingExceeded as exc:
        return type(exc).__name__, str(exc)


def sweeps() -> list[tuple[str, list, tuple]]:
    """(name, claims, rank settings) of each claim set.  Claims with one left
    side are adjacent, so the full scan enumerates it once for them all."""
    flat = set_level_abstractions(9)
    normal = redex_free_abstractions(5)
    related = beta_related_claims(7, 2)
    reaching = head_reaching_terms(5)
    first = {}
    for lhs, _ in related:
        first.setdefault(lhs, len(first))
    return [
        ("set-level", [(lhs, rhs) for lhs in flat for rhs in flat if lhs is not rhs], ((2, 4), (1, 3))),
        ("redex-free", [(lhs, rhs) for lhs in normal for rhs in normal], ((2, 4), (1, 3))),
        ("beta-related", sorted(related, key=lambda claim: first[claim[0]]), ((2, 4), (2, 3))),
        ("head-reaching", [(lhs, rhs) for lhs in reaching for rhs in reaching if lhs is not rhs], ((2, 4), (1, 3))),
    ]


def compare(lhs, rhs, p, k_lhs: int, k_rhs: int) -> str | None:
    """"same" when the check and the full scan agree, the check's verdict
    kind when it answers where the full scan refuses, None on any other
    difference, which is printed."""
    got = outcome(lambda: check_inequation(lhs, rhs, p, k_lhs, k_rhs).to_json(p))
    want = outcome(lambda: check_inequation_by_full_scan(lhs, rhs, p, k_lhs, k_rhs).to_json(p))
    if got == want:
        return "same"
    if isinstance(want, tuple) and isinstance(got, dict):
        return got["kind"]
    print(f"mismatch: {print_term(lhs)} <= {print_term(rhs)}, kM={k_lhs}, kN={k_rhs}")
    print(f"pair: {p.to_json()}")
    print(f"check:     {got}")
    print(f"full scan: {want}")
    return None


def main() -> int:
    for name, claims, ranks in sweeps():
        start = time.perf_counter()
        counts = {"same": 0, "holds_up_to": 0, "fails_with_evidence": 0}
        for p in all_pairs(2, 2):
            for k_lhs, k_rhs in ranks:
                for lhs, rhs in claims:
                    result = compare(lhs, rhs, p, k_lhs, k_rhs)
                    if result is None:
                        return 1
                    counts[result] += 1
        print(
            f"{name}: {counts['same']} checks over {len(claims)} claims agree with the full scan; "
            f"where it refuses, {counts['holds_up_to']} more hold and {counts['fails_with_evidence']} more fail "
            f"({time.perf_counter() - start:.1f} s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
