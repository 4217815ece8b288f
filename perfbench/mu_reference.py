"""Rebuild mu_reference.json: mu(p) and its witnesses by brute force.

    python3 perfbench/mu_reference.py            # p = 13, 17, 19, 23; about 20 s

For each prime p this scans every subset of Z_p that contains 0, by
increasing size, until a size has sets with xi(2) = xi(3).  That size is
mu(p); the sets of that size containing 0 are the witnesses (each
translation class of an aperiodic set contains 0 exactly |A| times), and
their classes under x -> c*x + s are listed by least image.  Only
``oracle`` is used, none of zqadd, so the table can check compute_mu.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

import oracle

PRIMES = (13, 17, 19, 23)
OUT = Path(__file__).with_name("mu_reference.json")


def brute_mu(p: int) -> dict:
    for size in range(2, p):
        witnesses = []
        for rest in combinations(range(1, p), size - 1):
            mask = 1
            for x in rest:
                mask |= 1 << x
            if oracle.equal_impact(mask, p):
                witnesses.append(mask)
        if witnesses:
            classes = sorted({oracle.affine_canonical(oracle.members(w), p) for w in witnesses})
            return {"p": p, "mu": size, "witness_count": len(witnesses), "affine_classes": [list(c) for c in classes]}
    raise AssertionError(f"no set with xi(2) = xi(3) in Z_{p}")


def main() -> int:
    rows = []
    for p in PRIMES:
        rows.append(brute_mu(p))
        print(json.dumps(rows[-1]), file=sys.stderr)
    OUT.write_text(
        json.dumps({"rebuild": "python3 perfbench/mu_reference.py", "rows": rows}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
