"""The chain-of-intervals construction and its density march to 13/18.

Builds the union of trimmed chains for m = 3..8, prints sizes against
the closed form, then projects the m = 3 instance into Z_67 and shows
the chain family of the complement.
"""

from zqadd.chains import (
    build_construction,
    construction_chain_family,
    project_to_prime,
)
from zqadd.impact import xi_exact


def main():
    print(f"{'m':>2} {'|B|':>7} {'2^2m':>7} {'density':>9}  target 13/18 = {13 / 18:.5f}")
    for m in range(3, 9):
        spec = build_construction(m)
        assert spec.size == spec.closed_form_size
        print(f"{m:>2} {spec.size:>7} {spec.ground:>7} {spec.density:>9.5f}")

    print()
    spec = build_construction(3)
    p, A = project_to_prime(spec)
    fam = construction_chain_family(spec, p, A)
    print(f"m = 3 projected to Z_{p}: complement A has {A.size} elements")
    print(f"chain family (d1 = 1, d2 = {spec.d}): {len(fam.chains)} chains, "
          f"{fam.run_count} gap runs, conditions hold: {fam.valid}")
    for i, chain in enumerate(fam.chains):
        print(f"  chain {i}: runs {[list(run) for run in chain]}")
    print(f"xi(2) = {xi_exact(A, 2)}, xi(3) = {xi_exact(A, 3)} "
          f"(equality is the asymptotic target, not guaranteed at m = 3)")


if __name__ == "__main__":
    main()
