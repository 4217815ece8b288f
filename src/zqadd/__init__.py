"""Exact computation for additive structure of subsets of Z_q: sumsets,
the impact function, arithmetic-progression decompositions, digital sets
with carry statistics, chain structure of near-extremal sets, and a
verification harness for the accompanying bounds."""

from .core import (
    BudgetExceededError,
    ModulusMismatchError,
    ResidueSet,
    interval,
    kneser_check,
    normalize_difference,
    parse_set,
    period_group,
    seminorm,
    set_from_json,
    set_to_json,
    sumset,
)
from .progressions import (
    ApDecomposition,
    StabilityReport,
    UniquenessVerdict,
    alpha,
    alpha_profile,
    check_uniqueness,
    decompose,
    min_alpha,
    optimal_differences,
    stability,
)
from .impact import (
    ImpactResult,
    pluennecke_subset,
    range_bounds,
    sidon_check,
    xi_exact,
    xi_naive,
    xi_search,
)
from .digital import (
    carry_stats,
    enumerate_digital_sets,
    is_digital,
    prime_condition,
    subgroup_lemma_check,
    verify_carry_extremality,
    verify_digital_impact_bound,
    verify_impact_extension,
    verify_small_doubling_classification,
)
from .chains import (
    ChainFamily,
    ConstructionSpec,
    MuRecord,
    build_construction,
    compute_mu,
    equal_impact_witnesses,
    extract_chain_structure,
    project_to_prime,
)
from .config import RunConfig

__version__ = "0.1.0"
