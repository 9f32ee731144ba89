"""Exhaustive verification workbench for three-agent, eight-good fair
division instances whose agents share one typed valuation up to a cyclic
relabeling of the goods.

The built-in instance comes in three flavors over the same preference
pattern: ordinal ranks, exact level values (monotone subadditive), and a
weighted coverage valuation (monotone submodular).  The claim checkers in
efxcheck.verify scan the full allocation universe with exact arithmetic;
the command line in efxcheck.cli drives them and regenerates the
instance's reference tables.
"""

from .cardinal import (
    ApproxFactor,
    AlgebraicValue,
    CoverageAtom,
    CoverageProfile,
    LevelValue,
    SubadditiveProfile,
    compare_scaled,
    coverage_value,
    level_sum_compare,
    subadditive_value,
    support_value_table,
)
from .core import (
    Allocation,
    Bundle,
    allocation_from_counter,
    apply_permutation,
    bundle_of,
    enumerate_allocations,
    members,
)
from .ordinal import (
    InstanceTemplate,
    OrdinalProfile,
    TemplateError,
    base_pair_rank,
    builtin_profile,
    is_exceptional,
    load_template,
    load_template_file,
    rank0,
    rank_for_agent,
    rotate_allocation,
    support_of,
    type_of,
)
from .verify import (
    DeficitProfile,
    Profile,
    VerdictReport,
    Witness,
    builtin,
    compute_deficit_profile,
    efx_feasible,
    is_efx,
    strong_envy_witness,
    verify_cyclic_symmetry,
    verify_lemma_first_pair,
    verify_no_alpha_efx,
    verify_no_efx,
    verify_size_pattern_props,
    verify_transfer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
