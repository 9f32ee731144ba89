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
    CoverageAtom,
    CoverageProfile,
    LevelValue,
    SubadditiveProfile,
    compare_scaled,
    level_sum_compare,
    support_value_table,
)
from .core import (
    Allocation,
    Bundle,
    allocation_from_counter,
    bundle_of,
    members,
)
from .ordinal import (
    InstanceTemplate,
    OrdinalProfile,
    TemplateError,
    builtin_profile,
    load_template,
    load_template_file,
)
from .verify import (
    DeficitProfile,
    Profile,
    VerdictReport,
    Witness,
    builtin,
    compute_deficit_profile,
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
