"""Checker verdicts: built-in theorems pass, doctored inputs fail with
re-verifiable witnesses, and reports merge deterministically."""

import json

import pytest

from helpers import identical_agents_doc, random_template_doc
from oracles import (
    agent_feasible,
    counter_of,
    deficit,
    deficits,
    efx_counters,
    first_witness,
    keyed,
    mask,
    rotated_counter,
    transfer,
    triples_of,
    universe,
    unmask,
    value_pairs,
)

from efxcheck.cardinal import ApproxFactor, LevelValue, build_subadditive, compare_scaled, level_sum_compare
from efxcheck.core import ALL_BUNDLES, FULL_BUNDLE, N_ALLOCATIONS, allocation_from_counter, bundle_of
from efxcheck.ordinal import builtin_profile, load_template
from efxcheck.verify import (
    GOLDEN_D_STAR,
    GOLDEN_D_STAR_ARGMIN_COUNT,
    GOLDEN_D_STAR_ARGMIN_COUNTER,
    GOLDEN_MIN_DEFICIT_ALL_NONEMPTY,
    Profile,
    VerdictReport,
    builtin,
    check_monotone,
    check_strict_consistency,
    check_subadditive,
    check_submodular,
    check_support_collapse,
    compute_deficit_profile,
    lemma_reports,
    profile_value_keys,
    property_reports,
    verify_cyclic_symmetry,
    verify_lemma_first_pair,
    verify_no_alpha_efx,
    verify_no_efx,
    verify_size_pattern_props,
    verify_transfer,
)


def _identical_profile() -> Profile:
    _, profile = load_template(identical_agents_doc())
    return Profile(kind="ordinal", ordinal=profile)


# --- main non-existence scans -------------------------------------------------


@pytest.mark.parametrize("kind", ["ordinal", "subadditive", "coverage"])
def test_no_efx_on_builtins(kind):
    report = verify_no_efx(builtin(kind))
    assert report.passed
    assert report.universe == report.checked == 6561
    assert dict(report.breakdown)["efx_allocations"] == 0
    assert not report.witnesses


def test_no_efx_fails_with_reverifiable_witnesses_on_identical_agents():
    report = verify_no_efx(_identical_profile(), witness_limit=5)
    assert not report.passed
    assert len(report.witnesses) == 5
    _, profile = load_template(identical_agents_doc())
    ranks = keyed(profile.rank_tables)
    for witness in report.witnesses:
        assert first_witness(ranks, triples_of(witness.allocation)) is None


def test_alpha_scan_examples():
    sub = builtin("subadditive")
    assert verify_no_alpha_efx(sub, ApproxFactor.parse("9/10")).passed
    half = verify_no_alpha_efx(sub, ApproxFactor.parse("1/2"), witness_limit=3)
    assert not half.passed
    assert dict(half.breakdown)["alpha_efx_allocations"] == 5796
    at_base = verify_no_alpha_efx(sub, ApproxFactor.parse("lambda^1"))
    assert not at_base.passed
    assert dict(at_base.breakdown)["alpha_efx_allocations"] == GOLDEN_D_STAR_ARGMIN_COUNT


def test_alpha_at_base_matches_deficit_oracle():
    # an allocation satisfies the base-factor condition exactly when it
    # has no empty bundle and its worst rank deficit is at most one
    gaps = deficits(keyed(builtin_profile().rank_tables))
    expected = sum(1 for (bundles, _), gap in zip(universe(), gaps) if all(bundles) and gap <= 1)
    report = verify_no_alpha_efx(builtin("subadditive"), ApproxFactor.parse("lambda^1"))
    assert dict(report.breakdown)["alpha_efx_allocations"] == expected == 600


def test_alpha_witness_reverifies():
    sub = builtin("subadditive")
    alpha = ApproxFactor.parse("1/2")
    report = verify_no_alpha_efx(sub, alpha, witness_limit=2)
    values = keyed(sub.subadditive.value)
    for witness in report.witnesses:
        pairs = value_pairs(values, triples_of(witness.allocation))
        assert all(compare_scaled(own, alpha, other) for own, other in pairs)


def test_alpha_requires_subadditive_profile():
    with pytest.raises(ValueError):
        verify_no_alpha_efx(builtin("ordinal"), ApproxFactor.parse("9/10"))


def test_alpha_refuses_a_zero_value_on_a_nonempty_bundle():
    # The scaled scan drops every allocation with an empty bundle because
    # each nonempty bundle is worth more than nothing; a payload without
    # that premise, which the normalization property also rejects, is
    # refused rather than scanned.
    sub = builtin("subadditive")
    tables = sub.subadditive.exponent_tables
    zeroed = tables[1][:9] + (None,) + tables[1][10:]
    doctored = sub.replace(subadditive=sub.subadditive.replace(exponent_tables=(tables[0], zeroed, tables[2])))
    assert [r.passed for r in property_reports(doctored) if r.claim == "normalized(level_value[1])"] == [False]
    for factor in ("1", "1/2", "1/10"):
        with pytest.raises(ValueError, match="nonempty bundle"):
            verify_no_alpha_efx(doctored, ApproxFactor.parse(factor))


def test_alpha_factor_range_is_enforced_upstream():
    for bad in ("0", "-1/2", "7/5"):
        with pytest.raises(ValueError):
            ApproxFactor.parse(bad)


def test_alpha_monotone_on_grid():
    sub = builtin("subadditive")
    grid = ["1/2", "0.85", "0.89", "0.9", "0.95", "1"]
    verdicts = [verify_no_alpha_efx(sub, ApproxFactor.parse(spec)).passed for spec in grid]
    # once the scan passes at some factor it passes at every larger one
    first_pass = verdicts.index(True)
    assert all(verdicts[first_pass:])
    assert not any(verdicts[:first_pass])


# --- deficits -----------------------------------------------------------------


def _deficit_of(allocation, profile) -> int:
    """The rank deficit of an allocation given as bitmasks, from the
    set-based oracle."""
    return deficit(keyed(profile.rank_tables), triples_of(tuple(map(unmask, allocation))))


def test_deficit_profile_matches_golden_data():
    deficit = compute_deficit_profile(builtin("ordinal"))
    assert deficit.d_star == GOLDEN_D_STAR == 1
    assert deficit.argmin_count == GOLDEN_D_STAR_ARGMIN_COUNT
    assert deficit.argmin_counters[0] == GOLDEN_D_STAR_ARGMIN_COUNTER
    assert deficit.min_deficit_all_nonempty == GOLDEN_MIN_DEFICIT_ALL_NONEMPTY
    assert deficit.alpha_star_exact() == "2^(-1/6)"
    assert deficit.alpha_star_decimal() == "0.8908987181"


def test_deficit_histogram_has_no_zero_and_counts_everything():
    deficit = compute_deficit_profile(builtin("ordinal"))
    histogram = dict(deficit.histogram)
    assert 0 not in histogram
    assert sum(histogram.values()) == N_ALLOCATIONS
    assert len(deficit.deficits) == N_ALLOCATIONS
    assert min(deficit.deficits) == deficit.d_star


def test_deficit_argmin_reverifies():
    deficit = compute_deficit_profile(builtin("ordinal"))
    profile = builtin_profile()
    for allocation in deficit.argmin_allocations():
        assert _deficit_of(allocation, profile) == deficit.d_star


def test_deficit_vector_spot_checks():
    deficit = compute_deficit_profile(builtin("ordinal"))
    profile = builtin_profile()
    # counter 0 gives every good to agent 0
    assert allocation_from_counter(0) == (FULL_BUNDLE, 0, 0)
    assert deficit.deficits[0] == 7
    expected = deficits(keyed(profile.rank_tables))
    for counter in range(0, N_ALLOCATIONS, 487):
        assert deficit.deficits[counter] == expected[counter]


def test_deficit_of_degenerate_allocation_is_seven():
    assert _deficit_of((FULL_BUNDLE, 0, 0), builtin_profile()) == 7


def test_min_deficit_all_nonempty_skips_allocations_with_an_empty_bundle():
    # On the built-ins both minima are 1.  Agent 0 ranking the empty bundle
    # above everything makes an empty first bundle cost that agent
    # nothing, and the other two agents then have an EFX split of all 8
    # goods, so d* drops to 0; no allocation without an empty bundle gains.
    base = builtin_profile()
    skewed = base.replace(rank_tables=((100,) + base.rank_tables[0][1:],) + base.rank_tables[1:])
    deficit = compute_deficit_profile(Profile(kind="ordinal", ordinal=skewed))
    gaps = deficits(keyed(skewed.rank_tables))
    nonempty = [gap for (bundles, _), gap in zip(universe(), gaps) if all(bundles)]
    assert deficit.d_star == 0
    assert deficit.min_deficit_all_nonempty == min(nonempty) == 1


def test_no_efx_pass_iff_d_star_positive():
    report = verify_no_efx(builtin("ordinal"))
    deficit = compute_deficit_profile(builtin("ordinal"))
    assert report.passed == (deficit.d_star >= 1)


# --- property checkers ---------------------------------------------------------


def test_property_suites_all_pass():
    for kind in ("ordinal", "subadditive", "coverage"):
        for report in property_reports(builtin(kind)):
            assert report.passed, report.claim


def test_level_keys_keep_zero_below_an_exponent_past_top_rank():
    # Agent 0's exponent 6 raised to 9: still a positive value, but past
    # top_rank, so a bottom key read off top_rank would rank zero above it.
    base = builtin("subadditive")
    tables = base.subadditive.exponent_tables
    raised = tuple(9 if e == 6 else e for e in tables[0])
    assert 6 in tables[0] and 9 > base.ordinal.top_rank
    payload = base.replace(subadditive=base.subadditive.replace(exponent_tables=(raised,) + tables[1:]))
    keys = profile_value_keys(payload)[0]
    values = [payload.subadditive.value(0, bundle) for bundle in ALL_BUNDLES]
    for s in ALL_BUNDLES:
        for t in ALL_BUNDLES:
            assert (keys[s] < keys[t]) == (values[s] < values[t]), (s, t)
    reports = {report.claim: report for report in property_reports(payload)}
    assert reports["monotone(level_value[0])"].passed


def test_monotone_adversarial_double_fails():
    table = tuple(b.bit_count() % 3 for b in ALL_BUNDLES)
    report = check_monotone(table, "monotone(doctored)")
    assert not report.passed
    witness = report.witnesses[0]
    extended = bundle_of(witness.bundle_s) | (1 << witness.good_g)
    assert table[extended] < table[bundle_of(witness.bundle_s)]


def test_subadditive_adversarial_double_fails():
    # doubled exponents fall fast enough that two size-4 halves lose to
    # the full bundle
    table = tuple(None if b == 0 else 2 * (8 - b.bit_count()) for b in ALL_BUNDLES)
    report = check_subadditive(table, "subadditive(doctored)")
    assert not report.passed
    witness = report.witnesses[0]
    s, t = bundle_of(witness.bundle_s), bundle_of(witness.bundle_t)
    values = [LevelValue.power(table[s]), LevelValue.power(table[t])]
    assert level_sum_compare(values, LevelValue.power(table[s | t])) < 0


def test_submodular_adversarial_double_fails():
    table = tuple(b.bit_count() ** 2 for b in ALL_BUNDLES)
    report = check_submodular(table, "submodular(doctored)")
    assert not report.passed
    witness = report.witnesses[0]
    s, t, g = bundle_of(witness.bundle_s), bundle_of(witness.bundle_t), witness.good_g
    assert table[s | (1 << g)] - table[s] < table[t | (1 << g)] - table[t]


def test_submodular_counts_nested_pairs():
    report = check_submodular(builtin("coverage").coverage.value_tables[0], "submodular(coverage[0])")
    assert report.checked == 8 * 3**7


def test_strict_consistency_constant_function_fails():
    ranks = builtin_profile().rank_tables[0]
    constant = tuple(1 for _ in ALL_BUNDLES)
    report = check_strict_consistency(ranks, constant, "strict_consistency(doctored)")
    assert not report.passed
    assert report.witnesses


def test_support_collapse_pass_and_class_count():
    profile = builtin_profile()
    report = check_support_collapse(
        profile.rank_tables[0], profile.support_labels, "support_collapse(rank[0])"
    )
    assert report.passed
    assert dict(report.breakdown)["support_classes"] == 32


def test_support_collapse_adversarial_double_fails():
    profile = builtin_profile()
    table = tuple(b.bit_count() for b in ALL_BUNDLES)  # depends on multiplicity
    report = check_support_collapse(table, profile.support_labels, "support_collapse(doctored)")
    assert not report.passed


# --- lemma checkers -------------------------------------------------------------


def test_first_pair_restriction_passes_and_xy_absent():
    report = verify_lemma_first_pair(builtin("ordinal"))
    assert report.passed
    assert report.universe == 1400  # (2,2,4), (2,4,2) and (2,3,3) classes
    labels = {
        key.removeprefix("feasible_first_pair[").removesuffix("]")
        for key in dict(report.breakdown)
    }
    assert labels <= {"Ax", "Ay", "BC", "By", "Cy"}
    assert "xy" not in labels


def test_no_feasible_ax_pair_with_sizes_2_2_4():
    # in the (2,2,4) class the first pair can never be of type Ax
    profile = builtin_profile()
    count = 0
    for (bundles, _), feasible0 in zip(universe(), agent_feasible(keyed(profile.rank_tables), 0)):
        if tuple(map(len, bundles)) != (2, 2, 4):
            continue
        if profile.support_labels[mask(bundles[0])] != "Ax":
            continue
        if feasible0:
            count += 1
    assert count == 0


def test_size_pattern_propositions():
    report = verify_size_pattern_props(builtin("ordinal"))
    assert report.passed
    breakdown = dict(report.breakdown)
    assert breakdown["universe[small_first]"] == 1280
    assert breakdown["universe[(2,2,4)]"] == 420
    assert breakdown["universe[(2,3,3)]"] == 560
    assert breakdown["efx[small_first]"] == 0
    assert breakdown["efx[(2,2,4)]"] == 0
    assert breakdown["efx[(2,3,3)]"] == 0
    assert breakdown["size_triples_covered"] == 1


def test_cyclic_symmetry_builtins_and_template():
    for kind in ("ordinal", "subadditive", "coverage"):
        report = verify_cyclic_symmetry(builtin(kind))
        assert report.passed
        assert dict(report.breakdown)["efx_allocations"] == 0
    report = verify_cyclic_symmetry(_identical_profile())
    assert report.passed
    assert dict(report.breakdown)["efx_allocations"] == 5796


def test_identical_template_efx_set_closed_under_rotation():
    _, profile = load_template(identical_agents_doc())
    efx_set = set(efx_counters(keyed(profile.rank_tables)))
    assert efx_set
    for counter in efx_set:
        assert rotated_counter(universe()[counter][0], profile.permutation) in efx_set


def test_transfer_passes_for_both_realizations():
    ordinal = builtin("ordinal")
    for kind in ("subadditive", "coverage"):
        report = verify_transfer(ordinal, builtin(kind))
        assert report.passed
        assert dict(report.breakdown)["ordinal_witness_triples"] == report.checked > 0


def test_transfer_empty_bundle_case():
    # ordinal witness against an empty bundle moves to values 0 vs positive
    sub = builtin("subadditive").subadditive
    allocation = (FULL_BUNDLE, 0, 0)
    own = sub.value(1, allocation[1])
    other = sub.value(1, allocation[0] ^ 1)
    assert own == LevelValue.zero()
    assert other > own

    # Valued 0, agent 0's pair {0, 7} (rank 6) no longer beats any
    # lower-ranked own bundle, the empty one included; the singleton {0}
    # (rank 1) only ties with the empty bundle, the one lower rank.
    base = builtin("coverage")
    for lowered, rank in ((bundle_of((0, 7)), 6), (bundle_of((0,)), 1)):
        assert base.ordinal.rank_tables[0][lowered] == rank
        table = tuple(0 if bundle == lowered else v for bundle, v in enumerate(base.coverage.value_tables[0]))
        doctored = base.replace(coverage=base.coverage.replace(value_tables=(table,) + base.coverage.value_tables[1:]))
        values = keyed(doctored.coverage.value)
        triples, violations = transfer(keyed(doctored.ordinal.rank_tables), values)
        assert any(not universe()[c][0][i] for c, i, _, _ in violations)
        report = verify_transfer(builtin("ordinal"), doctored, witness_limit=10)
        assert not report.passed
        assert report.checked == dict(report.breakdown)["ordinal_witness_triples"] == triples
        found = [(counter_of(w.allocation), w.agent_i, w.agent_j, w.good_g) for w in report.witnesses]
        assert found == violations[:10]
        assert [(w.lhs, w.rhs) for w in report.witnesses] == [
            (values[i][universe()[c][0][i]], 0) for c, i, _, _ in violations[:10]
        ]
        bare = verify_transfer(builtin("ordinal"), doctored, witness_limit=0)
        assert not bare.passed and bare.witnesses == ()


def test_transfer_rejects_foreign_ordinal_profile():
    foreign = _identical_profile()
    with pytest.raises(ValueError):
        verify_transfer(foreign, builtin("subadditive"))


def test_cardinal_efx_subset_of_ordinal_efx_on_template():
    _, profile = load_template(identical_agents_doc())
    ordinal = Profile(kind="ordinal", ordinal=profile)
    cardinal = Profile(kind="subadditive", ordinal=profile, subadditive=build_subadditive(profile))
    ordinal_efx = efx_counters(keyed(profile_value_keys(ordinal)))
    cardinal_efx = efx_counters(keyed(profile_value_keys(cardinal)))
    assert set(cardinal_efx) <= set(ordinal_efx)


def test_lemma_reports_all_pass():
    for report in lemma_reports():
        assert report.passed, report.claim


# --- report plumbing -------------------------------------------------------------


def test_report_json_roundtrip():
    report = verify_no_efx(_identical_profile(), witness_limit=3)
    parsed = VerdictReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert parsed == report


def test_witness_limit_respected():
    report = verify_no_efx(_identical_profile(), witness_limit=0)
    assert not report.passed
    assert report.witnesses == ()
    assert dict(report.breakdown)["efx_allocations"] == 5796


def test_negative_witness_limit_gives_no_witnesses_in_every_claim():
    template_doc = random_template_doc(0)
    _, ordinal = load_template(template_doc)
    template = Profile(kind="ordinal", ordinal=ordinal)
    relabeled = json.loads(template_doc)
    relabeled["permutation"] = [2, 0, 1, 5, 3, 4, 6, 7]
    _, other = load_template(json.dumps(relabeled))
    # The template's ranks checked against another relabeling: its EFX
    # set is not closed under that rotation.
    mismatched = Profile(kind="ordinal", ordinal=ordinal.replace(bundle_images=other.bundle_images))
    half = ApproxFactor.parse("1/2")
    doctored_monotone = tuple(b.bit_count() % 3 for b in ALL_BUNDLES)
    claims = {
        "no_efx": lambda limit: verify_no_efx(template, limit),
        "no_alpha_efx": lambda limit: verify_no_alpha_efx(builtin("subadditive"), half, limit),
        "first_pair": lambda limit: verify_lemma_first_pair(template, limit),
        "size_patterns": lambda limit: verify_size_pattern_props(template, limit),
        "cyclic": lambda limit: verify_cyclic_symmetry(mismatched, limit),
        "monotone": lambda limit: check_monotone(doctored_monotone, "doctored", witness_limit=limit),
    }
    for name, claim in claims.items():
        assert claim(1).witnesses, name  # the claim has witnesses to withhold
        assert claim(-1) == claim(0), name
    assert compute_deficit_profile(template, 1).argmin_counters
    assert compute_deficit_profile(template, -1) == compute_deficit_profile(template, 0)


def test_zero_witness_limit_still_fails_violating_inputs():
    # a verdict must never depend on how many witnesses were kept
    doctored_monotone = tuple(b.bit_count() % 3 for b in ALL_BUNDLES)
    assert not check_monotone(doctored_monotone, "doctored", witness_limit=0).passed
    doctored_sub = tuple(None if b == 0 else 2 * (8 - b.bit_count()) for b in ALL_BUNDLES)
    assert not check_subadditive(doctored_sub, "doctored", witness_limit=0).passed
    doctored_submod = tuple(b.bit_count() ** 2 for b in ALL_BUNDLES)
    assert not check_submodular(doctored_submod, "doctored", witness_limit=0).passed
    ranks = builtin_profile().rank_tables[0]
    constant = tuple(1 for _ in ALL_BUNDLES)
    assert not check_strict_consistency(ranks, constant, "doctored", witness_limit=0).passed
    report = verify_cyclic_symmetry(_identical_profile(), witness_limit=0)
    assert report.passed  # rotation symmetry genuinely holds here
    assert report.witnesses == ()


def test_every_witness_in_a_battery_reverifies():
    # Re-evaluating any reported witness standalone must reproduce its
    # violation, across claim kinds.
    identical = _identical_profile()
    sub = builtin("subadditive")
    half = ApproxFactor.parse("1/2")
    doctored_monotone = tuple(b.bit_count() % 3 for b in ALL_BUNDLES)
    doctored_sub = tuple(None if b == 0 else 2 * (8 - b.bit_count()) for b in ALL_BUNDLES)
    doctored_submod = tuple(b.bit_count() ** 2 for b in ALL_BUNDLES)

    def reverify_efx(report, profile):
        keys = keyed(profile_value_keys(profile))
        for witness in report.witnesses:
            assert first_witness(keys, triples_of(witness.allocation)) is None

    def reverify_alpha(report, profile, alpha):
        values = keyed(profile.subadditive.value)
        for witness in report.witnesses:
            pairs = value_pairs(values, triples_of(witness.allocation))
            assert all(compare_scaled(own, alpha, other) for own, other in pairs)

    report = verify_no_efx(identical, witness_limit=8)
    reverify_efx(report, identical)

    report = verify_no_alpha_efx(sub, half, witness_limit=8)
    reverify_alpha(report, sub, half)

    report = check_monotone(doctored_monotone, "doctored", witness_limit=8)
    for witness in report.witnesses:
        s = bundle_of(witness.bundle_s)
        assert doctored_monotone[s | (1 << witness.good_g)] < doctored_monotone[s]

    report = check_subadditive(doctored_sub, "doctored", witness_limit=8)
    for witness in report.witnesses:
        s, t = bundle_of(witness.bundle_s), bundle_of(witness.bundle_t)
        values = [LevelValue.power(doctored_sub[s]), LevelValue.power(doctored_sub[t])]
        assert level_sum_compare(values, LevelValue.power(doctored_sub[s | t])) < 0

    report = check_submodular(doctored_submod, "doctored", witness_limit=8)
    for witness in report.witnesses:
        s, t, g = bundle_of(witness.bundle_s), bundle_of(witness.bundle_t), witness.good_g
        bit = 1 << g
        assert doctored_submod[s | bit] - doctored_submod[s] < doctored_submod[t | bit] - doctored_submod[t]

    constant = tuple(1 for _ in ALL_BUNDLES)
    ranks = builtin_profile().rank_tables[0]
    report = check_strict_consistency(ranks, constant, "doctored", witness_limit=8)
    for witness in report.witnesses:
        s, t = bundle_of(witness.bundle_s), bundle_of(witness.bundle_t)
        assert ranks[s] > ranks[t] and constant[s] <= constant[t]


def test_counter_order_of_witnesses():
    report = verify_no_efx(_identical_profile(), witness_limit=4)
    counters = [counter_of(witness.allocation) for witness in report.witnesses]
    assert counters == sorted(counters)
    # the witnesses are the first EFX allocations in counter order
    _, profile = load_template(identical_agents_doc())
    assert counters == efx_counters(keyed(profile.rank_tables))[:4]
