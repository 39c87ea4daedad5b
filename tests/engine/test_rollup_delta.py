"""Incremental (delta) maintenance of the rollup index.

The pinned behaviour: a single fact insertion does not trigger a full
``_build_dimension_index`` rebuild — it applies as a patch to the
existing closure and characterization maps, counted by
``rollup_index.delta_applied``.  The property test is the safety
net: across random sequences of delta-able mutations (new facts,
fact-value relates, single-edge hierarchy additions), the maintained
index must answer exactly like an index built from scratch, and
non-delta-able mutations (removals) must fall back to a full rebuild.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.values import DimensionValue, Fact
from repro.engine.rollup_index import RollupIndex
from repro.obs import metrics

from tests.strategies import (apply_mutation_script, mutation_scripts,
                              small_mos)


def _assert_matches_fresh(index, mo):
    """Every dimension/category characterization of the maintained
    index equals a from-scratch build's."""
    fresh = RollupIndex(mo)
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        for ctype in dimension.dtype.category_types():
            maintained = index.characterization_map(name, ctype.name)
            rebuilt = fresh.characterization_map(name, ctype.name)
            assert maintained == rebuilt, (
                f"delta-maintained {name}/{ctype.name} diverged"
            )


def _warm(index, mo):
    for name in mo.dimension_names:
        index.characterization_map(name, mo.dimension(name).dtype.top_name)


class TestSingleMutations:
    def test_fact_insertion_applies_as_delta(self, small_clinical):
        """The acceptance criterion, verbatim: one insertion, zero
        rebuilds, ``rollup_index.delta_applied`` moves."""
        generated = small_clinical
        mo = generated.mo.copy()
        index = mo.rollup_index()
        index.group_counts("Diagnosis", "Diagnosis Group")
        builds = index.build_count
        applied = metrics.counter("rollup_index.delta_applied")
        before = applied.value
        fact = Fact(fid=("delta-probe", 1), ftype=mo.schema.fact_type)
        mo.relate(fact, "Diagnosis", generated.icd.low_levels[0])
        counts = index.group_counts("Diagnosis", "Diagnosis Group")
        assert index.build_count == builds, "insertion caused a rebuild"
        assert applied.value == before + 1
        assert sum(counts.values()) >= 1
        _assert_matches_fresh(index, mo)

    def test_single_edge_addition_applies_as_delta(self, small_clinical):
        generated = small_clinical
        mo = generated.mo.copy()
        index = mo.rollup_index()
        _warm(index, mo)
        builds = index.build_count
        deltas = index.delta_count
        dimension = mo.dimension("Diagnosis")
        value = DimensionValue(sid=("delta-probe", "low"))
        dimension.add_value("Low-level Diagnosis", value)
        dimension.add_edge(value, generated.icd.families[0])
        index.characterization_map("Diagnosis", "Diagnosis Family")
        assert index.build_count == builds, "edge addition caused a rebuild"
        assert index.delta_count == deltas + 1
        _assert_matches_fresh(index, mo)

    def test_removal_falls_back_to_full_rebuild(self, small_clinical):
        mo = small_clinical.mo.copy()
        index = mo.rollup_index()
        _warm(index, mo)
        builds = index.build_count
        deltas = index.delta_count
        victim = next(iter(mo.facts))
        mo.relation("Diagnosis").remove_fact(victim)
        index.characterization_map("Diagnosis", "Diagnosis Group")
        assert index.build_count == builds + 1, "removal must rebuild"
        assert index.delta_count == deltas
        _assert_matches_fresh(index, mo)

    def test_delta_disabled_always_rebuilds(self, small_clinical):
        generated = small_clinical
        mo = generated.mo.copy()
        index = mo.rollup_index()
        index.delta_enabled = False
        _warm(index, mo)
        builds = index.build_count
        mo.relate(Fact(fid=("delta-probe", 2), ftype=mo.schema.fact_type),
                  "Diagnosis", generated.icd.low_levels[0])
        index.group_counts("Diagnosis", "Diagnosis Group")
        assert index.build_count == builds + 1
        _assert_matches_fresh(index, mo)


@given(mo=small_mos(), script=mutation_scripts())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_maintained_index_matches_fresh_build(mo, script):
    """Property: after any sequence of delta-able mutations, the
    incrementally maintained index ≡ a freshly built index."""
    index = mo.rollup_index()
    _warm(index, mo)
    apply_mutation_script(mo, script)
    _assert_matches_fresh(index, mo)


@given(mo=small_mos(), script=mutation_scripts())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_interleaved_queries_stay_consistent(mo, script):
    """Same property with a query between every mutation, so each step
    individually applies as a delta (or rebuilds) instead of batching."""
    index = mo.rollup_index()
    _warm(index, mo)
    for step in script:
        apply_mutation_script(mo, [step])
        _warm(index, mo)
    _assert_matches_fresh(index, mo)
