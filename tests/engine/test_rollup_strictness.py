"""Tests for the rollup index's cached hierarchy-property answers and
the declaration-gated static fast path in summarizability checks."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.properties import (
    hierarchy_is_partitioning,
    hierarchy_is_strict,
    mapping_is_strict,
)
from repro.obs import metrics
from tests.strategies import small_mos


class TestIndexedEqualsNaive:
    def test_case_study_dimensions(self, snapshot_mo):
        index = snapshot_mo.rollup_index()
        for name in snapshot_mo.dimension_names:
            dimension = snapshot_mo.dimension(name)
            assert index.hierarchy_strict(name) == \
                hierarchy_is_strict(dimension), name
            assert index.hierarchy_partitioning(name) == \
                hierarchy_is_partitioning(dimension), name

    def test_mapping_level(self, snapshot_mo):
        index = snapshot_mo.rollup_index()
        diag = snapshot_mo.dimension("Diagnosis")
        for lower, upper in [("Low-level Diagnosis", "Diagnosis Family"),
                             ("Diagnosis Family", "Diagnosis Group")]:
            assert index.mapping_strict("Diagnosis", lower, upper) == \
                mapping_is_strict(diag, lower, upper)

    @given(mo=small_mos())
    @settings(max_examples=40, deadline=None)
    def test_random_mos(self, mo):
        index = mo.rollup_index()
        for name in mo.dimension_names:
            dimension = mo.dimension(name)
            assert index.hierarchy_strict(name) == \
                hierarchy_is_strict(dimension)
            assert index.hierarchy_partitioning(name) == \
                hierarchy_is_partitioning(dimension)

    def test_properties_route_through_index(self, snapshot_mo):
        """The paper-level property functions answer from the index
        when handed one, without changing the answer."""
        index = snapshot_mo.rollup_index()
        for name in snapshot_mo.dimension_names:
            dimension = snapshot_mo.dimension(name)
            assert hierarchy_is_strict(dimension, index=index) == \
                hierarchy_is_strict(dimension)
            assert hierarchy_is_partitioning(dimension, index=index) == \
                hierarchy_is_partitioning(dimension)

    def test_cache_hit_counter(self, snapshot_mo):
        index = snapshot_mo.rollup_index()
        index.hierarchy_strict("Residence")
        before = metrics.counter("rollup_index.strictness.hit").value
        index.hierarchy_strict("Residence")
        after = metrics.counter("rollup_index.strictness.hit").value
        assert after == before + 1


class TestStaticFastPath:
    def test_fast_path_taken_for_declared_dimensions(self):
        """Retail's linear hierarchies are declared strict+partitioning
        and their extensions agree, so the verdict is vouched for
        without the full extensional check."""
        from repro.workloads import generate_retail

        mo = generate_retail().mo  # the index holds its MO weakly
        index = mo.rollup_index()
        counter = metrics.counter(
            "rollup_index.summarizability.static_fast_path")
        before = counter.value
        verdict = index.summarizability({"Product": "Department"},
                                        distributive=True)
        assert verdict.summarizable
        assert counter.value == before + 1

    def test_fast_path_declined_for_parallel_paths(self, snapshot_mo):
        """DOB is declared strict+partitioning, but Day's predecessors
        include Week, which is not below Year — the subdimension the
        full check runs on has different Pred sets, so the declaration
        cannot be carried over and the fast path must decline (the
        verdict still comes out right via the full check)."""
        index = snapshot_mo.rollup_index()
        assert not index._static_safe({"DOB": "Year"})
        verdict = index.summarizability({"DOB": "Year"},
                                        distributive=True)
        assert verdict.summarizable

    def test_fast_path_skipped_for_undeclared(self):
        from repro.workloads import ClinicalConfig, generate_clinical

        mo = generate_clinical(ClinicalConfig(n_patients=20,
                                              seed=7)).mo
        index = mo.rollup_index()
        counter = metrics.counter(
            "rollup_index.summarizability.static_fast_path")
        before = counter.value
        index.summarizability({"Diagnosis": "Diagnosis Group"},
                              distributive=True)
        assert counter.value == before

    def test_fast_path_skipped_when_paths_not_strict(self, snapshot_mo):
        """Residence's hierarchy is declared (and is) strict, but the
        untimed fact paths are not — the fast path must not vouch."""
        index = snapshot_mo.rollup_index()
        verdict = index.summarizability({"Residence": "County"},
                                        distributive=True)
        assert not verdict.paths_strict
        assert not verdict.summarizable
