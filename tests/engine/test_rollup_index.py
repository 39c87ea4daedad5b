"""Equivalence and invalidation tests for the rollup-index layer.

The property tests compare every indexed query against the naive
traversal it replaces — `facts_characterized_by` (untimed and at a
chronon) against the relation's descendant walk, and indexed aggregate
formation against ``aggregate(use_index=False)`` — over random MOs from
:mod:`tests.strategies`.  The unit tests pin the versioned-invalidation
contract: mutations dirty exactly the touched dimension, copies of
relations carry independent version counters, and rebuilt tables always
reflect the current state.
"""

from __future__ import annotations

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import SetCount, aggregate
from repro.core.helpers import make_result_spec, make_simple_dimension
from repro.core.mo import MultidimensionalObject
from repro.core.schema import FactSchema
from repro.core.values import Fact
from tests.strategies import chronons, small_mos

_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _all_values(mo, name):
    """Every value worth querying: all category members, ⊤, and every
    value the relation mentions (whether or not the order knows it)."""
    dimension = mo.dimension(name)
    values = {v for category in dimension.categories() for v in category}
    values.add(dimension.top_value)
    values |= mo.relation(name).values()
    return values


# -- characterization equivalence -------------------------------------------


@_settings
@given(small_mos())
def test_facts_characterized_by_matches_naive(mo):
    index = mo.rollup_index()
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        relation = mo.relation(name)
        for value in _all_values(mo, name):
            indexed = index.facts_characterized_by(name, value)
            naive = relation.facts_characterized_by(value, dimension)
            assert indexed == naive


@_settings
@given(small_mos(temporal=True), chronons)
def test_facts_characterized_by_matches_naive_at_chronon(mo, t):
    index = mo.rollup_index()
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        relation = mo.relation(name)
        for value in _all_values(mo, name):
            indexed = index.facts_characterized_by(name, value, at=t)
            naive = relation.facts_characterized_by(value, dimension, at=t)
            assert indexed == naive


@_settings
@given(small_mos())
def test_equivalence_survives_mutation(mo):
    """Queries after a relate() must reflect the new pair — the lazy
    invalidation may never serve a stale closure."""
    index = mo.rollup_index()
    for name in mo.dimension_names:
        for value in _all_values(mo, name):
            index.facts_characterized_by(name, value)
    if not mo.facts:
        return
    fact = next(iter(mo.facts))
    for name in mo.dimension_names:
        dimension = mo.dimension(name)
        target = dimension.top_value
        for category in dimension.categories():
            for value in category:
                target = value
                break
        mo.relate(fact, name, target)
        indexed = index.facts_characterized_by(name, target)
        naive = mo.relation(name).facts_characterized_by(target, dimension)
        assert fact in indexed
        assert indexed == naive


# -- aggregate equivalence --------------------------------------------------


def _canonical(agg, names, result_name):
    """An order- and identity-insensitive view of an α result: one row
    per set-fact with its grouping values, result values, and members."""
    rows = []
    for fact in agg.facts:
        rows.append((
            tuple(frozenset(agg.relation(n).values_of(fact)) for n in names),
            frozenset(agg.relation(result_name).values_of(fact)),
            frozenset(getattr(fact, "members", ())),
        ))
    rows.sort(key=repr)
    return rows


def _draw_grouping(mo, data):
    grouping = {}
    for name in mo.dimension_names:
        names = [c.name for c in mo.dimension(name).dtype.category_types()]
        choice = data.draw(st.sampled_from([None] + names), label=name)
        if choice is not None:
            grouping[name] = choice
    return grouping


def _both_aggregates(mo, grouping, at=None):
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for use_index in (True, False):
            results.append(aggregate(
                mo, SetCount(), grouping, make_result_spec(name="Res"),
                strict_types=False, at=at, use_index=use_index))
    return results


@_settings
@given(small_mos(), st.data())
def test_aggregate_indexed_matches_naive(mo, data):
    grouping = _draw_grouping(mo, data)
    indexed, naive = _both_aggregates(mo, grouping)
    names = sorted(mo.dimension_names)
    assert (_canonical(indexed, names, "Res")
            == _canonical(naive, names, "Res"))


@_settings
@given(small_mos(temporal=True), chronons, st.data())
def test_aggregate_indexed_matches_naive_at_chronon(mo, t, data):
    grouping = _draw_grouping(mo, data)
    indexed, naive = _both_aggregates(mo, grouping, at=t)
    names = sorted(mo.dimension_names)
    assert (_canonical(indexed, names, "Res")
            == _canonical(naive, names, "Res"))


@_settings
@given(small_mos(probabilistic=True), st.data())
def test_aggregate_indexed_matches_naive_probabilistic(mo, data):
    grouping = _draw_grouping(mo, data)
    indexed, naive = _both_aggregates(mo, grouping)
    names = sorted(mo.dimension_names)
    assert (_canonical(indexed, names, "Res")
            == _canonical(naive, names, "Res"))


# -- versioned invalidation -------------------------------------------------


def _value_of(dimension, sid):
    for category in dimension.categories():
        for value in category:
            if value.sid == sid:
                return value
    raise AssertionError(f"no value {sid!r}")


def _tiny_mo():
    a = make_simple_dimension("A", [1, 2, 3])
    b = make_simple_dimension("B", ["x", "y"])
    schema = FactSchema("T", [a.dtype, b.dtype])
    mo = MultidimensionalObject(schema=schema,
                                dimensions={"A": a, "B": b})
    facts = [Fact(fid=i, ftype="T") for i in range(3)]
    for i, fact in enumerate(facts):
        mo.add_fact(fact)
        mo.relate(fact, "A", _value_of(a, (i % 3) + 1))
        mo.relate(fact, "B", _value_of(b, "x" if i % 2 == 0 else "y"))
    return mo, facts


class TestInvalidation:
    def test_repeated_queries_build_once_per_dimension(self):
        mo, _ = _tiny_mo()
        index = mo.rollup_index()
        assert mo.rollup_index() is index  # one shared instance per MO
        for _ in range(3):
            index.group_counts("A", "A")
            index.group_counts("B", "B")
        assert index.build_count == 2
        assert index.is_fresh("A") and index.is_fresh("B")

    def test_relate_dirties_only_the_touched_dimension(self):
        mo, facts = _tiny_mo()
        index = mo.rollup_index()
        index.group_counts("A", "A")
        index.group_counts("B", "B")
        value = _value_of(mo.dimension("A"), 2)
        before = index.facts_characterized_by("A", value)
        assert facts[0] not in before
        mo.relate(facts[0], "A", value)
        assert not index.is_fresh("A")
        assert index.is_fresh("B")
        after = index.facts_characterized_by("A", value)
        assert facts[0] in after
        # the single pair addition is applied as a delta: no dimension
        # pays a full closure rebuild
        assert index.build_count == 2
        assert index.delta_count == 1
        index.group_counts("B", "B")
        assert index.build_count == 2

    def test_relate_rebuilds_when_delta_disabled(self):
        mo, facts = _tiny_mo()
        index = mo.rollup_index()
        index.delta_enabled = False
        index.group_counts("A", "A")
        index.group_counts("B", "B")
        value = _value_of(mo.dimension("A"), 2)
        mo.relate(facts[0], "A", value)
        assert facts[0] in index.facts_characterized_by("A", value)
        assert index.build_count == 3  # only A rebuilt, the old way
        assert index.delta_count == 0

    def test_add_edge_dirties_the_dimension(self):
        mo, facts = _tiny_mo()
        dimension = mo.dimension("A")
        index = mo.rollup_index()
        one, two = _value_of(dimension, 1), _value_of(dimension, 2)
        assert facts[0] not in index.facts_characterized_by("A", two)
        dimension.add_edge(one, two)
        assert not index.is_fresh("A")
        # fact 0 sits on value 1, which now rolls up into value 2
        assert facts[0] in index.facts_characterized_by("A", two)

    def test_remove_fact_dirties_the_dimension(self):
        mo, facts = _tiny_mo()
        index = mo.rollup_index()
        value = _value_of(mo.dimension("A"), 1)
        assert facts[0] in index.facts_characterized_by("A", value)
        mo.relation("A").remove_fact(facts[0])
        assert facts[0] not in index.facts_characterized_by("A", value)

    def test_remove_unrelated_fact_keeps_the_index_fresh(self):
        mo, _ = _tiny_mo()
        index = mo.rollup_index()
        index.group_counts("A", "A")
        version = mo.relation("A").version
        mo.relation("A").remove_fact(Fact(fid=999, ftype="T"))
        assert mo.relation("A").version == version
        assert index.is_fresh("A")

    def test_explicit_invalidate_forces_a_rebuild(self):
        mo, _ = _tiny_mo()
        index = mo.rollup_index()
        before = index.group_counts("A", "A")
        builds = index.build_count
        index.invalidate("A")
        assert index.group_counts("A", "A") == before
        assert index.build_count == builds + 1

    def test_top_closure_is_the_whole_relation(self):
        mo, facts = _tiny_mo()
        index = mo.rollup_index()
        top = mo.dimension("A").top_value
        assert index.facts_characterized_by("A", top) == frozenset(facts)


class TestCopySemantics:
    """Satellite: union / restricted_to_facts / copy produce relations
    with independent version counters, so an index can never observe
    stale closures through a copy (or dodge invalidation because a copy
    was mutated instead of the original)."""

    def test_copy_versions_are_independent(self):
        mo, facts = _tiny_mo()
        relation = mo.relation("A")
        clone = relation.copy()
        assert clone is not relation
        version = relation.version
        clone.remove_fact(facts[0])
        assert relation.version == version  # original untouched

    def test_mutating_a_copy_never_affects_indexed_answers(self):
        mo, facts = _tiny_mo()
        index = mo.rollup_index()
        value = _value_of(mo.dimension("A"), 1)
        before = index.facts_characterized_by("A", value)
        for derived in (
            mo.relation("A").copy(),
            mo.relation("A").restricted_to_facts({facts[0]}),
            mo.relation("A").union(mo.relation("A").copy()),
        ):
            derived.remove_fact(facts[0])
            assert index.is_fresh("A")
            assert index.facts_characterized_by("A", value) == before

    def test_mo_copy_gets_its_own_index(self):
        mo, facts = _tiny_mo()
        original_index = mo.rollup_index()
        value = _value_of(mo.dimension("A"), 1)
        before = original_index.facts_characterized_by("A", value)
        clone = mo.copy()
        clone_index = clone.rollup_index()
        assert clone_index is not original_index
        clone.relation("A").remove_fact(facts[0])
        assert facts[0] not in clone_index.facts_characterized_by("A", value)
        assert original_index.is_fresh("A")
        assert original_index.facts_characterized_by("A", value) == before

    def test_derived_relation_content_is_correct_through_a_new_mo(self):
        """An MO assembled from restricted relations answers from its
        own (fresh) index, not the source MO's closures."""
        mo, facts = _tiny_mo()
        mo.rollup_index().group_counts("A", "A")  # warm the source index
        keep = {facts[0], facts[1]}
        restricted = MultidimensionalObject(
            schema=mo.schema,
            facts=keep,
            dimensions={n: mo.dimension(n) for n in mo.dimension_names},
            relations={n: mo.relation(n).restricted_to_facts(keep)
                       for n in mo.dimension_names},
        )
        top = restricted.dimension("A").top_value
        assert (restricted.rollup_index().facts_characterized_by("A", top)
                == frozenset(keep))


class TestVerdictCacheBounds:
    """The verdict caches (summarizability, strictness, coverage) hold
    one entry per distinct question: a mutation replaces the stale
    entry instead of adding a new version-keyed one beside it."""

    def test_mutate_and_query_rounds_keep_one_entry_per_grouping(self):
        mo, _ = _tiny_mo()
        index = mo.rollup_index()
        a = mo.dimension("A")
        groupings = [{"A": "A"}, {"A": "A", "B": "B"}]
        spec = make_result_spec()

        def query_round():
            for grouping in groupings:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    aggregate(mo, SetCount(), grouping, spec)
                index.summarizability(grouping, distributive=True)
            index.hierarchy_strict("A")
            index.covers("A", "A", a.dtype.top_name)

        query_round()
        strictness, coverage = len(index._strictness), len(index._coverage)
        for i in range(50):
            fact = Fact(fid=100 + i, ftype="T")
            mo.add_fact(fact)
            mo.relate(fact, "A", _value_of(a, (i % 3) + 1))
            query_round()
        assert len(index._verdicts) == len(groupings)
        assert len(index._strictness) == strictness
        assert len(index._coverage) == coverage == 1
