"""Tests for cube materialization and greedy view selection.

The load-bearing property: every cuboid ``materialize_all`` stores holds
the groups — and set-count cells — the α operator forms for that
cuboid's grouping, for distributive and non-distributive functions and
on MOs with non-summarizable groupings (many-to-many, non-strict, or
mixed-granularity hierarchies).
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra import SetCount, aggregate
from repro.algebra.functions import SQLFunction
from repro.core.helpers import make_result_spec
from repro.core.values import Fact
from repro.engine import CubeBuilder, greedy_view_selection

from tests.strategies import small_mos

_PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture()
def builder(strict_clinical):
    return CubeBuilder(strict_clinical.mo,
                       dimensions=["Diagnosis", "Residence"])


class TestCuboidLattice:
    def test_key_count_is_product_of_lattice_sizes(self, builder,
                                                   strict_clinical):
        mo = strict_clinical.mo
        expected = (
            len(mo.dimension("Diagnosis").dtype.category_types())
            * len(mo.dimension("Residence").dtype.category_types())
        )
        assert len(builder.cuboid_keys()) == expected

    def test_materialize_cuboid(self, builder):
        key = ("Diagnosis Group", "Region")
        cuboid = builder.materialize(key)
        assert cuboid.size > 0
        assert cuboid.grouping == {"Diagnosis": "Diagnosis Group",
                                   "Residence": "Region"}

    def test_materialize_cached(self, builder):
        key = ("Diagnosis Group", "Region")
        assert builder.materialize(key) is builder.materialize(key)

    def test_coarser_or_equal(self, builder):
        fine = ("Low-level Diagnosis", "Area")
        coarse = ("Diagnosis Group", "Region")
        assert builder.is_coarser_or_equal(fine, coarse)
        assert builder.is_coarser_or_equal(fine, fine)
        assert not builder.is_coarser_or_equal(coarse, fine)

    def test_summarizable_cuboid_answers_coarser(self, builder):
        fine = ("Diagnosis Family", "Area")
        answerable = builder.answerable_from(fine)
        assert ("Diagnosis Group", "Region") in answerable
        assert ("Low-level Diagnosis", "Area") not in answerable

    def test_sizes_shrink_upward(self, builder):
        fine = builder.materialize(("Low-level Diagnosis", "Area"))
        coarse = builder.materialize(("Diagnosis Group", "Region"))
        assert coarse.size <= fine.size


class TestNonSummarizableCube:
    def test_non_strict_cuboid_only_answers_itself(self, small_clinical):
        builder = CubeBuilder(small_clinical.mo, dimensions=["Diagnosis"])
        fine = ("Diagnosis Family",)
        assert builder.answerable_from(fine) == {fine}


class TestGreedySelection:
    def test_respects_budget(self, builder):
        selected = greedy_view_selection(builder, budget=3)
        assert len(selected) <= 3

    def test_selection_has_positive_benefit(self, builder):
        selected = greedy_view_selection(builder, budget=2)
        assert selected, "greedy should find at least one useful view"
        base = builder.materialize(("Low-level Diagnosis", "Area"))
        for cuboid in selected:
            assert cuboid.size < base.size

    def test_zero_budget(self, builder):
        assert greedy_view_selection(builder, budget=0) == []


class NonDistributiveCount(SetCount):
    """Set-count with distributivity switched off: same answers as
    :class:`SetCount` on every group, but its cells may never be
    combined from finer ones."""

    distributive = False
    required_function = SQLFunction.COUNT


def _row_key(row):
    # equal frozensets built in different insertion orders can repr
    # their elements in different orders, so sorting rows by plain repr
    # is not canonical — sort element reprs inside each set first
    combos, count = row
    return ([sorted(map(repr, values)) for values in combos], count)


def _store_rows(stored):
    """Canonical rows of a stored cuboid, merged the way α merges:
    groups with identical member sets collapse into one set-fact whose
    relation carries every combination's values."""
    merged = {}
    for combo, facts in stored.groups.items():
        merged.setdefault(frozenset(facts), []).append(combo)
    width = len(next(iter(stored.groups), ()))
    rows = [
        (tuple(frozenset(c[i] for c in combos) for i in range(width)),
         len(members))
        for members, combos in merged.items()
    ]
    return sorted(rows, key=_row_key)


def _alpha_rows(grouping_names, agg):
    rows = [
        (tuple(frozenset(agg.relation(n).values_of(fact))
               for n in grouping_names),
         len(fact.members))
        for fact in agg.facts
    ]
    return sorted(rows, key=_row_key)


def _assert_lattice_matches_alpha(mo, function):
    """Every stored cuboid's groups and cells match the groups the α
    operator forms for that cuboid's grouping (naive path, no index)."""
    builder = CubeBuilder(mo, function=function)
    builder.materialize_all()
    spec = make_result_spec()
    for grouping, _name, stored in builder.store.entries():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            agg = aggregate(mo, function, dict(grouping), spec,
                            strict_types=False, use_index=False)
        names = sorted(grouping)
        assert _store_rows(stored) == _alpha_rows(names, agg), (
            f"α disagrees with the materialized cuboid at {grouping}"
        )
        assert list(stored.results.values()) == [
            len(stored.groups[combo]) for combo in stored.results
        ]


@given(mo=small_mos())
@_PROPERTY_SETTINGS
def test_materialize_all_matches_per_cuboid_aggregate(mo):
    _assert_lattice_matches_alpha(mo, SetCount())


@given(mo=small_mos())
@_PROPERTY_SETTINGS
def test_materialize_all_matches_per_cuboid_aggregate_non_distributive(mo):
    _assert_lattice_matches_alpha(mo, NonDistributiveCount())


class TestCuboidCacheStaleness:
    """``CubeBuilder._cuboids`` caches sizes and verdicts; a mutation of
    the MO must drop them."""

    def test_cuboid_size_refreshes_after_relate(self, strict_clinical):
        generated = strict_clinical
        mo = generated.mo.copy()
        builder = CubeBuilder(mo, dimensions=("Diagnosis",))
        key = ("Diagnosis Family",)
        before = builder.cuboid(key).size
        # a brand-new fact under any value grows every cuboid of the
        # Diagnosis lattice by at most one group
        fact = Fact(fid=("stale-probe", 1),
                    ftype=generated.mo.schema.fact_type)
        mo.relate(fact, "Diagnosis", generated.icd.low_levels[0])
        after = builder.cuboid(key).size
        index_size = builder.size_of(key)
        assert after == index_size
        assert builder.cuboid(key) is builder.cuboid(key)  # re-cached
        assert before <= after

    def test_materialized_sizes_match_sizing_fast_path(self, small_clinical):
        mo = small_clinical.mo
        builder = CubeBuilder(mo, dimensions=("Diagnosis", "Residence"))
        for cuboid in builder.materialize_all():
            assert cuboid.size == builder.size_of(cuboid.key)
