"""Index-backed σ: dices answered from rollup-index closures.

``select`` answers a ``characterized_by`` leaf, or a (nested)
conjunction of them, from the rollup index; every other predicate takes
the per-fact scan.  Wrapping a predicate's test in a plain
:class:`Predicate` hides its structure and forces the scan, which makes
the scan the oracle here: both paths must return the same fact set and
the same annotated pairs in every relation, on snapshot, valid-time and
probabilistic MOs, before and after mutations.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.engine.query as query_module
from repro.algebra import characterized_by, conjunction, select
from repro.algebra.predicates import Predicate
from repro.algebra.selection import selection_path
from repro.casestudy.icd import IcdShape, build_icd_dimension
from repro.core.factdim import FactDimensionRelation
from repro.core.mo import MultidimensionalObject
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.engine.query import Query
from repro.obs import metrics
from repro.temporal.chronon import day
from repro.temporal.timeset import TimeSet

from tests.strategies import (apply_mutation_script, mutation_scripts,
                              small_mos)

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _opaque(predicate: Predicate) -> Predicate:
    """The same test without its structure: σ must scan."""
    return Predicate(predicate.dims, predicate.test)


def _snapshot(mo: MultidimensionalObject):
    """Everything σ's result is made of, in a comparable form."""
    return (
        mo.schema, mo.kind, mo.facts,
        {name: sorted(mo.relation(name).annotated_pairs(), key=repr)
         for name in mo.dimension_names},
    )


def _assert_paths_agree(mo, predicate):
    assert selection_path(predicate) == "index"
    assert selection_path(_opaque(predicate)) == "scan"
    indexed = select(mo, predicate)
    scanned = select(mo, _opaque(predicate))
    assert _snapshot(indexed) == _snapshot(scanned)


@st.composite
def _dices(draw, mo):
    """A random conjunction of ``characterized_by`` leaves over ``mo``:
    dimensions may repeat, values may be ⊤, any level, or outside the
    dimension, and operands may nest."""
    names = mo.dimension_names

    def leaf():
        name = draw(st.sampled_from(names))
        dimension = mo.dimension(name)
        inside = sorted(dimension.values(), key=repr)
        value = draw(st.one_of(
            st.sampled_from(inside),
            st.just(DimensionValue(sid=("outside", name)))))
        return characterized_by(name, value)

    def predicate(depth):
        if depth == 0 or draw(st.booleans()):
            return leaf()
        n = draw(st.integers(min_value=0, max_value=3))
        return conjunction(*(predicate(depth - 1) for _ in range(n)))

    return predicate(2)


@st.composite
def _mos_and_dices(draw, temporal=False, probabilistic=False):
    mo = draw(small_mos(temporal=temporal, probabilistic=probabilistic))
    if draw(st.booleans()):
        # a fact with no pair in any dimension
        mo.add_fact(Fact(fid="bare", ftype=mo.schema.fact_type))
    if draw(st.booleans()):
        # hand-built pairs: a value outside the dimension, and a fact
        # outside F that σ must never return
        name = mo.dimension_names[0]
        facts = sorted(mo.facts, key=repr)
        if facts:
            mo.relation(name).add(facts[0],
                                  DimensionValue(sid=("outside", name)))
        mo.relation(name).add(Fact(fid="stray", ftype=mo.schema.fact_type),
                              mo.dimension(name).top_value)
    return mo, draw(_dices(mo))


@given(case=_mos_and_dices())
@_SETTINGS
def test_index_matches_scan_snapshot(case):
    _assert_paths_agree(*case)


@given(case=_mos_and_dices(temporal=True))
@_SETTINGS
def test_index_matches_scan_valid_time(case):
    _assert_paths_agree(*case)


@given(case=_mos_and_dices(probabilistic=True))
@_SETTINGS
def test_index_matches_scan_probabilistic(case):
    _assert_paths_agree(*case)


@given(kind=st.sampled_from([{}, {"temporal": True},
                             {"probabilistic": True}]),
       script=mutation_scripts(), data=st.data())
@_SETTINGS
def test_index_matches_scan_after_mutations(kind, script, data):
    """The index answers the first dice, the MO mutates (new facts,
    relinks, hierarchy edges), and later dices must see the mutations:
    closures are rebuilt or delta-patched, never served stale."""
    mo, predicate = data.draw(_mos_and_dices(**kind))
    _assert_paths_agree(mo, predicate)
    apply_mutation_script(mo, script)
    _assert_paths_agree(mo, predicate)
    _assert_paths_agree(mo, data.draw(_dices(mo)))


def test_unconstrained_conjunction_keeps_every_fact(snapshot_mo):
    result = select(snapshot_mo, conjunction())
    assert selection_path(conjunction()) == "index"
    assert result.facts == snapshot_mo.facts


def test_other_predicates_scan():
    name = "Diagnosis"
    opaque = Predicate((name,), lambda values, ctx: True)
    assert selection_path(opaque) == "scan"
    mixed = conjunction(characterized_by(name, DimensionValue(sid=1)),
                        opaque)
    assert selection_path(mixed) == "scan"


def test_path_counters(snapshot_mo):
    value = next(iter(snapshot_mo.dimension("Diagnosis").values()))
    predicate = characterized_by("Diagnosis", value)
    index = metrics.counter("selection.path.index")
    scan = metrics.counter("selection.path.scan")
    before = (index.value, scan.value)
    select(snapshot_mo, predicate)
    assert (index.value, scan.value) == (before[0] + 1, before[1])
    select(snapshot_mo, _opaque(predicate))
    assert (index.value, scan.value) == (before[0] + 1, before[1] + 1)


# -- shared witness on the non-strict ICD shape --------------------------------


@pytest.fixture
def two_group_mo():
    """Groups G0 ⊇ F0 ⊇ {a, shared} and G1 ⊇ F1 ⊇ {b}, plus a non-strict
    link shared ≤ F1.  Patient 1 has diagnoses a and b (under both
    groups, but through different values), patient 2 has ``shared``
    (one value under both groups), patient 3 has only a."""
    icd = build_icd_dimension(random.Random(0), IcdShape(
        n_groups=2, families_per_group=(1, 1), lowlevels_per_family=(2, 2)))
    dimension = icd.dimension
    a, shared, b, _ = icd.low_levels
    dimension.add_edge(shared, icd.families[1])
    mo = MultidimensionalObject(
        FactSchema("Patient", [dimension.dtype]),
        dimensions={"Diagnosis": dimension})
    for fid, lows in ((1, (a, b)), (2, (shared,)), (3, (a,))):
        for low in lows:
            mo.relate(Fact(fid=fid, ftype="Patient"), "Diagnosis", low)
    return mo, icd.groups


def test_several_dices_on_one_dimension_share_a_witness(two_group_mo):
    mo, (g0, g1) = two_group_mo
    both = conjunction(characterized_by("Diagnosis", g0),
                       characterized_by("Diagnosis", g1))
    assert {f.fid for f in select(mo, both).facts} == {2}
    assert {f.fid for f in select(mo, _opaque(both)).facts} == {2}
    # chained σs re-quantify the witness per node, so patient 1 passes
    chained = select(select(mo, characterized_by("Diagnosis", g0)),
                     characterized_by("Diagnosis", g1))
    assert {f.fid for f in chained.facts} == {1, 2}
    # Query.dice builds the single conjunction
    rows = (Query(mo).dice("Diagnosis", g0).dice("Diagnosis", g1)
            .execute(cache=False))
    assert rows == [({}, 1)]


def test_explain_names_the_selection_path(two_group_mo):
    mo, (g0, _) = two_group_mo
    report = Query(mo).dice("Diagnosis", g0).explain(cache=False)
    dice = next(step for step in report.steps if step.name == "dice")
    assert dice.detail.endswith("σ path=index")


# -- restriction copies ------------------------------------------------------------


def test_restricted_relation_is_independent_of_its_source():
    source = FactDimensionRelation("D")
    f1, f2 = Fact(fid=1), Fact(fid=2)
    v, w = DimensionValue(sid="v"), DimensionValue(sid="w")
    early = TimeSet.interval(day(1990, 1, 1), day(1990, 12, 31))
    late = TimeSet.interval(day(1995, 1, 1), day(1995, 12, 31))
    source.add(f1, v, time=early, prob=0.5)
    source.add(f2, v)
    before = sorted(source.annotated_pairs(), key=repr)
    restricted = source.restricted_to_facts({f1})
    assert sorted(restricted.annotated_pairs(), key=repr) == [
        (f1, v, early, 0.5)]
    assert restricted.version == 0 and len(restricted.change_log) == 0
    restricted.add(f1, v, time=late, prob=0.5)  # merges the annotation
    restricted.add(f1, w)
    restricted.add(f2, w)
    restricted.remove_fact(f1)
    assert sorted(source.annotated_pairs(), key=repr) == before
    assert source.values_of(f1) == {v}
    assert source.facts_of(v) == {f1, f2}
    assert source.facts_of(w) == set()


# -- lifetime: the index holds its MO weakly -----------------------------------


def test_diced_sub_mo_freed_by_refcount(small_clinical, monkeypatch):
    """A dice's sub-MO, its index and its columnar store die when the
    query returns — no cycle left for the collector."""
    refs = []
    real_select = query_module.select

    def recording_select(mo, predicate):
        result = real_select(mo, predicate)
        index = result.rollup_index()
        refs.extend(weakref.ref(obj)
                    for obj in (result, index, index.columnar()))
        return result

    monkeypatch.setattr(query_module, "select", recording_select)
    mo = small_clinical.mo
    group = small_clinical.icd.groups[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = (Query(mo).dice("Diagnosis", group)
                .rollup("Residence", "Region").execute(cache=False))
        assert rows
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_index_of_a_dead_mo_raises(small_clinical):
    index = small_clinical.mo.copy().rollup_index()
    with pytest.raises(ReferenceError, match="no longer exists"):
        index.mo
