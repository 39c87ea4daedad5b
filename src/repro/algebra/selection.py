"""The selection operator σ (paper §4.1).

``σ[p](M) = (S', F', D', R')`` with ``S' = S``, ``D' = D``,
``F' = {f ∈ F | ∃e_1 ∈ D_1, .., e_n ∈ D_n (p(e_1, .., e_n) ∧ f ⇝_1 e_1
∧ .. ∧ f ⇝_n e_n)}``, and each ``R'_i`` restricted to the surviving
facts.  The set of facts is restricted to those characterized by values
where p evaluates to true; dimensions and schema stay the same, and —
per §4.2 — selection does not change the time attached to the result.

The per-fact scan below is the general evaluator.  Dices — a
``characterized_by(d, v)`` predicate or a conjunction of them — are
answered from the rollup index instead: ``f ⇝ v`` holds exactly when
``f`` is in ``v``'s closure, so σ becomes closure intersections on
interned fact ids.  The predicate's shape alone picks the path.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Set

from repro.algebra.predicates import Predicate, SelectionContext
from repro.core.errors import SchemaError
from repro.core.mo import MultidimensionalObject
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.obs import metrics

__all__ = ["select", "select_schema", "selection_path"]

_PATH_INDEX = metrics.counter("selection.path.index")
_PATH_SCAN = metrics.counter("selection.path.scan")


def select_schema(schema: FactSchema, predicate: Predicate) -> FactSchema:
    """σ's schema-inference hook: the output schema of
    ``σ[predicate]`` over an input with ``schema`` (``S' = S``), raising
    the same :class:`SchemaError` the runtime operator would for a
    predicate constraining an unknown dimension.  Used by the static
    plan typechecker (:mod:`repro.analyze`) — no fact data involved."""
    for name in predicate.dims:
        if name not in schema:
            raise SchemaError(
                f"predicate constrains unknown dimension {name!r}"
            )
    return schema


def _candidate_values(mo: MultidimensionalObject, fact: Fact,
                      dimension_name: str) -> Set[DimensionValue]:
    """All values ``e`` with ``f ⇝ e`` in the dimension: the ancestors of
    the fact's base values (including the base values and ⊤)."""
    dimension = mo.dimension(dimension_name)
    relation = mo.relation(dimension_name)
    out: Set[DimensionValue] = set()
    for base in relation.values_of(fact):
        out |= dimension.ancestors(base, reflexive=True)
    return out


def _dice_bounds(
        predicate: Predicate) -> Optional[Dict[str, List[DimensionValue]]]:
    """The diced values per dimension when ``predicate`` is a
    ``characterized_by`` leaf or a (nested) conjunction of such leaves —
    the shape σ answers from rollup-index closures — else ``None``."""
    if predicate.kind == "characterized_by":
        name, value = predicate.payload
        return {name: [value]}
    if predicate.kind != "conjunction":
        return None
    bounds: Dict[str, List[DimensionValue]] = {}
    for operand in predicate.payload:
        inner = _dice_bounds(operand)
        if inner is None:
            return None
        for name, values in inner.items():
            bounds.setdefault(name, []).extend(values)
    return bounds


def selection_path(predicate: Predicate) -> str:
    """Which evaluator σ uses for ``predicate``: ``"index"`` for dices
    (see :func:`_dice_bounds`), ``"scan"`` — the per-fact predicate
    evaluation — for every other predicate."""
    return "scan" if _dice_bounds(predicate) is None else "index"


def _scan(mo: MultidimensionalObject, predicate: Predicate) -> Set[Fact]:
    """The general evaluator: the existential quantification over value
    tuples, per fact, over the fact's *characterizing* values in each
    dimension the predicate constrains."""
    surviving: Set[Fact] = set()
    for fact in mo.facts:
        ctx = SelectionContext(mo=mo, fact=fact)
        candidate_sets: List[List[DimensionValue]] = []
        for name in predicate.dims:
            candidates = _candidate_values(mo, fact, name)
            candidate_sets.append(sorted(candidates, key=repr))
        if not predicate.dims:
            if predicate({}, ctx):
                surviving.add(fact)
            continue
        for combo in product(*candidate_sets):
            values: Dict[str, DimensionValue] = dict(zip(predicate.dims, combo))
            if predicate(values, ctx):
                surviving.add(fact)
                break
    return surviving


def _index_dice(mo: MultidimensionalObject,
                bounds: Dict[str, List[DimensionValue]]) -> Set[Fact]:
    """Dices from the rollup index: ``f ⇝ v`` is membership in ``v``'s
    closure, so the survivors are ``F`` intersected with each diced
    dimension's shared-witness closure, computed on interned ids."""
    index = mo.rollup_index()
    ids = index.mo_fact_ids()
    for name, values in bounds.items():
        ids = ids & index.witness_fact_ids(name, values)
    return index.facts_of_ids(ids)


def select(mo: MultidimensionalObject,
           predicate: Predicate) -> MultidimensionalObject:
    """Apply ``σ[predicate]`` to ``mo``.

    Unconstrained dimensions are witnessed by ⊤ (every fact is
    characterized by ⊤, so they never exclude a fact).  Dices —
    ``characterized_by`` and conjunctions of them — are answered from
    the rollup index's closures; every other predicate is evaluated per
    fact.  Both paths return the same MO.
    """
    select_schema(mo.schema, predicate)
    bounds = _dice_bounds(predicate)
    if bounds is None:
        _PATH_SCAN.inc()
        surviving = _scan(mo, predicate)
    else:
        _PATH_INDEX.inc()
        surviving = _index_dice(mo, bounds)
    relations = {
        name: mo.relation(name).restricted_to_facts(surviving)
        for name in mo.dimension_names
    }
    return MultidimensionalObject(
        schema=mo.schema,
        facts=surviving,
        dimensions={name: mo.dimension(name) for name in mo.dimension_names},
        relations=relations,
        kind=mo.kind,
    )
