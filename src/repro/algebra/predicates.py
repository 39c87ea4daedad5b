"""Selection predicates over dimension values (paper §4.1).

The selection operator takes "a predicate p on the dimension types": a
fact qualifies when *some* tuple of dimension values characterizing it
satisfies p.  A :class:`Predicate` declares which dimensions it actually
constrains (``dims``) — unconstrained dimensions are existentially
trivial (any characterizing value, in particular ⊤, satisfies them) — so
the selection operator only enumerates candidate values where needed.

Predicates receive a :class:`SelectionContext`, giving temporal and
probabilistic predicates access to the MO (the paper's §4.2 allows
predicates that refer to time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.core.mo import MultidimensionalObject
from repro.core.values import DimensionValue, Fact
from repro.temporal.chronon import Chronon
from repro.temporal.timeset import TimeSet

__all__ = [
    "SelectionContext",
    "Predicate",
    "characterized_by",
    "value_in_category",
    "rep_equals",
    "sid_satisfies",
    "characterized_during",
    "characterized_with_certainty",
    "conjunction",
    "disjunction",
    "negation",
]


@dataclass(frozen=True)
class SelectionContext:
    """What a predicate may inspect besides the candidate values."""

    mo: MultidimensionalObject
    fact: Fact


@dataclass(frozen=True)
class Predicate:
    """A predicate on dimension values.

    ``dims`` lists the constrained dimension names; ``test`` receives a
    mapping from each constrained dimension to one candidate value the
    fact is characterized by, plus the context.

    ``kind``/``payload`` describe the predicate *structurally* for
    consumers that compile rather than call it (the SQL pushdown
    backend, and σ's rollup-index path for dices):
    ``"characterized_by"`` carries ``(dimension_name, value)``,
    ``"conjunction"`` the operand predicates.  Every other constructor
    leaves the default ``"opaque"`` — callable but not translatable.
    """

    dims: Tuple[str, ...]
    test: Callable[[Dict[str, DimensionValue], SelectionContext], bool]
    description: str = "p"
    kind: str = "opaque"
    payload: object = None

    def __call__(self, values: Dict[str, DimensionValue],
                 ctx: SelectionContext) -> bool:
        return self.test(values, ctx)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Predicate({self.description})"


def characterized_by(dimension_name: str,
                     value: DimensionValue) -> Predicate:
    """Facts characterized by ``value`` (``f ⇝ e``) — the bread-and-
    butter dice: e.g. all patients with a diagnosis in group 11."""

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        candidate = values[dimension_name]
        return ctx.mo.dimension(dimension_name).leq(candidate, value) \
            or candidate == value

    return Predicate(dims=(dimension_name,), test=test,
                     description=f"{dimension_name} ⇝ {value!r}",
                     kind="characterized_by",
                     payload=(dimension_name, value))


def value_in_category(dimension_name: str, category_name: str,
                      accept: Callable[[DimensionValue], bool]) -> Predicate:
    """Facts characterized by a value of the named category satisfying
    ``accept`` — e.g. an Age value with ``sid >= 18``."""

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        candidate = values[dimension_name]
        category = ctx.mo.dimension(dimension_name).category(category_name)
        return candidate in category and accept(candidate)

    return Predicate(dims=(dimension_name,), test=test,
                     description=f"{dimension_name}.{category_name} matches")


def sid_satisfies(dimension_name: str,
                  accept: Callable[[Hashable], bool],
                  category_name: Optional[str] = None) -> Predicate:
    """Facts characterized by a value whose surrogate satisfies
    ``accept`` — handy for numeric dimensions (Age > 40).

    Only values of ``category_name`` are considered (the dimension's ⊥
    category by default), so ``accept`` never sees surrogates of
    grouping values or ⊤.
    """

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        candidate = values[dimension_name]
        if candidate.is_top:
            return False
        dimension = ctx.mo.dimension(dimension_name)
        target = category_name or dimension.dtype.bottom_name
        if not dimension.category(target).contains(candidate):
            return False
        return accept(candidate.sid)

    return Predicate(dims=(dimension_name,), test=test,
                     description=f"{dimension_name}.sid matches")


def rep_equals(dimension_name: str, category_name: str, rep_name: str,
               rep_value: Hashable,
               at: Optional[Chronon] = None) -> Predicate:
    """Facts characterized by the value whose representation equals
    ``rep_value`` — e.g. Diagnosis.Code = "E10".  Representation lookups
    may be time-qualified (Code(8) was "D1" only during the 70s)."""

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        candidate = values[dimension_name]
        dimension = ctx.mo.dimension(dimension_name)
        category = dimension.category(category_name)
        if candidate not in category:
            return False
        rep = dimension.representation(category_name, rep_name)
        return rep.of(candidate, at=at) == rep_value

    return Predicate(dims=(dimension_name,), test=test,
                     description=f"{rep_name}({dimension_name}) = {rep_value!r}")


def characterized_during(dimension_name: str, value: DimensionValue,
                         window: TimeSet) -> Predicate:
    """Temporal predicate: ``f ⇝ value`` during some chronon of
    ``window`` (§4.2's time-referring predicates)."""

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        relation = ctx.mo.relation(dimension_name)
        dimension = ctx.mo.dimension(dimension_name)
        char_time = relation.characterization_time(ctx.fact, value, dimension)
        return char_time.overlaps(window)

    return Predicate(dims=(dimension_name,), test=test,
                     description=f"{dimension_name} ⇝ {value!r} during {window!r}")


def characterized_with_certainty(dimension_name: str, value: DimensionValue,
                                 min_prob: float) -> Predicate:
    """Probabilistic predicate: ``f ⇝ value`` with probability at least
    ``min_prob`` (the min-certainty selection of the uncertainty
    extension)."""

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        relation = ctx.mo.relation(dimension_name)
        dimension = ctx.mo.dimension(dimension_name)
        prob = relation.characterization_probability(
            ctx.fact, value, dimension)
        return prob >= min_prob

    return Predicate(
        dims=(dimension_name,), test=test,
        description=f"P({dimension_name} ⇝ {value!r}) ≥ {min_prob}")


def conjunction(*predicates: Predicate) -> Predicate:
    """``p1 ∧ p2 ∧ ..`` — the combined predicate constrains the union of
    the operands' dimensions."""
    dims = tuple(dict.fromkeys(d for p in predicates for d in p.dims))

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        return all(p(values, ctx) for p in predicates)

    return Predicate(dims=dims, test=test,
                     description=" ∧ ".join(p.description for p in predicates),
                     kind="conjunction", payload=tuple(predicates))


def disjunction(*predicates: Predicate) -> Predicate:
    """``p1 ∨ p2 ∨ ..``."""
    dims = tuple(dict.fromkeys(d for p in predicates for d in p.dims))

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        return any(p(values, ctx) for p in predicates)

    return Predicate(dims=dims, test=test,
                     description=" ∨ ".join(p.description for p in predicates))


def negation(predicate: Predicate) -> Predicate:
    """``¬p``.  Note the existential semantics of selection: a fact
    qualifies if *some* characterizing tuple fails ``predicate``."""

    def test(values: Dict[str, DimensionValue], ctx: SelectionContext) -> bool:
        return not predicate(values, ctx)

    return Predicate(dims=predicate.dims, test=test,
                     description=f"¬({predicate.description})")
