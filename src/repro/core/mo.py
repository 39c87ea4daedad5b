"""Multidimensional objects (paper §3.1-§3.2).

A *multidimensional object* (MO) is a four-tuple ``M = (S, F, D, R)``:
a fact schema, a set of facts, one dimension per dimension type, and one
fact-dimension relation per dimension.  MOs are the operands and results
of the algebra (§4).

Temporal classification (§3.2): an MO is a *snapshot* MO when no time is
attached, a *valid-time* or *transaction-time* MO when one kind of time
is attached, and a *bitemporal* MO when both are (see
:mod:`repro.temporal.bitemporal` and
:class:`repro.temporal.timeslice` for the bitemporal wrapper and the
timeslice operators).  The annotations themselves are uniform —
:class:`~repro.temporal.timeset.TimeSet` chronon sets — so a single
implementation serves all kinds; :class:`TimeKind` records which reading
applies.

A *multidimensional object family* is a collection of MOs, possibly with
shared subdimensions, which can be used to "join" data from separate
MOs; :class:`MOFamily` implements the collection and the shared-
subdimension check.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine layer)
    from repro.engine.rollup_index import RollupIndex

from repro.core.changelog import ChangeLog
from repro.core.dimension import Dimension
from repro.core.errors import InstanceError, SchemaError
from repro.core.factdim import FactDimensionRelation
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.temporal.chronon import Chronon
from repro.temporal.timeset import ALWAYS, TimeSet

__all__ = ["TimeKind", "MultidimensionalObject", "MOFamily"]


class TimeKind(enum.Enum):
    """Which kind of time the MO's annotations denote (paper §3.2)."""

    #: no time attached; all annotations are ALWAYS.
    SNAPSHOT = "snapshot"
    #: annotations denote valid time (truth in the modeled reality).
    VALID = "valid-time"
    #: annotations denote transaction time (presence in the database).
    TRANSACTION = "transaction-time"


class MultidimensionalObject:
    """An MO ``M = (S, F, D, R)`` with optional temporal reading.

    Build one by passing the schema and then populating dimensions and
    relations, or use the fluent helpers :meth:`add_fact` /
    :meth:`relate`.  Call :meth:`validate` to check every invariant the
    paper imposes; the algebra validates its results in closure tests.
    """

    def __init__(
        self,
        schema: FactSchema,
        facts: Optional[Iterable[Fact]] = None,
        dimensions: Optional[Dict[str, Dimension]] = None,
        relations: Optional[Dict[str, FactDimensionRelation]] = None,
        kind: TimeKind = TimeKind.SNAPSHOT,
    ) -> None:
        self._schema = schema
        self._facts: Set[Fact] = set(facts or ())
        self._facts_version = 0
        self._fact_log = ChangeLog()
        self._dimensions: Dict[str, Dimension] = {}
        self._relations: Dict[str, FactDimensionRelation] = {}
        self._kind = kind
        for name in schema.dimension_names:
            if dimensions and name in dimensions:
                self._dimensions[name] = dimensions[name]
            else:
                self._dimensions[name] = Dimension(schema.dimension_type(name))
            if relations and name in relations:
                self._relations[name] = relations[name]
            else:
                self._relations[name] = FactDimensionRelation(name)
        extra_dims = set(dimensions or ()) - set(schema.dimension_names)
        extra_rels = set(relations or ()) - set(schema.dimension_names)
        if extra_dims or extra_rels:
            raise SchemaError(
                f"dimensions/relations {extra_dims | extra_rels} not in schema"
            )
        self._rollup_index = None

    # -- accessors ---------------------------------------------------------

    @property
    def schema(self) -> FactSchema:
        """The fact schema ``S``."""
        return self._schema

    @property
    def facts(self) -> Set[Fact]:
        """The fact set ``F`` (a *set*: no duplicate facts)."""
        return set(self._facts)

    @property
    def facts_version(self) -> int:
        """Mutation counter of the fact set ``F`` — bumped whenever a
        fact is actually added, so the rollup index can cache views of
        ``F`` (the fact set only grows; removal happens by constructing
        a new, restricted MO)."""
        return self._facts_version

    @property
    def fact_log(self) -> ChangeLog:
        """The bounded per-bump log of fact insertions (``("add",
        fact)`` entries) — the rollup index patches its interned view of
        ``F`` from it instead of re-interning the whole fact set."""
        return self._fact_log

    @property
    def kind(self) -> TimeKind:
        """The MO's temporal kind."""
        return self._kind

    @property
    def n(self) -> int:
        """Dimensionality."""
        return self._schema.n

    @property
    def dimension_names(self) -> Sequence[str]:
        """The dimension names, in schema order."""
        return self._schema.dimension_names

    def dimension(self, name: str) -> Dimension:
        """The dimension ``D_i`` named ``name``."""
        if name not in self._dimensions:
            raise SchemaError(f"MO has no dimension {name!r}")
        return self._dimensions[name]

    def relation(self, name: str) -> FactDimensionRelation:
        """The fact-dimension relation ``R_i`` for dimension ``name``."""
        if name not in self._relations:
            raise SchemaError(f"MO has no relation for dimension {name!r}")
        return self._relations[name]

    def dimensions(self) -> List[Dimension]:
        """All dimensions, in schema order."""
        return [self._dimensions[n] for n in self._schema.dimension_names]

    def relations(self) -> List[FactDimensionRelation]:
        """All fact-dimension relations, in schema order."""
        return [self._relations[n] for n in self._schema.dimension_names]

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    # -- population helpers ------------------------------------------------------

    def add_fact(self, fact: Fact) -> Fact:
        """Add a fact to ``F`` (idempotent; returns the fact)."""
        if fact.ftype != self._schema.fact_type:
            raise InstanceError(
                f"fact {fact!r} has type {fact.ftype!r}, schema expects "
                f"{self._schema.fact_type!r}"
            )
        if fact not in self._facts:
            self._facts.add(fact)
            self._facts_version += 1
            self._fact_log.record(self._facts_version, ("add", fact))
        return fact

    def relate(
        self,
        fact: Fact,
        dimension_name: str,
        value: DimensionValue,
        time: TimeSet = ALWAYS,
        prob: float = 1.0,
    ) -> None:
        """Record ``(fact, value) ∈ R_i`` (adding the fact if needed)."""
        if fact not in self._facts:
            self.add_fact(fact)
        dimension = self.dimension(dimension_name)
        if value not in dimension:
            raise InstanceError(
                f"value {value!r} is not in dimension {dimension_name!r}"
            )
        self._relations[dimension_name].add(fact, value, time=time, prob=prob)

    def relate_unknown(self, fact: Fact, dimension_name: str,
                       time: TimeSet = ALWAYS) -> None:
        """Record that the fact cannot be characterized in this dimension
        — the pair ``(f, ⊤)`` the paper prescribes instead of a missing
        value."""
        top = self.dimension(dimension_name).top_value
        self.relate(fact, dimension_name, top, time=time)

    # -- characterization shortcuts ---------------------------------------------------

    def rollup_index(self) -> "RollupIndex":
        """The MO's :class:`~repro.engine.rollup_index.RollupIndex`.

        Created lazily on first use and shared by every hot path that
        groups this MO's facts.  The index is *versioned*: it snapshots
        each dimension's order/relation mutation counters and rebuilds
        only the dimensions that changed, so holding on to it across
        mutations is safe (queries after a mutation see fresh closures).
        It refers back to this MO weakly, so an MO and its index are
        freed together by reference counting; keep the MO alive, not
        only its index.
        """
        if self._rollup_index is None:
            from repro.engine.rollup_index import RollupIndex

            self._rollup_index = RollupIndex(self)
        return self._rollup_index

    def characterizes(self, fact: Fact, dimension_name: str,
                      value: DimensionValue,
                      at: Optional[Chronon] = None) -> bool:
        """``f ⇝ e`` in the named dimension."""
        return self._relations[dimension_name].characterizes(
            fact, value, self._dimensions[dimension_name], at=at)

    def group(self, values: Dict[str, DimensionValue],
              at: Optional[Chronon] = None) -> Set[Fact]:
        """The paper's ``Group(e_1, .., e_n)``: the facts characterized
        by every given value.  Dimensions omitted from ``values`` are
        unconstrained (equivalently, constrained by their ⊤ value)."""
        index = self.rollup_index()
        result: Optional[Set[Fact]] = None
        for name, value in values.items():
            matched = index.facts_characterized_by(name, value, at=at)
            result = matched if result is None else (result & matched)
            if not result:
                return set()
        return self._facts & result if result is not None else set(self._facts)

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every instance-level invariant of the paper's definition:

        * each dimension matches its dimension type;
        * each relation's pairs stay within ``F`` and the dimension;
        * no fact lacks a characterization in any dimension (missing
          values are disallowed; use ``(f, ⊤)``);
        * all facts bear the schema's fact type.
        """
        for fact in self._facts:
            if fact.ftype != self._schema.fact_type:
                raise InstanceError(
                    f"fact {fact!r} has type {fact.ftype!r} but schema says "
                    f"{self._schema.fact_type!r}"
                )
        for name in self._schema.dimension_names:
            dimension = self._dimensions[name]
            if dimension.dtype.name != name:
                raise SchemaError(
                    f"dimension under key {name!r} has type "
                    f"{dimension.dtype.name!r}"
                )
            self._relations[name].validate_against(self._facts, dimension)

    def is_valid(self) -> bool:
        """True iff :meth:`validate` passes."""
        try:
            self.validate()
        except (InstanceError, SchemaError):
            return False
        return True

    # -- copying ------------------------------------------------------------------------

    def copy(self) -> "MultidimensionalObject":
        """An independent deep copy."""
        return MultidimensionalObject(
            schema=self._schema,
            facts=self._facts,
            dimensions={n: d.copy() for n, d in self._dimensions.items()},
            relations={n: r.copy() for n, r in self._relations.items()},
            kind=self._kind,
        )

    def with_kind(self, kind: TimeKind) -> "MultidimensionalObject":
        """The same MO re-labeled with another temporal kind (used by the
        timeslice operators, which change the temporal type)."""
        return MultidimensionalObject(
            schema=self._schema, facts=self._facts,
            dimensions=self._dimensions, relations=self._relations, kind=kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MO({self._schema.fact_type}; |F|={len(self._facts)}, "
                f"n={self.n}, {self._kind.value})")


class MOFamily:
    """A collection of MOs, possibly with shared subdimensions.

    The paper introduces MO families so shared subdimensions can "join"
    data from separate MOs; :meth:`shared_dimension_names` surfaces which
    dimension types two members have in common, and
    :meth:`is_subdimension_shared` checks value-level compatibility (the
    categories of one are a sub-extension of the other's).
    """

    def __init__(self) -> None:
        self._members: Dict[str, MultidimensionalObject] = {}

    def add(self, name: str, mo: MultidimensionalObject) -> None:
        """Register a member MO under a name."""
        if name in self._members:
            raise SchemaError(f"MO family already has a member {name!r}")
        self._members[name] = mo

    def member(self, name: str) -> MultidimensionalObject:
        """Fetch a member by name."""
        if name not in self._members:
            raise SchemaError(f"MO family has no member {name!r}")
        return self._members[name]

    def names(self) -> List[str]:
        """Member names, in insertion order."""
        return list(self._members)

    def __iter__(self) -> Iterator[MultidimensionalObject]:
        return iter(self._members.values())

    def __len__(self) -> int:
        return len(self._members)

    def shared_dimension_names(self, first: str, second: str) -> Set[str]:
        """Dimension type names present in both members."""
        a = set(self.member(first).dimension_names)
        b = set(self.member(second).dimension_names)
        return a & b

    def is_subdimension_shared(self, first: str, second: str,
                               dimension_name: str) -> bool:
        """True iff the named dimension of one member is a subdimension
        of the other's (same categories restricted, same order)."""
        da = self.member(first).dimension(dimension_name)
        db = self.member(second).dimension(dimension_name)
        small, large = (da, db) if len(da.values()) <= len(db.values()) else (db, da)
        for category in small.categories():
            large_cat = large.category(category.name)
            for value, time in category.items():
                if not large_cat.membership_time(value).issubset(
                        time.union(large_cat.membership_time(value))):
                    return False
                if value not in large_cat:
                    return False
        for child, parent, time, prob in small.order.edges():
            large_time = large.containment_time(child, parent)
            if not time.issubset(large_time):
                return False
        return True
