"""Shared hypothesis strategies for property-based tests.

Provides generators for chronon sets, annotated hierarchies, and small
random multidimensional objects — the raw material of the closure,
coalescing, summarizability, and degeneration properties.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.aggtypes import AggregationType
from repro.core.category import CategoryType
from repro.core.dimension import Dimension, DimensionType
from repro.core.mo import MultidimensionalObject, TimeKind
from repro.core.schema import FactSchema
from repro.core.values import DimensionValue, Fact
from repro.temporal.chronon import TIME_MAX, TIME_MIN
from repro.temporal.timeset import ALWAYS, TimeSet

__all__ = [
    "chronons",
    "intervals",
    "timesets",
    "probabilities",
    "small_dimensions",
    "small_mos",
    "mutation_scripts",
    "apply_mutation_script",
]

#: a narrow band of the time domain keeps interval arithmetic readable
_LO = TIME_MIN + 1000
_HI = TIME_MIN + 2000

chronons = st.integers(min_value=_LO, max_value=_HI)


@st.composite
def intervals(draw):
    """A single closed interval inside the test band."""
    start = draw(chronons)
    length = draw(st.integers(min_value=0, max_value=200))
    return (start, min(start + length, _HI))


@st.composite
def timesets(draw):
    """A coalesced TimeSet of up to 5 intervals."""
    ivals = draw(st.lists(intervals(), min_size=0, max_size=5))
    return TimeSet.of(ivals)


probabilities = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def small_dimensions(draw, name: str = "D", n_levels: int = None,
                     temporal: bool = False, probabilistic: bool = False):
    """A random dimension: 1-3 levels, a handful of values per level,
    random upward edges (possibly non-strict), optional time/probability
    annotations."""
    if n_levels is None:
        n_levels = draw(st.integers(min_value=1, max_value=3))
    level_names = [f"{name}L{i}" for i in range(n_levels)]
    ctypes = [
        CategoryType(level, AggregationType.SUM if i == 0
                     else AggregationType.CONSTANT, is_bottom=(i == 0))
        for i, level in enumerate(level_names)
    ]
    edges = [(level_names[i], level_names[i + 1])
             for i in range(n_levels - 1)]
    dimension = Dimension(DimensionType(name, ctypes, edges))
    values_per_level = []
    for level_index, level in enumerate(level_names):
        n_values = draw(st.integers(min_value=1, max_value=4))
        level_values = []
        for j in range(n_values):
            # sids embed the level so independently drawn dimensions
            # agree on every shared value's category (global Type(e))
            value = DimensionValue(sid=(name, level_index, j))
            dimension.add_value(level, value)
            level_values.append(value)
        values_per_level.append(level_values)
    for i in range(n_levels - 1):
        for child in values_per_level[i]:
            n_parents = draw(st.integers(min_value=0, max_value=2))
            parents = draw(st.lists(
                st.sampled_from(values_per_level[i + 1]),
                min_size=min(n_parents, 1) if n_parents else 0,
                max_size=n_parents, unique=True))
            for parent in parents:
                time = draw(timesets()) if temporal else ALWAYS
                prob = draw(probabilities) if probabilistic else 1.0
                if time.is_empty():
                    time = ALWAYS
                dimension.add_edge(child, parent, time=time, prob=prob)
    return dimension, values_per_level


@st.composite
def small_mos(draw, n_dims: int = None, temporal: bool = False,
              probabilistic: bool = False):
    """A random, valid MO: 1-3 small dimensions, up to 6 facts, each
    related in every dimension (to a random value at any level, or ⊤)."""
    if n_dims is None:
        n_dims = draw(st.integers(min_value=1, max_value=3))
    dimensions = {}
    inventories = {}
    for i in range(n_dims):
        name = f"Dim{i}"
        dimension, values = draw(small_dimensions(
            name=name, temporal=temporal, probabilistic=probabilistic))
        dimensions[name] = dimension
        inventories[name] = [v for level in values for v in level]
    schema = FactSchema("T", [d.dtype for d in dimensions.values()])
    kind = TimeKind.VALID if temporal else TimeKind.SNAPSHOT
    mo = MultidimensionalObject(schema=schema, dimensions=dimensions,
                                kind=kind)
    n_facts = draw(st.integers(min_value=0, max_value=6))
    for fid in range(n_facts):
        fact = Fact(fid=fid, ftype="T")
        mo.add_fact(fact)
        for name in dimensions:
            n_links = draw(st.integers(min_value=1, max_value=2))
            for _ in range(n_links):
                use_top = draw(st.booleans()) and n_links == 1
                if use_top or not inventories[name]:
                    value = dimensions[name].top_value
                else:
                    value = draw(st.sampled_from(inventories[name]))
                time = draw(timesets()) if temporal else ALWAYS
                if time.is_empty():
                    time = ALWAYS
                prob = draw(probabilities) if probabilistic else 1.0
                mo.relate(fact, name, value, time=time, prob=prob)
    return mo


@st.composite
def mutation_scripts(draw):
    """A script of delta-able mutations as data: each step either adds
    a fresh fact related somewhere, relates an (existing or new) fact
    to another value, or adds one hierarchy edge."""
    return draw(st.lists(
        st.tuples(
            st.sampled_from(["new_fact", "relate", "edge"]),
            st.integers(min_value=0, max_value=10 ** 6),
            st.integers(min_value=0, max_value=10 ** 6),
        ),
        min_size=1, max_size=8,
    ))


def apply_mutation_script(mo, script):
    """Replay a mutation script against the MO, interpreting the drawn
    integers against whatever the MO currently contains; returns how
    many steps mutated anything."""
    applied = 0
    next_fid = 10 ** 6  # clear of the generator's fact ids
    for op, a, b in script:
        names = mo.dimension_names
        name = names[a % len(names)]
        dimension = mo.dimension(name)
        values = [v for cat in dimension.categories()
                  for v in cat.members() if not v.is_top]
        if op == "new_fact":
            fact = Fact(fid=next_fid, ftype=mo.schema.fact_type)
            next_fid += 1
            target = (values[b % len(values)] if values
                      else dimension.top_value)
            mo.relate(fact, name, target)
            applied += 1
        elif op == "relate":
            facts = sorted(mo.facts, key=repr)
            if not facts or not values:
                continue
            mo.relate(facts[b % len(facts)], name, values[a % len(values)])
            applied += 1
        else:  # one upward edge between adjacent levels
            levels = [ctype.name for ctype in dimension.dtype.category_types()
                      if not ctype.is_top]
            if len(levels) < 2:
                continue
            i = a % (len(levels) - 1)
            children = list(dimension.category(levels[i]).members())
            parents = list(dimension.category(levels[i + 1]).members())
            if not children or not parents:
                continue
            dimension.add_edge(children[b % len(children)],
                               parents[(a + b) % len(parents)])
            applied += 1
    return applied
