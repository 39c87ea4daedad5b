"""The three workloads: set-up, one operation, and the answer gate.

Every operation goes through the public query/mutation surface:
``Query(mo).dice(...).rollup(...).execute(...)`` with default
arguments (``cache=False`` and a ``backend=`` name on ``offload``), and
``mo.relate`` / ``mo.add_fact`` for writes.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.casestudy.icd import IcdShape
from repro.core.values import Fact
from repro.engine.query import Query
from repro.engine.result_cache import DEFAULT_CACHE
from repro.obs import metrics
from repro.workloads import ClinicalConfig, generate_clinical

from harness import ops as opspec
from harness.answers import rows_digest
from harness.ops import Op, make_function

#: the ICD shape ``tools/run_benchmarks.py`` uses
ICD_SHAPE = IcdShape(n_groups=5, families_per_group=(3, 6),
                     lowlevels_per_family=(3, 6), extra_parent_prob=0.1)

#: Every workload's MOs come from one generator seed (the one
#: ``tools/run_benchmarks.py`` uses); the benchmark seed drives the
#: operation streams.  Fixed data keeps data differences out of the
#: seed-to-seed spread, and one ad-hoc data set keeps the committed
#: expected-answer table small.
DATA_SEED = 42

DEFAULT_PARAMS = {"patients": 10_000, "sql_patients": 1_000,
                  "sharded_backend": "sharded"}


def generate(n_patients: int, seed: int):
    """A clinical workload of ``n_patients`` in the bench's ICD shape."""
    return generate_clinical(ClinicalConfig(
        n_patients=n_patients, icd=ICD_SHAPE, seed=seed))


def build_query(mo, op: Op, values: Dict[str, object]) -> Query:
    """The ``Query`` for an operation (dice values resolved by label)."""
    query = Query(mo)
    if op.dice is not None:
        dimension, label = op.dice
        query = query.dice(dimension, values[label])
    for dimension, category in op.grouping:
        query = query.rollup(dimension, category)
    return query


def value_labels(generated) -> Dict[str, object]:
    """Label -> dimension value for every value an operation may name."""
    found: Dict[str, object] = {}
    for value in (generated.regions + generated.counties + generated.areas
                  + generated.icd.groups + generated.icd.families
                  + generated.icd.low_levels):
        found[value.label] = value
    for value in generated.mo.dimension("Age").category("Age").members():
        found[f"age:{value.label}"] = value
    return found


class State:
    """One set-up's live objects."""

    def __init__(self, **fields) -> None:
        self.__dict__.update(fields)


class Workload:
    """Base: ``setup`` -> ``stream`` -> ``execute``/``check`` per op ->
    ``finish`` gate -> ``close``."""

    name = ""
    #: operation kind -> metric role
    roles: Dict[str, str] = {}
    #: set-ups per untraced run; ``setup_s`` is their median
    setup_repeats = 5

    def __init__(self, seed: int, params: Optional[Dict] = None) -> None:
        self.seed = seed
        self.params = dict(DEFAULT_PARAMS, **(params or {}))

    def setup(self) -> State:
        raise NotImplementedError

    def stream(self, state: State) -> Iterator[Op]:
        raise NotImplementedError

    def execute(self, state: State, op: Op):
        raise NotImplementedError

    def before(self, state: State, op: Op):
        """Read whatever ``check`` needs from before the operation."""
        return None

    def check(self, state: State, op: Op, rows, digest: str, before
              ) -> Tuple[Optional[str], str]:
        """``(error or None, regime label)`` for one finished operation
        whose answer has digest ``digest`` — runs outside the timed
        region."""
        raise NotImplementedError

    def finish(self, state: State) -> List[str]:
        """End-of-run gate; returns one error per failed operation."""
        return []

    def close(self, state: State) -> None:
        pass


class Adhoc(Workload):
    """Cyclic ad-hoc roll-ups and dices over more distinct queries than
    the result cache holds."""

    name = "adhoc"
    roles = {"rollup": "primary", "dice": "secondary"}
    #: its set-up takes ~7 s, so fewer repeats keep a run under a minute
    setup_repeats = 3

    def __init__(self, seed: int, params: Optional[Dict] = None,
                 expected: Optional[Dict] = None) -> None:
        super().__init__(seed, params)
        self.expected = expected

    def setup(self) -> State:
        DEFAULT_CACHE.clear()
        t0 = time.perf_counter()
        generated = generate(self.params["patients"], DATA_SEED)
        generate_seconds = time.perf_counter() - t0
        mo = generated.mo
        # warm-up: every grouping's columnar layout, the summarizability
        # verdicts its functions need (distributive, and Avg's), the
        # characterization maps behind one-dimension counts, every
        # measure column, and the analyzer's per-function memos;
        # cache=False leaves the result cache empty
        for grouping in (opspec.ADHOC_GROUPINGS
                         + opspec.ADHOC_STRICT_GROUPINGS):
            query = build_query(mo, Op("rollup", grouping), {})
            specs = ["Sum(Age)"]
            if grouping in opspec.ADHOC_GROUPINGS:
                specs.append("Avg(Age)")
            if len(grouping) == 1:
                specs.append("SetCount")
            for spec in specs:
                query.execute(make_function(spec), check=False, cache=False)
        probe = build_query(mo, Op("rollup", opspec.ADHOC_GROUPINGS[0]), {})
        for spec in opspec.ADHOC_FUNCTIONS:
            probe.execute(make_function(spec), cache=False)
        labels = {
            "regions": [v.label for v in generated.regions],
            "counties": [v.label for v in generated.counties],
            "groups": [v.label for v in generated.icd.groups],
        }
        table = None
        if self.expected is not None and \
                self.expected["patients"] == self.params["patients"] and \
                self.expected["data_seed"] == DATA_SEED:
            table = self.expected["answers"]
        return State(mo=mo, values=value_labels(generated), labels=labels,
                     table=table, generate_seconds=generate_seconds)

    def stream(self, state: State) -> Iterator[Op]:
        cycle = opspec.adhoc_cycle(self.seed, state.labels)
        while True:
            yield from cycle

    def execute(self, state: State, op: Op):
        query = build_query(state.mo, op, state.values)
        return query.execute(make_function(op.function))

    def check(self, state, op, rows, digest, before):
        n = len(rows)
        regime = "narrow" if n <= 100 else ("wide" if n >= 1000 else "mid")
        if op.kind == "dice":
            regime = "dice"
        if state.table is None:
            return (f"no expected answers recorded for "
                    f"{self.params['patients']} patients", regime)
        want = state.table.get(op.key)
        if want != digest:
            return f"{op.key}: digest {digest} != expected {want}", regime
        return None, regime


class Dashboard(Workload):
    """Zipf-skewed panel reads beside periodic write batches."""

    name = "dashboard"
    roles = {"read": "primary", "write": "secondary"}
    #: reads compared against a ``cache=False`` recompute after a batch
    CHECKS_AFTER_WRITE = 2

    def setup(self) -> State:
        DEFAULT_CACHE.clear()
        t0 = time.perf_counter()
        generated = generate(self.params["patients"], DATA_SEED)
        generate_seconds = time.perf_counter() - t0
        mo = generated.mo
        values = value_labels(generated)
        # warm-up: every panel answered once, so the dashboard starts
        # in its steady state (layouts built, answers cached)
        for panel in opspec.DASHBOARD_PANELS:
            build_query(mo, panel, values).execute(
                make_function(panel.function))
        first_new_fid = max(p.fid for p in generated.patients) + 1
        return State(mo=mo, values=values, patients=generated.patients,
                     first_new_fid=first_new_fid,
                     low_levels=[v.label for v in generated.icd.low_levels],
                     areas=[v.label for v in generated.areas],
                     to_check=0, hits_checked=set(),
                     hits=metrics.counter("query.cache.hit"),
                     generate_seconds=generate_seconds)

    def stream(self, state: State) -> Iterator[Op]:
        return opspec.dashboard_stream(self.seed, len(state.patients),
                                       state.low_levels, state.areas)

    def execute(self, state: State, op: Op):
        mo, values = state.mo, state.values
        if op.kind == "write":
            for patient, low_level in op.writes:
                mo.relate(state.patients[patient], "Diagnosis",
                          values[low_level])
            for batch, age, area, low_level in op.new_patients:
                fact = mo.add_fact(Fact(state.first_new_fid + batch,
                                        ftype="Patient"))
                mo.relate(fact, "Age", values[f"age:{age}"])
                mo.relate(fact, "Residence", values[area])
                mo.relate(fact, "Diagnosis", values[low_level])
            return None
        query = build_query(mo, op, values)
        return query.execute(make_function(op.function))

    def before(self, state, op):
        return state.hits.value

    def check(self, state, op, rows, digest, before):
        if op.kind == "write":
            state.to_check = self.CHECKS_AFTER_WRITE
            state.hits_checked = set()
            return None, "write"
        regime = "hit" if state.hits.value > before else "post_write"
        # A hit serves a copy of its cache entry's decoded rows, built
        # once per entry, so checking each panel's first hit after a
        # write covers every later hit on the same entry.
        first_hit = regime == "hit" and op.key not in state.hits_checked
        if state.to_check or first_hit:
            state.to_check = max(0, state.to_check - 1)
            if regime == "hit":
                state.hits_checked.add(op.key)
            fresh = build_query(state.mo, op, state.values).execute(
                make_function(op.function), cache=False)
            want = rows_digest(fresh)
            if want != digest:
                return (f"{op.key}: served {digest} ({regime}) but a "
                        f"cache=False recompute gives {want}", regime)
        return None, regime


class Offload(Workload):
    """Backend-eligible roll-ups with ``cache=False``: sharded on the
    10k MO, SQL pushdown on a 1k MO."""

    name = "offload"
    roles = {"sharded": "primary", "sql": "secondary"}

    def setup(self) -> State:
        from repro.engine.sharded import shutdown_pool
        from repro.relational.backend import sql_backend_for
        shutdown_pool()  # every set-up pays the pool start
        t0 = time.perf_counter()
        generated = generate(self.params["patients"], DATA_SEED)
        small = generate(self.params["sql_patients"], DATA_SEED)
        generate_seconds = time.perf_counter() - t0
        sql = sql_backend_for(small.mo)
        sql.ensure_loaded()
        backend = self.params["sharded_backend"]
        # warm-up: layouts and payloads for every sharded query, and
        # the pool's workers started
        for op in opspec.OFFLOAD_SHARDED:
            build_query(generated.mo, op, {}).execute(
                make_function(op.function), cache=False, backend=backend)
        first = opspec.OFFLOAD_SQL[0]
        build_query(small.mo, first, {}).execute(
            make_function(first.function), cache=False, backend="sql")
        return State(big=generated.mo, small=small.mo, sql=sql,
                     backend=backend, seen={},
                     generate_seconds=generate_seconds)

    def stream(self, state: State) -> Iterator[Op]:
        return opspec.offload_stream(self.seed)

    def _target(self, state: State, op: Op):
        if op.kind == "sharded":
            return state.big, state.backend
        return state.small, "sql"

    def execute(self, state: State, op: Op):
        mo, backend = self._target(state, op)
        return build_query(mo, op, {}).execute(
            make_function(op.function), cache=False, backend=backend)

    def check(self, state, op, rows, digest, before):
        seen = state.seen.setdefault(op.key, {})
        seen[digest] = seen.get(digest, 0) + 1
        return None, op.kind

    def finish(self, state: State) -> List[str]:
        errors = []
        by_key = {op.key: op for op in
                  opspec.OFFLOAD_SHARDED + opspec.OFFLOAD_SQL}
        for key, digests in sorted(state.seen.items()):
            op = by_key[key]
            mo, _ = self._target(state, op)
            want = rows_digest(build_query(mo, op, {}).execute(
                make_function(op.function), cache=False))
            for digest, count in digests.items():
                if digest != want:
                    errors.extend(
                        [f"{key}: rows {digest} != memory backend {want}"]
                        * count)
        return errors

    def close(self, state: State) -> None:
        from repro.engine.sharded import shutdown_pool
        state.sql.close()
        shutdown_pool()


WORKLOADS = {cls.name: cls for cls in (Adhoc, Dashboard, Offload)}
