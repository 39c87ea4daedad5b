"""Operation specs and seeded operation streams.

Everything here is pure: a stream is a function of the seed and the
workload inventories only, so the same seed replays the same
operations.  An operation names its roll-up by dimension/category
names, its aggregation function by a short spec, and its dice by the
dimension value's label; :mod:`harness.workloads` resolves them
against the generated MO.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.algebra import Avg, CountDim, Max, Min, SetCount, Sum
from repro.algebra.functions import AggregationFunction

LL = "Low-level Diagnosis"
FAM = "Diagnosis Family"
GRP = "Diagnosis Group"
AGE10 = "Ten-year group"
AGE5 = "Five-year group"

Grouping = Tuple[Tuple[str, str], ...]

#: function spec -> constructor; specs are the stable names used in
#: operation keys and in the committed expected-answer table
FUNCTIONS = {
    "SetCount": lambda: SetCount(),
    "Sum(Age)": lambda: Sum("Age"),
    "Avg(Age)": lambda: Avg("Age"),
    "Min(Age)": lambda: Min("Age"),
    "Max(Age)": lambda: Max("Age"),
    "CountDim(Age)": lambda: CountDim("Age"),
    "CountDim(Diagnosis)": lambda: CountDim("Diagnosis"),
    "CountDim(Residence)": lambda: CountDim("Residence"),
}


def make_function(spec: str) -> AggregationFunction:
    """A fresh function object for a spec name."""
    return FUNCTIONS[spec]()


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``kind`` is ``rollup``, ``dice``, ``read``, ``write``, ``sharded``
    or ``sql``.  ``dice`` is ``(dimension, value label)`` or ``None``.
    A write batch holds ``(patient index, low-level label)`` relinks in
    ``writes`` and ``(batch number, age label, area label, low-level
    label)`` fresh patients in ``new_patients``; the batch number makes
    each new patient's fact id unique.
    """

    kind: str
    grouping: Grouping = ()
    function: str = "SetCount"
    dice: Optional[Tuple[str, str]] = None
    writes: Tuple[Tuple[int, str], ...] = ()
    new_patients: Tuple[Tuple[int, str, str, str], ...] = ()

    @property
    def key(self) -> str:
        """A stable text key: the cache-relevant identity of a query
        (writes get a key too, for stream digests)."""
        grouping = ",".join(f"{d}={c}" for d, c in self.grouping)
        dice = f"{self.dice[0]}={self.dice[1]}|" if self.dice else ""
        if self.kind == "write":
            return (f"write|{len(self.writes)}|"
                    f"{','.join(f'{p}:{v}' for p, v in self.writes)}|"
                    f"{len(self.new_patients)}")
        return f"{self.kind}|{dice}{grouping}|{self.function}"


def _grouping(**levels: Optional[str]) -> Grouping:
    names = {"diagnosis": "Diagnosis", "residence": "Residence",
             "age": "Age"}
    return tuple(sorted((names[k], v) for k, v in levels.items() if v))


# -- adhoc -------------------------------------------------------------------

#: Every aggregation function the ad-hoc stream uses, and the
#: distributive subset (all but Avg).
ADHOC_FUNCTIONS = ("SetCount", "Sum(Age)", "Avg(Age)", "Min(Age)",
                   "Max(Age)", "CountDim(Age)", "CountDim(Diagnosis)",
                   "CountDim(Residence)")
ADHOC_DISTRIBUTIVE = tuple(f for f in ADHOC_FUNCTIONS if f != "Avg(Age)")

#: Ad-hoc roll-ups over Diagnosis/Residence/Age, each under every
#: function.  Chosen so that (a) answers span narrow (<=100 rows)
#: through wide (>=1,000 rows) at 10k patients, (b) no answer exceeds
#: ~2k rows (a 20k-row answer costs ~2 s and would dominate a run), and
#: (c) warming every grouping up stays a few seconds: every grouping
#: here includes the non-strict Diagnosis dimension, whose extensional
#: strict-path check stops at the first multi-diagnosis patient.
ADHOC_GROUPINGS: Tuple[Grouping, ...] = (
    _grouping(diagnosis=LL),
    _grouping(diagnosis=LL, residence="County"),
    _grouping(diagnosis=LL, residence="Region"),
    _grouping(diagnosis=LL, age=AGE10),
    _grouping(diagnosis=LL, age=AGE5),
    _grouping(diagnosis=FAM),
    _grouping(diagnosis=FAM, residence="Area"),
    _grouping(diagnosis=FAM, residence="County"),
    _grouping(diagnosis=FAM, residence="Region"),
    _grouping(diagnosis=FAM, age=AGE10),
    _grouping(diagnosis=FAM, age=AGE5),
    _grouping(diagnosis=FAM, age="Age"),
    _grouping(diagnosis=FAM, residence="Region", age=AGE10),
    _grouping(diagnosis=FAM, residence="Region", age=AGE5),
    _grouping(diagnosis=FAM, residence="County", age=AGE10),
    _grouping(diagnosis=GRP),
    _grouping(diagnosis=GRP, residence="Area"),
    _grouping(diagnosis=GRP, residence="County"),
    _grouping(diagnosis=GRP, residence="Region"),
    _grouping(diagnosis=GRP, age=AGE10),
    _grouping(diagnosis=GRP, age=AGE5),
    _grouping(diagnosis=GRP, age="Age"),
    _grouping(diagnosis=GRP, residence="Region", age=AGE10),
    _grouping(diagnosis=GRP, residence="Region", age=AGE5),
    _grouping(diagnosis=GRP, residence="Region", age="Age"),
    _grouping(diagnosis=GRP, residence="County", age=AGE10),
    _grouping(diagnosis=GRP, residence="County", age=AGE5),
    _grouping(diagnosis=GRP, residence="Area", age=AGE10),
)

#: Roll-ups over strict dimensions only, under the distributive
#: functions only: their non-distributive (Avg) verdict is a full
#: extensional scan of every fact, seconds per grouping to warm up.
ADHOC_STRICT_GROUPINGS: Tuple[Grouping, ...] = (
    _grouping(residence="Region"),
    _grouping(residence="County"),
    _grouping(residence="Area"),
    _grouping(age=AGE10),
    _grouping(age=AGE5),
)

#: (dice dimension, which inventory, grouping, function)
ADHOC_DICE_SHAPES = (
    ("Residence", "regions", _grouping(diagnosis=FAM), "SetCount"),
    ("Residence", "regions", _grouping(diagnosis=FAM), "Avg(Age)"),
    ("Residence", "regions", _grouping(diagnosis=GRP, residence="County"),
     "Sum(Age)"),
    ("Residence", "counties", _grouping(diagnosis=GRP), "SetCount"),
    ("Residence", "counties", _grouping(diagnosis=GRP), "Avg(Age)"),
    ("Diagnosis", "groups", _grouping(residence="Region"), "SetCount"),
)


def adhoc_distinct_ops(labels: Dict[str, Sequence[str]]) -> List[Op]:
    """Every distinct ad-hoc operation: each grouping under each
    function, then the dices.  ``labels`` maps ``regions``/``counties``
    /``groups`` to the value labels a dice may slice by."""
    ops = [Op("rollup", grouping, function)
           for grouping in ADHOC_GROUPINGS for function in ADHOC_FUNCTIONS]
    ops += [Op("rollup", grouping, function)
            for grouping in ADHOC_STRICT_GROUPINGS
            for function in ADHOC_DISTRIBUTIVE]
    for dimension, inventory, grouping, function in ADHOC_DICE_SHAPES:
        for label in labels[inventory]:
            ops.append(Op("dice", grouping, function, (dimension, label)))
    return ops


def interleave(strata: Sequence[List[Op]]) -> List[Op]:
    """Smooth weighted round-robin over the strata (each already
    shuffled): every prefix of the result holds each stratum in close
    to its overall proportion, so a run that stops mid-cycle still
    samples every stratum in the cycle's mix."""
    weights = [len(s) for s in strata]
    total = sum(weights)
    credit = [0] * len(strata)
    taken = [0] * len(strata)
    out: List[Op] = []
    # over ``total`` rounds each stratum is picked exactly its weight
    # times, so ``taken`` never runs past a stratum's end
    for _ in range(total):
        for i, weight in enumerate(weights):
            credit[i] += weight
        best = max(range(len(strata)), key=credit.__getitem__)
        credit[best] -= total
        out.append(strata[best][taken[best]])
        taken[best] += 1
    return out


def adhoc_cycle(seed: int, labels: Dict[str, Sequence[str]]) -> List[Op]:
    """One cycle of the ad-hoc stream: every distinct operation once.

    The operations are stratified by grouping (roll-ups) and by dice
    shape (dices); the seed orders the strata and the operations within
    each.  Interleaving keeps every prefix close to the cycle's mix, so
    a run that ends mid-cycle samples each grouping and dice shape in
    the same proportion whatever the seed — latency differs by up to
    20x between groupings, so an unbalanced prefix would move the
    percentiles more than any code change."""
    rng = random.Random(seed)
    strata: Dict[Tuple, List[Op]] = {}
    for op in adhoc_distinct_ops(labels):
        if op.kind == "rollup":
            key: Tuple = (op.kind, op.grouping)
        else:
            key = (op.kind, op.grouping, op.function, op.dice[0])
        strata.setdefault(key, []).append(op)
    ordered = list(strata.values())
    rng.shuffle(ordered)
    for stratum in ordered:
        rng.shuffle(stratum)
    return interleave(ordered)


# -- dashboard ---------------------------------------------------------------

#: The live dashboard's fixed panels, most-read first.  Residence and
#: Diagnosis only: a panel grouped by Age would re-run the extensional
#: strict-path check over every fact after each new patient.
DASHBOARD_PANELS: Tuple[Op, ...] = (
    Op("read", _grouping(diagnosis=GRP), "SetCount"),
    Op("read", _grouping(residence="Region"), "SetCount"),
    Op("read", _grouping(diagnosis=GRP, residence="Region"), "SetCount"),
    Op("read", _grouping(diagnosis=FAM), "SetCount"),
    Op("read", _grouping(residence="County"), "Avg(Age)"),
    Op("read", _grouping(diagnosis=GRP), "Avg(Age)"),
    Op("read", _grouping(residence="Region"), "Sum(Age)"),
    Op("read", _grouping(diagnosis=FAM, residence="Region"), "SetCount"),
    Op("read", _grouping(diagnosis=GRP, residence="County"), "Sum(Age)"),
    Op("read", _grouping(diagnosis=LL), "SetCount"),
    Op("read", _grouping(residence="County"), "SetCount"),
    Op("read", _grouping(diagnosis=FAM), "Avg(Age)"),
)

#: reads between write batches
DASHBOARD_READS_PER_BATCH = 30
#: relinks per write batch
DASHBOARD_RELINKS = 8
#: every n-th batch also admits one new patient
DASHBOARD_NEW_PATIENT_EVERY = 4


def zipf_weights(n: int) -> List[float]:
    """Zipf weights 1/rank; with 12 items the top one takes about a
    third."""
    return [1.0 / rank for rank in range(1, n + 1)]


def zipf_cycle(ops: Sequence[Op], rng: random.Random) -> List[Op]:
    """A cycle of about 60 operations holding ``ops`` in Zipf
    proportions (each at least once), interleaved so that every prefix
    keeps those proportions; the seed orders the interleaving."""
    weights = zipf_weights(len(ops))
    scale = 60 / sum(weights)
    strata = [[op] * max(1, round(weight * scale))
              for op, weight in zip(ops, weights)]
    rng.shuffle(strata)
    return interleave(strata)


def dashboard_stream(seed: int, n_patients: int,
                     low_levels: Sequence[str], areas: Sequence[str]
                     ) -> Iterator[Op]:
    """Endless seeded dashboard stream: panel reads from a Zipf cycle
    (exact skew in every run, so the mix of hits and post-write
    recomputes does not move with the seed) with a write batch after
    every ``DASHBOARD_READS_PER_BATCH`` reads."""
    rng = random.Random(seed)
    reads = itertools.cycle(zipf_cycle(DASHBOARD_PANELS, rng))
    for batch in itertools.count(1):
        for _ in range(DASHBOARD_READS_PER_BATCH):
            yield next(reads)
        relinks = tuple((rng.randrange(n_patients), rng.choice(low_levels))
                        for _ in range(DASHBOARD_RELINKS))
        new = ()
        if batch % DASHBOARD_NEW_PATIENT_EVERY == 0:
            new = ((batch, str(rng.randrange(100)), rng.choice(areas),
                    rng.choice(low_levels)),)
        yield Op("write", writes=relinks, new_patients=new)


# -- offload -----------------------------------------------------------------

#: statically SHARDABLE Residence roll-ups x backend-admitted functions
#: (15 > the sharded backend's 8 cached payloads per MO), most popular
#: first.  SetCount carries no measure column and runs at about half
#: the others' latency; ranked last, it stays a small share of the cycle
#: and the median falls inside the measure queries' cluster rather
#: than on the edge between the two.
OFFLOAD_SHARDED: Tuple[Op, ...] = tuple(
    Op("sharded", _grouping(residence=category), function)
    for function in ("Sum(Age)", "Avg(Age)", "Min(Age)", "Max(Age)",
                     "SetCount")
    for category in ("Region", "County", "Area"))

#: roll-ups the SQL backend compiles without fallback
OFFLOAD_SQL: Tuple[Op, ...] = tuple(
    Op("sql", grouping, function)
    for grouping in (_grouping(diagnosis=GRP), _grouping(residence="Region"),
                     _grouping(residence="Area"), _grouping(age=AGE10),
                     _grouping(diagnosis=FAM, residence="Region"),
                     _grouping(diagnosis=LL))
    for function in ("SetCount", "Sum(Age)", "Avg(Age)", "Min(Age)",
                     "Max(Age)"))


def offload_stream(seed: int) -> Iterator[Op]:
    """Endless seeded offload stream alternating a sharded roll-up (a
    Zipf cycle with a fixed popularity order) and an SQL roll-up (a
    seeded permutation of all of them).  Cycles instead of independent
    draws keep each run's query mix fixed: query costs differ by up to
    2x on both backends, and a mix that moves with the seed moves the
    medians with it."""
    rng = random.Random(seed)
    sharded = zipf_cycle(OFFLOAD_SHARDED, rng)
    sql = list(OFFLOAD_SQL)
    rng.shuffle(sql)
    for i in itertools.count():
        yield sharded[i % len(sharded)]
        yield sql[i % len(sql)]
