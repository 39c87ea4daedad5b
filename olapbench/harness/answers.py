"""Answer digests and the committed ad-hoc expected-answer table.

A digest is a short hash of a query's rows in a canonical text form:
each group value by its identity (surrogate and top flag) and its
label, and the aggregate as a float ``repr``.  The model's row
equality leaves labels out, but a served answer that names a group
by another value's label is wrong to its reader, so the digest
keeps them.  Numbers are compared as floats because the columnar
kernels and the object path agree in value but not always in type
(``Sum`` over integral measures yields ``123.0`` on one path and
``123`` on the other).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent.parent / \
    "adhoc_expected.json"


def _value_text(raw: object) -> str:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return repr(raw)
    return repr(float(raw))


def _group_text(value) -> str:
    top = "^" if value.is_top else ""
    return f"{value.sid!r}:{value.label!r}{top}"


def rows_digest(rows: List) -> str:
    """The 16-hex-digit digest of ``(group dict, raw value)`` rows, in
    the order given (every answer path sorts rows the same way)."""
    h = hashlib.sha256()
    for group, raw in rows:
        cells = ";".join(
            f"{name}={_group_text(group[name])}" for name in sorted(group))
        h.update(f"{cells}|{_value_text(raw)}\n".encode())
    return h.hexdigest()[:16]


def stream_digest(digests: Iterable[str]) -> str:
    """The digest of a sequence of per-operation digests."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(digest.encode() + b"\n")
    return h.hexdigest()[:16]


def load_expected() -> Optional[Dict]:
    """The committed table, or ``None`` when the file is absent."""
    if not EXPECTED_PATH.is_file():
        return None
    with EXPECTED_PATH.open() as handle:
        return json.load(handle)


def reference_rows(mo, grouping: Dict[str, str], function, dices,
                   use_index: bool, use_kernel: bool) -> List:
    """Rows of a (diced) roll-up computed straight from the algebra's
    reference paths (``use_index=False`` is the naive traversal,
    ``use_kernel=False`` the interned object path), presented the way
    ``Query`` presents α: each result set-fact re-expanded into one row
    per combination of its grouping values, rows sorted by the values'
    reprs and then the aggregate's repr."""
    from repro.algebra import aggregate, characterized_by, conjunction, select
    from repro.core.helpers import make_result_spec
    if dices:
        mo = select(mo, conjunction(
            *[characterized_by(d, v) for d, v in dices]))
    result = aggregate(mo, function, grouping,
                       make_result_spec(name="__reference"),
                       strict_types=False, use_index=use_index,
                       use_kernel=use_kernel)
    names = sorted(grouping)
    rows = []
    for fact in result.facts:
        raw = next(iter(result.relation("__reference").values_of(fact))).sid
        combos: List[Dict] = [{}]
        for name in names:
            values = sorted(result.relation(name).values_of(fact), key=repr)
            combos = [{**combo, name: value}
                      for combo in combos for value in values]
        rows.extend((combo, raw) for combo in combos)
    rows.sort(key=lambda row: (tuple(repr(row[0][n]) for n in names),
                               repr(row[1])))
    return rows
