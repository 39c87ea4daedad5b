#!/usr/bin/env python3
"""Rebuild ``adhoc_expected.json``, the ad-hoc workload's answer table.

For every distinct ad-hoc operation, the answer is computed three ways
and must agree before its digest is recorded:

* ``Query(...).execute(...)`` with default arguments (what the
  benchmark times);
* the algebra's interned object path (``aggregate(use_kernel=False)``);
* the naive traversal (``aggregate(use_index=False)``).

Run from the repository root (several minutes at 10k patients)::

    python3 olapbench/build_expected.py
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from harness.answers import (  # noqa: E402
    EXPECTED_PATH,
    reference_rows,
    rows_digest,
)
from harness.ops import adhoc_distinct_ops, make_function  # noqa: E402
from harness.workloads import (  # noqa: E402
    DATA_SEED,
    DEFAULT_PARAMS,
    build_query,
    generate,
    value_labels,
)


def build_answers(patients: int) -> dict:
    """``op key -> digest`` over the ad-hoc MO of ``patients``; exits
    if the three paths disagree on any operation."""
    generated = generate(patients, DATA_SEED)
    mo = generated.mo
    values = value_labels(generated)
    labels = {
        "regions": [v.label for v in generated.regions],
        "counties": [v.label for v in generated.counties],
        "groups": [v.label for v in generated.icd.groups],
    }
    answers = {}
    for op in adhoc_distinct_ops(labels):
        served = rows_digest(build_query(mo, op, values).execute(
            make_function(op.function), cache=False))
        grouping = dict(op.grouping)
        dices = [(op.dice[0], values[op.dice[1]])] if op.dice else []
        for use_index, use_kernel in ((True, False), (False, True)):
            reference = rows_digest(reference_rows(
                mo, grouping, make_function(op.function), dices,
                use_index=use_index, use_kernel=use_kernel))
            if reference != served:
                raise SystemExit(
                    f"{op.key}: Query gives {served}, reference "
                    f"(use_index={use_index}, use_kernel={use_kernel}) "
                    f"gives {reference}")
        answers[op.key] = served
    return answers


def expected_table(patients: int) -> dict:
    """The whole table as stored in ``adhoc_expected.json``."""
    return {"patients": patients, "data_seed": DATA_SEED,
            "answers": build_answers(patients)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=EXPECTED_PATH)
    args = parser.parse_args(argv)
    table = expected_table(DEFAULT_PARAMS["patients"])
    args.output.write_text(json.dumps(table, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {args.output}: {len(table['answers'])} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
