"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python3 -m pytest -q olapbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from build_expected import expected_table  # noqa: E402
from harness import ops as opspec  # noqa: E402
from harness.runner import run  # noqa: E402
from harness.workloads import Adhoc, Dashboard, Offload  # noqa: E402

TINY = {"patients": 300, "sql_patients": 120}
SEED = 3
SECONDS = 1


@pytest.fixture(scope="module")
def tiny_expected():
    return expected_table(TINY["patients"])


def make(name, seed, expected, params=None):
    params = dict(TINY, **(params or {}))
    if name == "adhoc":
        return Adhoc(seed, params, expected=expected)
    return {"dashboard": Dashboard, "offload": Offload}[name](seed, params)


@pytest.fixture(scope="module")
def tiny_runs(tiny_expected):
    """``(workload, trace) -> (result, info, errors)`` for every
    workload in both modes."""
    return {(name, trace): run(make(name, SEED, tiny_expected), SECONDS,
                               trace)
            for name in ("adhoc", "dashboard", "offload")
            for trace in (0, 1)}


def test_smoke_all_workloads_answer_correctly(tiny_runs):
    for (name, trace), (result, info, errors) in tiny_runs.items():
        assert result["correct"], (name, trace, errors[:3])
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        assert info["workload"] == name
        assert info["nproc"] >= 1
        for metric in result["metrics"].values():
            assert metric["value"] == metric["value"]  # not NaN


def test_emitted_names_match_benchmark_json(tiny_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == \
        {"adhoc", "dashboard", "offload"}
    for (name, trace), (result, _info, _errors) in tiny_runs.items():
        want = per_layer if trace else end_to_end
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_load_stays_within_nproc(tiny_runs):
    for (name, _trace), (_result, info, _errors) in tiny_runs.items():
        assert info["child_processes"] <= info["nproc"], name


def test_gate_trips_on_a_wrong_backend():
    from repro.engine.backends import MemoryBackend, register_backend

    class OffByOne(MemoryBackend):
        name = "bench-off-by-one"

        def run(self, query, plan, function, strict_types, steps):
            rows, path = super().run(query, plan, function, strict_types,
                                     steps)
            group, raw = rows[0]
            return [(group, raw + 1)] + rows[1:], path

    register_backend(OffByOne(), replace=True)
    workload = make("offload", SEED, None,
                    {"sharded_backend": "bench-off-by-one"})
    result, _info, errors = run(workload, SECONDS, 0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("memory backend" in e for e in errors)


@pytest.mark.parametrize("breakage", ["raise", "drop_row"])
def test_traced_pass_fails_when_a_wrapper_breaks_an_entry_point(
        monkeypatch, tiny_expected, breakage):
    """A traced answer that raises or differs from the untraced pass's
    counts in ``failed``, although the untraced pass was correct."""
    from harness.tracing import Tracer
    from repro.engine.query import Query

    wrap = Tracer._wrap

    def broken_wrap(self, layer, fn):
        traced = wrap(self, layer, fn)
        if fn is not Query.__dict__["execute"]:
            return traced

        def execute(*args, **kwargs):
            if breakage == "raise":
                raise RuntimeError("broken wrapper")
            return traced(*args, **kwargs)[1:]

        return execute

    monkeypatch.setattr(Tracer, "_wrap", broken_wrap)
    result, _info, errors = run(make("adhoc", SEED, tiny_expected),
                                SECONDS, 1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 2
    want = "broken wrapper" if breakage == "raise" else "traced answer"
    assert any(want in e for e in errors)


@pytest.mark.xfail(strict=True, reason=(
    "the result cache interns group values cache-wide and dimension "
    "values compare by surrogate only, so Age and diagnosis values "
    "with equal surrogates share one id and a hit can serve one under "
    "the other's label"))
def test_dashboard_hits_keep_their_labels(monkeypatch):
    """The dashboard gate compares hits, labels included, with a
    ``cache=False`` recompute; with an Age panel the engine's label
    mix-up shows."""
    age_panel = opspec.Op("read", (("Age", "Age"),), "SetCount")
    monkeypatch.setattr(opspec, "DASHBOARD_PANELS",
                        (age_panel,) + opspec.DASHBOARD_PANELS)
    result, _info, errors = run(make("dashboard", SEED, None), SECONDS, 0)
    assert result["correct"], errors[:3]


def test_adhoc_gate_trips_on_a_wrong_expected_answer(tiny_expected):
    wrong = dict(tiny_expected, answers={
        key: "0" * 16 for key in tiny_expected["answers"]})
    result, _info, errors = run(make("adhoc", SEED, wrong), SECONDS, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "!= expected 0000000000000000" in errors[0]


def test_same_seed_same_stream_and_digest(tiny_expected):
    labels = {"regions": ["R0", "R1"], "counties": ["C0.0"],
              "groups": ["G0"]}
    assert opspec.adhoc_cycle(5, labels) == opspec.adhoc_cycle(5, labels)
    assert opspec.adhoc_cycle(5, labels) != opspec.adhoc_cycle(6, labels)

    def head(stream, n=200):
        return [op.key for _, op in zip(range(n), stream)]

    assert head(opspec.offload_stream(5)) == head(opspec.offload_stream(5))
    assert head(opspec.offload_stream(5)) != head(opspec.offload_stream(6))
    dash = (300, ["L0", "L1"], ["A0"])
    assert head(opspec.dashboard_stream(5, *dash)) == \
        head(opspec.dashboard_stream(5, *dash))
    assert head(opspec.dashboard_stream(5, *dash)) != \
        head(opspec.dashboard_stream(6, *dash))

    for name in ("adhoc", "dashboard", "offload"):
        first = run(make(name, SEED, tiny_expected), SECONDS, 0)[1]
        again = run(make(name, SEED, tiny_expected), SECONDS, 0)[1]
        assert first["answer_digest"] == again["answer_digest"], name


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "adhoc", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
