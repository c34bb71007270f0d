"""Tier-1 checks of the ledger harness itself (collected by plain ``pytest``)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402  (sys.path bootstrap above)
import compare  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_is_duration_minus_child_cover():
    tree = [
        ["root", 0.0, 10.0, -1, 0, False],
        ["a", 1.0, 4.0, 0, 0, False],
        ["a.inner", 2.0, 3.0, 1, 0, False],
        ["b", 6.0, 9.0, 0, 0, False],
        ["in flight", 0.5, 20.0, 0, 0, True],  # ran beside root: not its child time
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 1.0, 3.0, 19.5]
    table = spans.summarise(tree, lambda span: not span[spans.ASYNC])
    assert sum(row["self_s"] for row in table.values()) == table["root"]["total_s"]


def test_pacer_takes_its_samples_out_and_restates_at_reference_speed():
    pacer = calibrate.Pacer()
    # a sample of 0.01 s wall ends every 0.25 s up to t = 4; the host is at
    # reference speed up to t = 2 and twice as slow after
    reference = calibrate.REFERENCE_KERNEL_S
    pacer.ends = [0.25 * k for k in range(1, 17)]
    pacer.paused_total = [0.01 * k for k in range(1, 17)]
    pacer.cpu_s = [reference] * 8 + [2 * reference] * 8
    assert pacer.paused(0.0, 4.0) == pytest.approx(0.16)
    assert pacer.paused(1.1, 1.6) == pytest.approx(0.02)  # those ending at 1.25 and 1.5
    assert pacer.paused(2.05, 2.2) == 0.0
    assert pacer.slowdown(0.0, 4.0) == pytest.approx(1.5)
    assert pacer.slowdown(1.0, 1.1) == pytest.approx(1.0)  # samples within 0.5 s
    assert pacer.slowdown(3.0, 3.2) == pytest.approx(2.0)
    assert pacer.slowdown(9.0, 9.1) == pytest.approx(2.0)  # none near: the last few
    assert pacer.restated(3.0, 4.0) == pytest.approx((1.0 - 0.04) / 2.0)


def test_pacer_samples_inside_a_blocking_call_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    recorder = spans.Recorder()
    pacer = calibrate.Pacer(recorder).start()
    try:
        outer = recorder.open("blocking")
        began = time.perf_counter()
        while time.perf_counter() - began < 0.3:
            sum(range(1000))
        ended = time.perf_counter()
        recorder.close(outer)
    finally:
        pacer.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [s for s in recorder.spans if s[spans.NAME] == "bench:pacer" and s[spans.PARENT] == outer]
    assert len(inside) >= 3  # 25 Hz for 0.3 s
    assert 0.0 < pacer.paused(began, ended) < 0.15
    assert 0.2 < pacer.slowdown(began, ended) < 5.0
    # the samples count towards no other span's self time
    table = spans.summarise(recorder.spans)
    assert table["blocking"]["self_s"] == pytest.approx(
        ended - began - pacer.paused(began, ended), abs=0.01
    )


def test_wrappers_are_removed_when_the_workload_raises():
    from repro.core.rounds import max_ci_halfwidth
    from repro.core.storage import StorageManager
    import repro.core.engine as engine_module

    before = vars(StorageManager)["acquire"]
    with pytest.raises(RuntimeError):
        with spans.Instrumentation(spans.Recorder()):
            assert vars(StorageManager)["acquire"] is not before
            assert engine_module.max_ci_halfwidth is not max_ci_halfwidth
            raise RuntimeError("workload failed")
    assert vars(StorageManager)["acquire"] is before
    assert engine_module.max_ci_halfwidth is max_ci_halfwidth


def test_walk_is_deterministic_and_ends_on_the_220th_new_point():
    shape = (14, 14, 3)
    moves = workloads.slider_walk(3, shape, 220)
    assert moves == workloads.slider_walk(3, shape, 220)
    assert moves != workloads.slider_walk(4, shape, 220)
    assert sum(is_new for _, is_new in moves) == 220
    assert moves[-1][1]  # the walk stops on the move that reached it
    assert moves[0] == ((7, 7, 1), True)
    seen = set()
    for index, (position, is_new) in enumerate(moves):
        assert all(0 <= p < n for p, n in zip(position, shape))
        assert is_new == (position not in seen)
        seen.add(position)
        if index:
            previous = moves[index - 1][0]
            step = sum(abs(p - q) for p, q in zip(position, previous))
            recent = [m[0] for m in moves[max(0, index - workloads.WALK_RECENT):index]]
            assert step == 1 or position in recent
    assert len(seen) == 220


def test_percentile_rule_needs_ten_samples_beyond():
    assert metrics.supported_percentile(220) == 95  # 11 beyond
    assert metrics.supported_percentile(199) == 90
    assert metrics.supported_percentile(20) == 50
    assert metrics.supported_percentile(19) == 0
    assert metrics.percentile(range(1, 101), 95) == 95
    assert metrics.percentile([5.0], 95) == 5.0


def test_compare_verdicts():
    def stats(median, q1=None, q3=None):
        return {"median": median, "q1": q1 or median, "q3": q3 or median, "min": median, "n": 5}

    assert compare.verdict(stats(100), stats(104), "higher", 0.10, 0.0) == "within bound"
    assert compare.verdict(stats(100), stats(85), "higher", 0.10, 0.0) == "regressed"
    assert compare.verdict(stats(100), stats(120), "higher", 0.10, 0.0) == "improved"
    assert compare.verdict(stats(100, 90, 110), stats(85), "higher", 0.10, 0.0) == "unresolved"
    assert compare.verdict(stats(0.10), stats(0.12), "lower", 0.15, 0.0) == "regressed"
    assert compare.verdict(stats(0.10), stats(0.12), "lower", 0.15, 0.03) == "within bound"
    assert compare.verdict(stats(0.4), stats(0.41), "lower", 0.0, 0.0) == "regressed"
    assert compare.verdict(stats(0.4), stats(0.4), "lower", 0.0, 0.0) == "equal"


def test_output_check_catches_perturbed_digests_leaks_and_live_children(monkeypatch):
    import run

    def record(op_digests, **extra):
        return {
            "op_digests": op_digests, "digest": workloads.combined_digest(op_digests),
            "segments_leaked": 0, "live_children": 0, **extra,
        }

    good = ["a", "b", "c", "d", "e"]
    monkeypatch.setattr(run, "run_child", lambda *args: record(good))
    assert run.check_outputs("grid_reuse", 0, True, [record(good)] * 2) == (
        [], "reference replay"
    )
    problems, _ = run.check_outputs("grid_reuse", 0, True, [record(["a", "b", "X", "d", "e"])])
    assert problems == ["grid_reuse: outputs differ from the reference replay"]
    problems, _ = run.check_outputs("grid_reuse", 0, True, [record(good), record(good[::-1])])
    assert any("repeats disagree" in p for p in problems)
    problems, _ = run.check_outputs(
        "fresh_fanout", 0, True, [record(good, segments_leaked=1, live_children=1)]
    )
    assert any("leaked" in p for p in problems) and any("alive" in p for p in problems)
    # the fanout replay covers every 4th point
    monkeypatch.setattr(run, "run_child", lambda *args: record(["a", "e"]))
    assert run.check_outputs("fresh_fanout", 0, True, [record(good)])[0] == []


def test_benchmark_json_meets_the_contract():
    bench = metrics.load_benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["benchmarks/ledger"]
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_smoke_run_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text(encoding="utf-8"))
    bench = metrics.load_benchmark()
    assert document["problems"] == []
    assert set(document["workloads"]) == {w["name"] for w in bench["workloads"]}
    assert set(workloads.WORKLOADS) == set(document["workloads"])
    gated = {n for n, extra in metrics.END_TO_END.items() if extra.get("gated", True)}
    assert gated == {m["name"] for m in bench["end_to_end"]}
    for name, entry in document["workloads"].items():
        assert set(entry["end_to_end"]) == set(metrics.END_TO_END), name
        assert set(entry["per_layer"]) == {m["name"] for m in bench["per_layer"]}, name
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert entry["accounted_share"] >= 0.9
        assert all(stats["median"] > 0 for metric, stats in entry["end_to_end"].items()
                   if metric in gated), name
    for key in ("nproc", "python", "numpy", "commit", "seed", "loadavg_start", "loadavg_end"):
        assert key in document["meta"]
    fanout = document["workloads"]["fresh_fanout"]["per_layer"]
    assert fanout["serve.transport.segments_leased"] > 0
    assert fanout["serve.transport.segments_leaked"] == 0
    # every declared metric was printed by name with its unit
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert re.search(
            rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b",
            done.stdout, re.M,
        ), metric["name"]
