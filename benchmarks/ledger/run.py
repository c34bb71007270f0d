#!/usr/bin/env python
"""The perf ledger: one command, every named metric, outputs checked.

Ledger mode (people)::

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed 0] [--repeats 5]
        [--workload NAME] [--out FILE] [--smoke]

runs every workload ``--repeats`` times — each repeat in a fresh process,
repeats interleaved round-robin across workloads so host drift hits all of
them alike — then one traced pass and one tracer-on pass per workload,
checks the outputs, prints every end-to-end and per-layer metric by name
with its unit, and writes one result document.

Benchmark mode (the driver named in ``BENCHMARK.json``)::

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for about ``S`` seconds and prints, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).

Every timing is restated at a reference host speed (``calibrate.py``): the
shared host this runs on changes speed by a third from minute to minute.

Exit status is non-zero on a digest mismatch, a leaked shm segment, a live
child after ``close()``, or a harness failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402  (sys.path bootstrap above)
import workloads  # noqa: E402

OUT_DIR = HERE / "out"
DIGESTS_JSON = HERE / "digests.json"
CHILD_TIMEOUT_S = 170
#: The one workload that gets an extra repeat with the program's own tracer on.
OBS_WORKLOAD = "grid_reuse"


# -- the child: one repeat in this process ------------------------------------


def child_main(spec: dict[str, Any]) -> None:
    """Run one repeat as told by the parent; print its record as JSON."""
    import spans

    recorder = spans.Recorder() if spec["mode"] == "traced" else None
    with spans.Instrumentation(recorder) if recorder else contextlib.nullcontext():
        record = workloads.run_repeat(
            spec["workload"], spec["seed"], mode=spec["mode"], smoke=spec["smoke"],
            spawned_at=spec["spawned_at"], recorder=recorder,
        )
    if recorder is not None:
        recorded = recorder.spans
        timed_from = next(s[spans.START] for s in recorded if s[spans.NAME] == "api:timed")
        # Span times are restated like every other timing: one slowdown for
        # the timed section, one for set-up.
        record["spans"] = spans.summarise(
            recorded, lambda s: s[spans.START] >= timed_from, record["slowdown"]
        )
        record["setup_spans"] = spans.summarise(
            recorded, lambda s: s[spans.START] < timed_from, record["setup_slowdown"]
        )
        record["span_count"] = len(recorded)
        record["tallies"] = recorder.tallies
        spans.write_chrome_trace(
            recorded, str(OUT_DIR / f"trace-{spec['workload']}-seed{spec['seed']}.json")
        )
    print(json.dumps(record))


def run_child(name: str, seed: int, mode: str, smoke: bool) -> dict[str, Any]:
    """One repeat in a fresh process (its own session, so a hung repeat and
    any worker it started can be killed together)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spec = {
        "workload": name, "seed": seed, "mode": mode, "smoke": smoke,
        "spawned_at": time.time(),
    }
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", f"timed out after {CHILD_TIMEOUT_S}s"
    finally:
        try:  # the repeat's whole process group, workers included
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"{name} ({mode}) repeat failed:\n{stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


# -- correctness --------------------------------------------------------------


def recorded_digest(name: str, seed: int, smoke: bool) -> Optional[str]:
    """The digest on file for (workload, seed) at full size, if any."""
    if smoke or not DIGESTS_JSON.exists():
        return None
    recorded = json.loads(DIGESTS_JSON.read_text(encoding="utf-8"))
    return recorded.get(name, {}).get(str(workloads.input_seed(name, seed)))


def check_outputs(
    name: str, seed: int, smoke: bool, records: list[dict[str, Any]]
) -> tuple[list[str], str]:
    """Problems found in one workload's repeats, and which check passed.

    All repeats must produce one digest; it must equal the digest recorded
    for (workload, seed), else — unknown seed, or e.g. a different SIMD
    path — that of one untimed replay through the reference configuration
    (same calls, per-world ``loop`` sampling, no serve or transport).
    """
    problems = []
    digests = {r["digest"] for r in records}
    if len(digests) != 1:
        problems.append(f"{name}: repeats disagree on outputs: {sorted(digests)}")
    for record in records:
        if record["segments_leaked"]:
            problems.append(f"{name}: {record['segments_leaked']} shm segment(s) leaked")
        if record["live_children"]:
            problems.append(f"{name}: {record['live_children']} child(ren) alive after close()")
    if recorded_digest(name, seed, smoke) == records[0]["digest"]:
        return problems, "recorded digest"
    reference = run_child(name, seed, "reference", smoke)
    step = workloads.FANOUT_REFERENCE_STEP if name == "fresh_fanout" else 1
    if records[0]["op_digests"][::step] != reference["op_digests"]:
        problems.append(f"{name}: outputs differ from the reference replay")
    return problems, "reference replay"


# -- running and reporting ----------------------------------------------------


def collect(args: argparse.Namespace, names: list[str]) -> dict[str, dict[str, Any]]:
    """Run the planned repeats; returns the raw records per workload.

    Ledger mode runs ``--repeats`` rounds. Benchmark mode fits the whole run
    into about ``--seconds``: the untimed passes still to come (traced,
    tracer-on, reference replay) are each priced at one repeat, and timed
    repeats continue while another one fits — at least 3 of them, 2 when
    tracing.
    """
    runs: dict[str, dict[str, Any]] = {n: {"timed": []} for n in names}
    extras = 0
    if args.seconds is not None:
        extras = (1 + (names[0] == OBS_WORKLOAD) if args.trace else 0) + (
            recorded_digest(names[0], args.seed, args.smoke) is None
        )
    least = args.repeats if args.seconds is None else (2 if args.trace else 3)
    started = time.perf_counter()
    rounds, slowest = 0, 0.0
    while rounds < least or (
        args.seconds is not None
        and time.perf_counter() - started + slowest * (1 + extras) <= args.seconds
    ):
        for name in names:  # round-robin: drift hits every workload alike
            before = time.perf_counter()
            runs[name]["timed"].append(run_child(name, args.seed, "timed", args.smoke))
            slowest = max(slowest, time.perf_counter() - before)
        rounds += 1
    if args.trace:
        for name in names:
            runs[name]["traced"] = run_child(name, args.seed, "traced", args.smoke)
            if name == OBS_WORKLOAD:
                runs[name]["obs"] = run_child(name, args.seed, "obs", args.smoke)
    return runs


def report_workload(name: str, run: dict[str, Any]) -> dict[str, Any]:
    """Summarise one workload's records into the result document's entry."""
    first = run["timed"][0]
    entry: dict[str, Any] = {
        "sizes": {k: first[k] for k in ("n_worlds", "operations")},
        "attempted": sum(r["operations"] for r in run["timed"]),
        "failed": sum(r["failed"] for r in run["timed"]),
        "digest": first["digest"],
        "end_to_end": metrics.end_to_end_table(run["timed"]),
        # What the pacer saw; every timing above and below is restated by it.
        "host": {
            key: metrics.summary([r[key] for r in run["timed"]])
            for key in ("slowdown", "raw_wall_s", "raw_setup_s", "platform_s")
        },
    }
    if name == "interactive_walk":
        entry["sizes"]["new_points"] = len(first["new_ms"])
        entry["sizes"]["revisits"] = len(first["revisit_ms"])
        entry["sizes"]["tail_percentile_supported"] = metrics.supported_percentile(
            len(first["new_ms"])
        )
    if "traced" in run:
        entry["per_layer"] = metrics.per_layer(run["timed"], run["traced"], run.get("obs"))
        entry["accounted_share"] = metrics.accounted_share(run["traced"])
    return entry


def print_workload(name: str, entry: dict[str, Any], bench: dict[str, Any]) -> None:
    declared = {m["name"]: m for m in bench["end_to_end"]}
    print(f"\n== {name}  {entry['sizes']}  check: {entry['check']}")
    host = entry["host"]
    print(
        f"  host slowdown x{host['slowdown']['median']:.3f}"
        f" (q1 {host['slowdown']['q1']:.3f}, q3 {host['slowdown']['q3']:.3f});"
        f" raw wall {host['raw_wall_s']['median']:.3f} s, raw set-up"
        f" {host['raw_setup_s']['median']:.3f} s after {host['platform_s']['median']:.3f} s"
        f" of platform start; timings below are restated at x1"
    )
    for metric, stats in entry["end_to_end"].items():
        info = declared.get(metric) or metrics.END_TO_END[metric]
        native = name in metrics.END_TO_END[metric]["on"]
        notes = []
        if not native:
            notes.append("stand-in")
        bound = info.get("bound")
        if bound is not None and stats["n"] >= 2 and metrics.spread(stats) > bound:
            notes.append(f"unresolved: spread {metrics.spread(stats):.1%} > bound {bound:.0%}")
        print(
            f"  {metric:<26} {stats['median']:>12.4f} {info['unit']:<9}"
            f" q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  min {stats['min']:.4f}"
            f"  n {stats['n']}" + ("  [" + "; ".join(notes) + "]" if notes else "")
        )
    if "per_layer" in entry:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"  -- per layer (traced pass; accounted {entry['accounted_share']:.1%} of traced wall)")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<42} {value:>16.6g} {units.get(metric, '?')}")


def environment(args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": args.seed,
        "repeats": args.repeats if args.seconds is None else None,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "loadavg_start": os.getloadavg(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true",
                        help="1 repeat at ~1/10 sizes; no bounds applied")
    parser.add_argument("--seconds", type=float,
                        help="benchmark mode: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child_main(json.loads(args.child))
        return 0
    if args.seconds is not None and args.workload is None:
        parser.error("--seconds needs --workload")
    if args.trace is None:
        args.trace = 0 if args.seconds is not None else 1
    if args.smoke:
        args.repeats = 1

    bench = metrics.load_benchmark()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    document: dict[str, Any] = {"meta": environment(args), "workloads": {}}
    runs = collect(args, names)
    problems: list[str] = []
    for name in names:
        records = runs[name]["timed"] + [
            runs[name][k] for k in ("traced", "obs") if k in runs[name]
        ]
        found, check = check_outputs(name, args.seed, args.smoke, records)
        problems.extend(found)
        entry = report_workload(name, runs[name])
        entry["check"] = check
        document["workloads"][name] = entry
        print_workload(name, entry, bench)
    document["meta"]["loadavg_end"] = os.getloadavg()
    document["problems"] = problems
    for problem in problems:
        print(f"FAILED CHECK: {problem}")

    out = args.out
    if out is None and args.seconds is None:
        out = OUT_DIR / ("ledger-smoke.json" if args.smoke else f"ledger-seed{args.seed}.json")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(document, indent=1, sort_keys=True), encoding="utf-8")
        print(f"\nresult document: {out}")

    if args.seconds is not None:
        entry = document["workloads"][args.workload]
        if args.trace:
            declared = bench["per_layer"]
            values = entry["per_layer"]
        else:
            declared = bench["end_to_end"]
            values = {m: s["median"] for m, s in entry["end_to_end"].items()}
        print(json.dumps({
            "correct": not problems,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared
            },
        }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
