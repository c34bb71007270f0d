#!/usr/bin/env python
"""Compare two ledger result documents, metric by metric.

    python benchmarks/ledger/compare.py A.json B.json

``A`` is the base (parent commit, or the first of two sets of the same
code), ``B`` the candidate. For every workload — one block each — and every
end-to-end metric native to it, prints both medians, the ratio with its
base, and a verdict using the bounds frozen in ``BENCHMARK.json``:

* ``improved`` / ``regressed`` — the median moved past the bound (for
  ``setup_s`` and ``refresh_revisit_ms_p50``, also past an absolute floor);
* ``within bound`` — it did not;
* ``unresolved`` — the spread of either side (interquartile distance over
  the median) exceeds the bound, so the run cannot tell; never read this as
  "unchanged";
* ``worlds_spent_frac`` and ``failed_frac`` are exact: any rise regresses.

Per-layer counters that differ are listed for information. Exit status is
non-zero when any metric regressed or ``failed_frac`` rose.
"""

from __future__ import annotations

import json
import sys
from typing import Any

import metrics

#: Per-layer units that are counted (repeat exactly), not measured.
COUNTED_UNITS = ("count", "B")


def verdict(
    base: dict[str, float], new: dict[str, float], better: str, bound: float, floor: float
) -> str:
    """The verdict for one (workload, metric) pair."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - base["median"])  # > 0: got worse
    if bound == 0.0:  # exact metrics
        return "regressed" if worse_by > 0 else "improved" if worse_by < 0 else "equal"
    if max(metrics.spread(base), metrics.spread(new)) > bound:
        return "unresolved"
    allowed = max(bound * abs(base["median"]), floor)
    if worse_by > allowed:
        return "regressed"
    return "improved" if -worse_by > allowed else "within bound"


def compare(a: dict[str, Any], b: dict[str, Any], bench: dict[str, Any]) -> int:
    declared = {m["name"]: m for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    regressions = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        base_entry, new_entry = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name}")
        for metric, extra in metrics.END_TO_END.items():
            if name not in extra["on"]:
                continue
            info = declared.get(metric, extra)
            base = base_entry["end_to_end"][metric]
            new = new_entry["end_to_end"][metric]
            outcome = verdict(
                base, new, info["better"], info.get("bound", 0.0), extra.get("floor", 0.0)
            )
            regressions += outcome == "regressed"
            if base["median"]:
                ratio = new["median"] / base["median"]
            else:  # 0 -> 0 is "unchanged"; 0 -> anything has no ratio
                ratio = 1.0 if new["median"] == 0 else float("inf")
            print(
                f"  {metric:<24} {outcome:<13} new/base = {ratio:.3f}"
                f" (base {base['median']:.4f} {info['unit']}, new {new['median']:.4f};"
                f" spread {metrics.spread(base):.1%} / {metrics.spread(new):.1%},"
                f" bound {info.get('bound', 0.0):.0%}, n {base['n']}/{new['n']})"
            )
        base_layers = base_entry.get("per_layer", {})
        new_layers = new_entry.get("per_layer", {})
        for metric, value in base_layers.items():
            if (
                layer_units.get(metric) in COUNTED_UNITS
                and metric in new_layers
                and new_layers[metric] != value
            ):
                print(f"  counter {metric}: {value:g} -> {new_layers[metric]:g}")
    return regressions


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    regressions = compare(documents[0], documents[1], metrics.load_benchmark())
    print(f"\n{regressions} regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
