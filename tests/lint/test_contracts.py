"""The static contracts hold over ``src/repro``, and every check can fail.

Determinism (DET): no clock read and no unseeded generator outside
``repro.obs``, the one package that exists to measure — results and
scheduling are pure functions of the seed and the statistics. Taxonomy
(ERR): ``repro.serve`` raises only ``repro.errors`` classes, which the
retry ladder routes on. Worker purity (PUR001/002): worker-shipped
modules hold no mutable module state and ship only frozen dataclasses.
One request normaliser (REQ): nothing in ``repro.serve`` or ``repro.api``
validates a point, checks world ids or builds a request key — the engine's
``request`` does, once, and the layers above pass its ``Request`` on.
A site may break a check only through a key in ``contracts.EXEMPT``,
and a key that matches no site fails as stale.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

import contracts as c

TREE = {
    "DET001": (c.wall_clock, ("",), ("obs",)),
    "DET002": (c.unseeded_random, ("",), ("obs",)),
    "ERR": (c.untyped_raises, ("serve",), ()),
    "PUR001": (c.module_state, c.WORKER, ()),
    "PUR002": (c.unfrozen_dataclasses, c.WORKER, ()),
    "REQ": (c.request_normalisers, ("serve", "api"), ()),
}


@functools.cache
def tree_sites() -> tuple[tuple[str, tuple[str, str], int], ...]:
    """``(family, (path, scope), line)`` for every site in the tree."""
    sites = []
    for family, (check, names, skipped) in TREE.items():
        skip = set(c.modules(*skipped))
        for path in c.modules(*names):
            if path not in skip:
                rel = path.relative_to(c.SRC.parent).as_posix()
                sites += [(family, (rel, s), line) for line, s in check(path.read_text())]
    return tuple(sites)


def stale(exempt: dict) -> list[tuple[str, str]]:
    return sorted(set(exempt) - {key for _, key, _ in tree_sites()})


@pytest.mark.parametrize("family", sorted(TREE))
def test_src_keeps_the_contract(family):
    assert [
        f"{path}:{line} ({scope})"
        for name, (path, scope), line in tree_sites()
        if name == family and (path, scope) not in c.EXEMPT
    ] == []


def test_every_exemption_still_matches_a_site():
    assert stale(c.EXEMPT) == []


Loose = dataclasses.make_dataclass("Loose", [("n", int, 1)])
Tight = dataclasses.make_dataclass("Tight", [("n", int, 1)], frozen=True)

PLANTED = {
    "DET001": (c.wall_clock, "import time\nx = time.perf_counter()\n"),
    "DET002": (c.unseeded_random, "import numpy as np\nrng = np.random.default_rng()\n"),
    "ERR": (c.untyped_raises, "def f():\n    raise RuntimeError('boom')\n"),
    "PUR001": (c.module_state, "CACHE = {}\n"),
    "PUR002": (c.unfrozen_dataclasses, "@dataclass\nclass Task:\n    x: int\n"),
    "REQ": (c.request_normalisers, "def f(engine, p):\n    return engine.scenario.validate_sweep_point(p)\n"),
    "PUR003": (
        lambda source: c.forbidden_imports(source, c.COORDINATOR),
        "def f():\n    from repro.serve.scheduler import Scheduler\n",
    ),
    "CFG frozen": (c.unfrozen_sections, {"loose": Loose}),
    "SRF drift": (lambda names: c.surface_drift(names, ("A", "B")), ["A", "C"]),
    "STAT": (c.timing_keys, {"service": {"shard_tasks": 4, "wall_seconds": 0.5}}),
    "stale exemption": (stale, {("repro/cli.py", "command_gone"): "fixed"}),
}


@pytest.mark.parametrize("family", sorted(PLANTED))
def test_each_check_reports_its_planted_violation(family):
    check, planted = PLANTED[family]
    assert len(check(planted)) == 1


#: Further inputs per family with the number of sites the check must
#: report: the other forms a violation takes, and lookalikes that are fine.
CASES = {
    "DET001": [("time.time()", 1), ("time.monotonic_ns()", 1), ("datetime.datetime.now()", 1),
               ("datetime.date.today()", 1), ("time.sleep(0.01)", 0), ("t = clock.time", 0),
               ("datetime.timedelta(seconds=1)", 0)],
    "DET002": [("random.random()", 1), ("random.Random()", 1), ("random.shuffle(xs)", 1),
               ("np.random.rand(3)", 1), ("np.random.SeedSequence()", 1),
               ("random.Random(42)", 0), ("np.random.default_rng(7)", 0),
               ("np.random.SeedSequence(entropy=5)", 0), ("rng.random()", 0)],
    "ERR": [("raise ValueError('bad')", 1), ("raise KeyError(k) from None", 1),
            ("raise ServeError('x')", 0), ("raise repro.errors.TaskTimeoutError(1)", 0),
            ("class Planned(Exception):\n    pass\nraise Planned('x')", 0),
            ("try:\n    g()\nexcept Exception as err:\n    raise", 0), ("raise err", 0)],
    "PUR001": [("CACHE = defaultdict(list)", 1), ("SEEN: set[int] = set()", 1),
               ("ITEMS = [x for x in range(3)]", 1),
               ("STATE = None\ndef put(v):\n    global STATE\n    STATE = v", 1),
               ("__all__ = ['a', 'b']", 0), ("NAMES = ('a', 'b')\nLIMIT = 3", 0),
               ("NAMES = frozenset({'a'})", 0), ("def f():\n    cache = {}", 0)],
    "PUR002": [("@dataclasses.dataclass(order=True)\nclass T:\n    x: int", 1),
               ("@dataclass(frozen=False)\nclass T:\n    x: int", 1),
               ("@dataclass(frozen=True)\nclass T:\n    x: int", 0),
               ("@dataclasses.dataclass(frozen=True, slots=True)\nclass T:\n    x: int", 0),
               ("class T:\n    x: int", 0)],
    "PUR003": [("from repro.serve.scheduler import Scheduler", 1), ("import repro.api", 1),
               ("from repro import api", 1), ("from repro.serve import scheduler", 1),
               ("import repro.obs.trace as trace", 1), ("from repro.serve import transport", 0),
               ("from repro.core.engine import ProphetEngine", 0), ("from . import faults", 0)],
    "REQ": [("world_ids(worlds)", 1), ("key = space.point_key(p)", 1),
            ("self.scenario.validate_sweep_point(p)", 1), ("engine.request(p, worlds)", 0),
            ("validated = request.point", 0), ("check = scenario.validate_sweep_point", 0),
            ("handlers[0](p)", 0)],
    "CFG frozen": [({"tight": Tight}, 0), ({"tight": Tight, "loose": Loose}, 1)],
    "SRF drift": [(["A", "B"], 0), (["B", "A"], 2), (["A", "A", "B"], 2), (["A"], 1),
                  (["A", "B", "C"], 1)],
    "STAT": [({"shard_tasks": 4, "segments_leased": 2}, 0), ({"performance": 1}, 0),
             ({"rounds": [{"n": 1, "duration_ms": 3}]}, 1), ({"Wall_Time": 1}, 1),
             ({"elapsed_seconds": 1, "perf": {"timing": 2}}, 3)],
    "stale exemption": [(dict(list(c.EXEMPT.items())[:1]), 0)],
}


@pytest.mark.parametrize(
    ("family", "given", "sites"),
    [(family, given, sites) for family, cases in CASES.items() for given, sites in cases],
)
def test_each_check_counts_every_form_and_spares_lookalikes(family, given, sites):
    assert len(PLANTED[family][0](given)) == sites
