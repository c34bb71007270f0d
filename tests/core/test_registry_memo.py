"""The registry's one-slot correlation memo is invisible.

``FingerprintRegistry.best_match`` remembers, per VG name, the correlations
of the target it was last asked about (rounds of one adaptive point ask
about the same target back to back). The memo may only ever save work:

* every answer equals the answer of a registry whose memo is emptied before
  each call — over generated fingerprint sets and request sequences with
  re-seeded fingerprints and ``clear`` mixed in;
* it saves exactly the ``correlate`` calls for (target, basis) pairs already
  seen since the slot was last dropped, and a slot is dropped by a new
  target for that VG name, by ``seed_fingerprint`` for that name and by
  ``clear`` — never by a request about another VG name.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import (
    CorrelationPolicy,
    Fingerprint,
    FingerprintRegistry,
    FingerprintSpec,
    compute_fingerprint,
)
from repro.core.fingerprint import registry as registry_module
from repro.vg.base import VGFunction

SPEC = FingerprintSpec(n_seeds=8)
POLICY = CorrelationPolicy(tolerance=1e-6)


class WindowedVG(VGFunction):
    """Identity outside a parameter-dependent window, noise inside it —
    so bases map a target partially, by how much their windows overlap."""

    name = "Windowed"
    n_components = 12
    arg_names = ("start", "width")

    def generate(self, seed, args):
        start, width = int(args[0]), int(args[1])
        rng = self.rng(seed, ())
        out = rng.normal(size=self.n_components)
        out[start : start + width] += rng.normal(size=self.n_components)[start : start + width]
        return out


class OtherWindowedVG(WindowedVG):
    name = "OtherWindowed"


FUNCTIONS = (WindowedVG(), OtherWindowedVG())
#: Every parameterization a request can name: five window starts, two widths
#: (width 0 is the unwindowed model, which every other one maps onto fully
#: outside its own window).
POOL = tuple((start, width) for width in (0, 3) for start in (0, 2, 4, 6, 8))
FINGERPRINTS = {
    (vg.name, args): compute_fingerprint(vg, args, SPEC) for vg in FUNCTIONS for args in POOL
}


def _registry() -> FingerprintRegistry:
    registry = FingerprintRegistry(SPEC, POLICY)
    for fingerprint in FINGERPRINTS.values():
        registry.seed_fingerprint(fingerprint)
    return registry


class _CountedCorrelate:
    """``correlate`` with a log of the (vg name, basis args) it was run on."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, tuple]] = []
        self._real = registry_module.correlate

    def __call__(self, basis, target, policy):
        self.calls.append((basis.vg_name, basis.args))
        return self._real(basis, target, policy)

    def drain(self) -> list[tuple[str, tuple]]:
        calls, self.calls = self.calls, []
        return calls


pool_index = st.integers(min_value=0, max_value=len(POOL) - 1)
vg_index = st.integers(min_value=0, max_value=len(FUNCTIONS) - 1)
requests = st.one_of(
    st.tuples(
        st.just("match"),
        vg_index,
        pool_index,
        st.lists(pool_index, max_size=8),
        st.sampled_from([0.0, 0.5, 0.9]),
    ),
    # Replace one fingerprint with another parameterization's probe matrix:
    # a memo that outlived this would answer from the replaced one.
    st.tuples(st.just("seed"), vg_index, pool_index, pool_index),
    st.tuples(st.just("clear")),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sequence=st.lists(requests, min_size=1, max_size=24))
def test_memo_changes_no_answer_and_saves_exactly_the_pairs_seen(sequence):
    memoized, forgetful = _registry(), _registry()
    seen: dict[str, tuple[tuple, set]] = {}  # the model: vg name -> (target, bases)
    counted = _CountedCorrelate()
    with mock.patch.object(registry_module, "correlate", counted):
        for request in sequence:
            if request[0] == "clear":
                for registry in (memoized, forgetful):
                    registry.clear()
                    for fingerprint in FINGERPRINTS.values():
                        registry.seed_fingerprint(fingerprint)
                seen.clear()
                continue
            function = FUNCTIONS[request[1]]
            if request[0] == "seed":
                replacement = Fingerprint(
                    vg_name=function.name,
                    args=POOL[request[2]],
                    matrix=FINGERPRINTS[function.name, POOL[request[3]]].matrix,
                    spec=SPEC,
                )
                memoized.seed_fingerprint(replacement)
                forgetful.seed_fingerprint(replacement)
                seen.pop(function.name, None)
                continue
            _, _, target_index, candidate_indices, min_fraction = request
            target = POOL[target_index]
            candidates = [POOL[i] for i in candidate_indices]
            forgetful._recent.clear()
            expected = forgetful.best_match(function, target, candidates, min_fraction)
            visited = counted.drain()
            actual = memoized.best_match(function, target, candidates, min_fraction)
            paid = counted.drain()
            assert actual == expected
            if seen.get(function.name, (None,))[0] != target:
                seen[function.name] = (target, set())
            known = seen[function.name][1]
            # A basis named twice in one request is correlated once, then seen.
            owed = [pair for pair in dict.fromkeys(visited) if pair[1] not in known]
            assert paid == owed
            known.update(args for _, args in visited)


def test_each_way_a_slot_is_kept_and_dropped():
    registry = _registry()
    windowed, other = FUNCTIONS
    counted = _CountedCorrelate()

    def cost(function, target, candidates):
        registry.best_match(function, target, candidates)
        return len(counted.drain())

    with mock.patch.object(registry_module, "correlate", counted):
        bases = [(0, 3), (2, 3), (6, 3)]
        assert cost(windowed, (4, 3), bases) == 3
        assert cost(windowed, (4, 3), bases) == 0  # the question just answered
        assert cost(windowed, (4, 3), bases[:2]) == 0  # a subset of it
        assert cost(windowed, (4, 3), bases + [(8, 3)]) == 1  # one new basis
        assert cost(other, (4, 3), bases) == 3  # another VG name: its own slot...
        assert cost(windowed, (4, 3), bases) == 0  # ...which evicted nothing
        assert cost(other, (4, 3), bases) == 0
        assert cost(windowed, (8, 3), bases) == 3  # a new target takes the slot
        assert cost(windowed, (4, 3), bases) == 3  # so the old one pays again
        registry.seed_fingerprint(FINGERPRINTS["Windowed", (2, 3)])
        assert cost(windowed, (4, 3), bases) == 3  # re-seeded: nothing trusted
        assert cost(other, (4, 3), bases) == 0  # the other name was not touched
        registry.clear()
        for fingerprint in FINGERPRINTS.values():
            registry.seed_fingerprint(fingerprint)
        assert cost(other, (4, 3), bases) == 3
