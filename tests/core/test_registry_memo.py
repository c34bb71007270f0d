"""The registry's one-slot correlation memo is invisible.

``FingerprintRegistry.best_match`` remembers, per VG name, the correlations
of the target it was last asked about (rounds of one adaptive point ask
about the same target back to back). The memo may only ever save work:

* every answer equals the answer of a registry whose memo is emptied before
  each call — over generated fingerprint sets and request sequences with
  re-seeded fingerprints and ``clear`` mixed in;
* each call makes at most one stacked ``correlate_many`` pass, and that pass
  ladders exactly the offered (target, basis) pairs not seen since the slot
  was last dropped — every offered basis, a full map early in the order
  included; a slot is dropped by a new target for that VG name, by
  ``seed_fingerprint`` for that name and by ``clear`` — never by a request
  about another VG name.
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


class _CountedLadder:
    """``correlate_many`` with a log of the (vg name, target, basis) pairs
    each stacked pass laddered."""

    def __init__(self) -> None:
        self.passes: list[list[tuple[str, tuple, tuple]]] = []
        self._real = registry_module.correlate_many

    def __call__(self, bases, target, policy):
        self.passes.append([(basis.vg_name, target.args, basis.args) for basis in bases])
        return self._real(bases, target, policy)

    def drain(self) -> list[tuple[str, tuple, tuple]]:
        """The pairs laddered since the last drain; at most one pass."""
        passes, self.passes = self.passes, []
        assert len(passes) <= 1, f"{len(passes)} passes for one best_match"
        return [pair for laddered in passes for pair in laddered]


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
    counted = _CountedLadder()
    with mock.patch.object(registry_module, "correlate_many", counted):
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
            # Every pool entry has a fingerprint, so every offered basis but
            # the target itself is laddered; one named twice, once.
            offered = [
                (function.name, target, args)
                for args in dict.fromkeys(candidates)
                if args != target
            ]
            forgetful._recent.clear()
            expected = forgetful.best_match(function, target, candidates, min_fraction)
            assert counted.drain() == offered
            actual = memoized.best_match(function, target, candidates, min_fraction)
            paid = counted.drain()
            assert actual == expected
            if seen.get(function.name, (None,))[0] != target:
                seen[function.name] = (target, set())
            known = seen[function.name][1]
            assert paid == [pair for pair in offered if pair[2] not in known]
            known.update(args for _, _, args in offered)


def test_each_way_a_slot_is_kept_and_dropped():
    registry = _registry()
    windowed, other = FUNCTIONS
    counted = _CountedLadder()

    def cost(function, target, candidates):
        registry.best_match(function, target, candidates)
        return len(counted.drain())

    with mock.patch.object(registry_module, "correlate_many", counted):
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
        # A full map first in the order spares nothing else in the pass.
        outcome = registry.best_match(other, (0, 0), [(2, 0), (4, 3)])
        assert outcome.basis_args == (2, 0) and outcome.mapped_fraction == 1.0
        assert len(counted.drain()) == 2
