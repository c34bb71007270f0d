"""The Guide (paper Figure 1, stage 1).

The Guide directs scenario evaluation by producing the sequence of instance
batches to evaluate — each batch is one parameter point with its Monte Carlo
worlds. Strategies:

* :class:`GridGuide` — exhaustive sweep of the parameter grid (offline mode).
* :class:`PriorityGuide` — evaluate an explicit target first, then proactive
  neighbors (online mode: the user's slider position is urgent; adjacent
  slider positions are speculatively explored, which is what the demo GUI's
  "values proactively being explored anticipating their future usage" grid
  shows).

The per-point world ladder lives in :class:`repro.core.rounds.RoundPlan`
(the round protocol).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.core.instance import InstanceBatch
from repro.core.parameters import ParameterSpace
from repro.core.rounds import RoundPlan
from repro.errors import ScenarioError


class GridGuide:
    """Sweep every point of the (axis-excluded) parameter grid in order."""

    def __init__(
        self, space: ParameterSpace, axis: str, plan: RoundPlan, base_seed: int
    ) -> None:
        self.space = space
        self.axis = axis.lstrip("@").lower()
        self.plan = plan
        self.base_seed = base_seed

    def batches(self) -> Iterator[InstanceBatch]:
        worlds = range(self.plan.n_worlds)
        for point in self.space.grid(exclude=[self.axis]):
            yield InstanceBatch.at_point(point, worlds, self.base_seed)

    def total_points(self) -> int:
        return self.space.grid_size(exclude=[self.axis])


class PriorityGuide:
    """Target point first, then its neighbors along each parameter axis.

    ``neighbor_depth`` controls how far the proactive ring extends (1 means
    immediate slider neighbors).
    """

    def __init__(
        self,
        space: ParameterSpace,
        axis: str,
        plan: RoundPlan,
        base_seed: int,
        neighbor_depth: int = 1,
    ) -> None:
        if neighbor_depth < 0:
            raise ScenarioError(f"neighbor_depth must be >= 0, got {neighbor_depth}")
        self.space = space
        self.axis = axis.lstrip("@").lower()
        self.plan = plan
        self.base_seed = base_seed
        self.neighbor_depth = neighbor_depth

    def target_batch(self, point: Mapping[str, Any]) -> InstanceBatch:
        validated = self._validated(point)
        return InstanceBatch.at_point(validated, range(self.plan.n_worlds), self.base_seed)

    def proactive_points(self, point: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Points to explore speculatively around ``point``.

        One-parameter-at-a-time perturbations up to ``neighbor_depth`` steps,
        de-duplicated, nearest first.
        """
        validated = self._validated(point)
        frontier: list[dict[str, Any]] = []
        seen: set[tuple] = {self.space.without(self.axis).point_key(validated)}
        sweep_space = self.space.without(self.axis)
        current_ring = [validated]
        for _ in range(self.neighbor_depth):
            next_ring: list[dict[str, Any]] = []
            for base in current_ring:
                for parameter in sweep_space:
                    for neighbor_value in parameter.neighbors(base[parameter.name.lower()]):
                        candidate = dict(base)
                        candidate[parameter.name.lower()] = neighbor_value
                        key = sweep_space.point_key(candidate)
                        if key in seen:
                            continue
                        seen.add(key)
                        next_ring.append(candidate)
            frontier.extend(next_ring)
            current_ring = next_ring
        return frontier

    def proactive_batches(
        self, point: Mapping[str, Any], worlds: Sequence[int] | None = None
    ) -> Iterator[InstanceBatch]:
        chosen = range(self.plan.first) if worlds is None else worlds
        for candidate in self.proactive_points(point):
            yield InstanceBatch.at_point(candidate, chosen, self.base_seed)

    def _validated(self, point: Mapping[str, Any]) -> dict[str, Any]:
        sweep_space = self.space.without(self.axis)
        return sweep_space.validate_point(
            {k: v for k, v in point.items() if k.lstrip("@").lower() != self.axis}
        )
