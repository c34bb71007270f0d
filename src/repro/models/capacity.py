"""The capacity forecast model (paper §3.1).

*"The model accepts a set of hardware purchase dates, constructs
(stochastically) a series of events that modify the number of cores
available during a given week, and tracks the sum of all changes over the
course of the entire year."*

Weekly available CPU cores over one year:

* start from ``initial_capacity``;
* each of the two purchases delivers ``purchase_cores`` cores at week
  ``purchase_i + lag_i`` where ``lag_i`` is a random deployment lag — the
  paper's "nondeterministic date when new hardware comes online";
* every week, each failure class destroys a random number of cores
  (see :mod:`repro.models.failures`);
* capacity is the running sum of all changes.

Fingerprint behaviour across purchase-date changes (verified in tests):
failure histories are seed-determined and arg-independent, so weeks before
the earliest arrival and after the latest arrival map by **identity** /
**shift**, while weeks inside the arrival window are seed-dependently
different and stay **unmapped** — the window is exactly what must be
re-simulated when a slider moves.

:class:`MaintenanceWindowCapacityModel` is the stepped (Markov-chain)
variant used to demonstrate §2's Markovian shortcut estimators: failures
occur only inside scheduled maintenance windows, so the chain is
deterministic elsewhere and those regions can be skipped.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.models.failures import FailureClass, default_failure_classes, total_weekly_losses
from repro.vg.base import SteppedVGFunction, VGFunction, component_columns

WEEKS_PER_YEAR = 53


class CapacityModel(VGFunction):
    """Weekly available cores under a two-purchase schedule.

    SQL forms: ``CapacityModel(seed, t, purchase1, purchase2)`` and
    ``CapacityModelT(seed, purchase1, purchase2)``. With
    ``with_initial_arg=True`` a trailing ``initial`` argument overrides the
    starting capacity (used for the "different initial capacity" what-ifs of
    §3.3 — a pure **shift** in fingerprint terms).
    """

    arg_names = ("purchase1", "purchase2")

    def __init__(
        self,
        name: str = "CapacityModel",
        n_weeks: int = WEEKS_PER_YEAR,
        initial_capacity: float = 7000.0,
        purchase_cores: float = 1800.0,
        lag_choices: tuple[int, ...] = (2, 3, 4),
        lag_weights: tuple[float, ...] = (0.3, 0.5, 0.2),
        failure_classes: tuple[FailureClass, ...] | None = None,
        with_initial_arg: bool = False,
    ) -> None:
        if n_weeks < 1:
            raise VGFunctionError(f"n_weeks must be >= 1, got {n_weeks}")
        if purchase_cores < 0:
            raise VGFunctionError(f"purchase_cores must be >= 0, got {purchase_cores}")
        if len(lag_choices) != len(lag_weights) or not lag_choices:
            raise VGFunctionError("lag_choices and lag_weights must be non-empty and equal length")
        weights = np.asarray(lag_weights, dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise VGFunctionError("lag_weights must be non-negative and sum > 0")
        self.name = name
        self.n_components = int(n_weeks)
        self.arg_names = (
            ("purchase1", "purchase2", "initial")
            if with_initial_arg
            else ("purchase1", "purchase2")
        )
        self.initial_capacity = float(initial_capacity)
        self.purchase_cores = float(purchase_cores)
        self.lag_choices = tuple(int(c) for c in lag_choices)
        self.lag_weights = weights / weights.sum()
        self.failure_classes = (
            default_failure_classes() if failure_classes is None else tuple(failure_classes)
        )
        self.with_initial_arg = bool(with_initial_arg)
        super().__init__()

    # -- randomness (arg-independent draw order) -----------------------------------

    def _world_events(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Deployment lags (one per purchase) and weekly failure losses.

        Draw order is fixed and argument-independent, so one seed yields one
        failure history and one pair of lags under *any* purchase schedule.
        """
        rng = self.rng(seed, ())
        lags = rng.choice(self.lag_choices, size=2, p=self.lag_weights)
        losses = total_weekly_losses(self.failure_classes, rng, self.n_components)
        return lags.astype(int), losses

    def _split_args(self, args: tuple[Any, ...]) -> tuple[int, int, float]:
        if self.with_initial_arg:
            purchase1, purchase2, initial = args
        else:
            purchase1, purchase2 = args
            initial = self.initial_capacity
        return int(purchase1), int(purchase2), float(initial)

    # -- generation --------------------------------------------------------------

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        purchase1, purchase2, initial = self._split_args(args)
        lags, losses = self._world_events(seed)
        weeks = np.arange(self.n_components)
        arrivals = np.zeros(self.n_components, dtype=float)
        for purchase, lag in zip((purchase1, purchase2), lags):
            arrival_week = purchase + int(lag)
            if arrival_week < self.n_components:
                arrivals += np.where(weeks >= arrival_week, self.purchase_cores, 0.0)
        capacity = initial + arrivals - np.cumsum(losses)
        return np.clip(capacity, 0.0, None)

    def generate_partial(
        self, seed: int, args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray:
        """Partial generation via the same cheap vectorized arithmetic.

        The failure history must be drawn in full to keep streams aligned,
        but that is one vectorized draw; per-component cost is dominated by
        the event bookkeeping, which indexes directly.
        """
        return self.generate(seed, args)[components]

    def _cumulative_events(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Deployment lags and the running sum of weekly failure losses."""
        lags, losses = self._world_events(seed)
        return lags, np.cumsum(losses)

    def generate_partial_batch(
        self, seeds: Sequence[int], args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray | None:
        """:meth:`generate_partial` for all ``seeds`` at once.

        Lags and failure histories depend on the seed only, so they (and
        the loss running sum) are drawn once per world into the event store
        and gathered per batch; arrivals and the clip then run over
        ``(n_worlds, k)``. An arrival past the last week adds nothing here
        where the scalar path skips it, which leaves every bit unchanged.
        """
        if (
            type(self).generate_partial is not CapacityModel.generate_partial
            or type(self).generate is not CapacityModel.generate
            or type(self)._world_events is not CapacityModel._world_events
        ):
            # A subclass changed the scalar path; only the loop is safe.
            return None
        purchase1, purchase2, initial = self._split_args(args)
        lags, lost = self.events.gather(seeds, self._cumulative_events)
        lost = component_columns(lost, components)
        weeks = np.arange(self.n_components)[components]
        # In place, in the scalar path's order: (initial + arrivals) - lost.
        capacity = np.zeros(lost.shape, dtype=float)
        for purchase, lag in zip((purchase1, purchase2), lags.T):
            arrived = weeks >= (purchase + lag)[:, None]
            np.add(capacity, self.purchase_cores, out=capacity, where=arrived)
        capacity += initial
        capacity -= lost
        return np.clip(capacity, 0.0, None, out=capacity)

    # -- analytics (used by tests) -----------------------------------------------

    def expected_weekly_loss(self) -> float:
        return sum(fc.expected_weekly_loss() for fc in self.failure_classes)

    def expected_capacity(self, week: int, purchase1: int, purchase2: int) -> float:
        """Analytic E[capacity] ignoring severity truncation and the >=0 clip.

        The lag distribution is marginalized exactly: each purchase
        contributes ``purchase_cores`` weighted by P(arrival <= week).
        """
        capacity = self.initial_capacity - (week + 1) * self.expected_weekly_loss()
        for purchase in (purchase1, purchase2):
            arrived_probability = sum(
                weight
                for lag, weight in zip(self.lag_choices, self.lag_weights)
                if week >= purchase + lag
            )
            capacity += self.purchase_cores * float(arrived_probability)
        return capacity


class MaintenanceWindowCapacityModel(SteppedVGFunction):
    """Stepped capacity chain with failures only in maintenance windows.

    Outside the scheduled windows the chain is deterministic
    (``state += weekly_delivery``), so Markov analysis finds long
    predictable regions and shortcut estimators can skip them (experiment
    C6). Inside a window, a random number of cores is lost per step.

    RNG discipline: exactly one Poisson and one Gaussian draw per step —
    inside or outside a window — keeping streams aligned across args.
    """

    arg_names = ("window_phase",)

    def __init__(
        self,
        name: str = "MaintenanceCapacityModel",
        n_weeks: int = WEEKS_PER_YEAR,
        initial_capacity: float = 6500.0,
        weekly_delivery: float = 35.0,
        window_every: int = 13,
        window_width: int = 2,
        window_loss_rate: float = 4.0,
        window_loss_mean: float = 60.0,
        window_loss_sigma: float = 15.0,
    ) -> None:
        if window_every < 1:
            raise VGFunctionError(f"window_every must be >= 1, got {window_every}")
        if window_width < 1 or window_width > window_every:
            raise VGFunctionError(
                f"window_width must be in [1, {window_every}], got {window_width}"
            )
        self.name = name
        self.n_components = int(n_weeks)
        self.initial_capacity = float(initial_capacity)
        self.weekly_delivery = float(weekly_delivery)
        self.window_every = int(window_every)
        self.window_width = int(window_width)
        self.window_loss_rate = float(window_loss_rate)
        self.window_loss_mean = float(window_loss_mean)
        self.window_loss_sigma = float(window_loss_sigma)
        super().__init__()

    def in_window(self, t: int, phase: int) -> bool:
        return ((t - phase) % self.window_every) < self.window_width

    def initial_state(self, rng: np.random.Generator, args: tuple[Any, ...]) -> float:
        return self.initial_capacity

    def step(
        self, state: float, t: int, rng: np.random.Generator, args: tuple[Any, ...]
    ) -> float:
        (phase,) = args
        count = rng.poisson(self.window_loss_rate)
        severity = max(rng.normal(self.window_loss_mean, self.window_loss_sigma), 0.0)
        loss = count * severity if self.in_window(t, int(phase)) else 0.0
        return max(state + self.weekly_delivery - loss, 0.0)
