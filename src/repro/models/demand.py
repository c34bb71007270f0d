"""The demand forecast model (paper §3.1).

*"The DemandModel is a daily demand forecast expressed as a simple gaussian.
A second gaussian is added to the first after the feature release date,
representing additional demand resulting from the released feature."*

We simulate per-week CPU-core demand over one year (53 weeks, 0..52):

* baseline: ``base + trend*t + N(0, sigma_base)`` per week;
* feature surge, for ``t >= feature``: ``surge_slope*(t - feature) +
  N(surge_jump, sigma_surge)`` per week.

Fingerprint behaviour by construction (and verified in tests):

* weeks before both feature dates: **identity** across feature-date changes;
* weeks after both: the surge differs by the deterministic constant
  ``surge_slope * (f_old - f_new)`` — a **shift** map (this is the §3.2
  "slope of the usage graph changes, yet most weeks remap" claim);
* weeks between the two dates: the surge noise appears on one side only —
  **unmapped**, re-simulated.

The optional ``growth`` argument multiplies the whole curve, producing
genuinely **affine** (scale != 1) fingerprint maps across growth changes.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.vg.base import VGFunction, component_columns

WEEKS_PER_YEAR = 53


class DemandModel(VGFunction):
    """Weekly demand forecast with a feature-release surge.

    SQL forms (via the PDB extension):
    ``DemandModel(seed, t, feature)`` and ``DemandModelT(seed, feature)``;
    with ``with_growth_arg=True`` an extra trailing ``growth`` argument is
    accepted (domain e.g. ``SET (0.8, 1.0, 1.2)``).
    """

    def __init__(
        self,
        name: str = "DemandModel",
        n_weeks: int = WEEKS_PER_YEAR,
        base: float = 5000.0,
        trend: float = 25.0,
        sigma_base: float = 120.0,
        surge_jump: float = 250.0,
        surge_slope: float = 15.0,
        sigma_surge: float = 90.0,
        with_growth_arg: bool = False,
    ) -> None:
        if n_weeks < 1:
            raise VGFunctionError(f"n_weeks must be >= 1, got {n_weeks}")
        if min(sigma_base, sigma_surge) < 0:
            raise VGFunctionError("sigmas must be >= 0")
        self.name = name
        self.n_components = int(n_weeks)
        self.arg_names = ("feature", "growth") if with_growth_arg else ("feature",)
        self.base = float(base)
        self.trend = float(trend)
        self.sigma_base = float(sigma_base)
        self.surge_jump = float(surge_jump)
        self.surge_slope = float(surge_slope)
        self.sigma_surge = float(sigma_surge)
        self.with_growth_arg = bool(with_growth_arg)
        super().__init__()

    # -- noise ------------------------------------------------------------

    def _noise(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Baseline and surge noise vectors — drawn identically for every
        parameterization of one seed (the alignment fingerprints exploit)."""
        rng = self.rng(seed, ())
        base_noise = rng.normal(0.0, 1.0, size=self.n_components)
        surge_noise = rng.normal(0.0, 1.0, size=self.n_components)
        return base_noise, surge_noise

    def _split_args(self, args: tuple[Any, ...]) -> tuple[int, float]:
        if self.with_growth_arg:
            feature, growth = args
        else:
            (feature,) = args
            growth = 1.0
        feature = int(feature)
        growth = float(growth)
        if growth <= 0:
            raise VGFunctionError(f"{self.name}: growth must be > 0, got {growth}")
        return feature, growth

    # -- generation ---------------------------------------------------------

    def _demand(
        self,
        weeks: np.ndarray,
        base_noise: np.ndarray,
        surge_noise: np.ndarray,
        feature: int,
        growth: float,
    ) -> np.ndarray:
        """The week arithmetic, elementwise over ``weeks`` and its noise.

        Shared by the full, partial and batched paths so that they cannot
        drift apart: noise may be ``(k,)`` for one world or ``(n_worlds, k)``.
        """
        # In place where the operands are world-sized; a sum or product of
        # two terms is the same float in either order.
        demand = self.sigma_base * base_noise
        demand += self.base + self.trend * weeks
        surge = self.sigma_surge * surge_noise
        surge += self.surge_jump + self.surge_slope * (weeks - feature)
        demand += np.where(weeks >= feature, surge, 0.0)
        demand *= growth
        return demand

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        feature, growth = self._split_args(args)
        base_noise, surge_noise = self._noise(seed)
        weeks = np.arange(self.n_components, dtype=float)
        return self._demand(weeks, base_noise, surge_noise, feature, growth)

    def generate_partial(
        self, seed: int, args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray:
        """Weeks are independent, so partial generation is genuinely partial."""
        feature, growth = self._split_args(args)
        base_noise, surge_noise = self._noise(seed)
        return self._demand(
            components.astype(float),
            base_noise[components],
            surge_noise[components],
            feature,
            growth,
        )

    def generate_partial_batch(
        self, seeds: Sequence[int], args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray | None:
        """:meth:`generate_partial` for all ``seeds`` at once.

        The noise vectors depend on the seed only, so they are drawn once
        per world into the event store and gathered per batch; the week
        arithmetic then runs over ``(n_worlds, k)`` in the scalar path's
        elementwise order.
        """
        if (
            type(self).generate_partial is not DemandModel.generate_partial
            or type(self).generate is not DemandModel.generate
            or type(self)._noise is not DemandModel._noise
        ):
            # A subclass changed the scalar path; only the loop is safe.
            return None
        feature, growth = self._split_args(args)
        base_noise, surge_noise = self.events.gather(seeds, self._noise)
        return self._demand(
            components.astype(float),
            component_columns(base_noise, components),
            component_columns(surge_noise, components),
            feature,
            growth,
        )

    # -- analytics (used by tests) ------------------------------------------------

    def expected_demand(self, week: int, feature: int, growth: float = 1.0) -> float:
        """Analytic E[demand] at one week (noise means are zero)."""
        value = self.base + self.trend * week
        if week >= feature:
            value += self.surge_jump + self.surge_slope * (week - feature)
        return growth * value
