"""Time-series VG-Functions: random walks, AR(1), seasonal generators.

These are generic, reusable VG-Functions over a weekly (or any discrete)
axis. The demo's demand/capacity models in :mod:`repro.models` are built in
the same style but with business-specific structure.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.vg.base import SteppedVGFunction, VGFunction


def _stacked_noise(
    function: VGFunction, seeds: Sequence[int], draw
) -> np.ndarray:
    """One noise row per seed: ``draw(rng)`` under each seed's own stream.

    Per-world streams are independent generators, so the draws themselves
    cannot merge into one call without changing the bit stream; everything
    *around* the draws vectorizes across the seed axis.
    """
    matrix = np.empty((len(seeds), function.n_components), dtype=float)
    for row, seed in enumerate(seeds):
        matrix[row] = draw(seed)
    return matrix


class GaussianSeries(VGFunction):
    """Independent Gaussian per component: ``value[t] ~ N(mu(t), sigma)``.

    ``mu(t) = base + trend * t`` — a linear drift with i.i.d. noise. Because
    components are independent, partial generation is supported and costs
    only the requested components.
    """

    def __init__(
        self,
        name: str,
        n_components: int,
        base: float,
        trend: float = 0.0,
        sigma: float = 1.0,
    ) -> None:
        if sigma < 0:
            raise VGFunctionError(f"sigma must be >= 0, got {sigma}")
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = ()
        self.base = float(base)
        self.trend = float(trend)
        self.sigma = float(sigma)
        super().__init__()

    def _noise(self, seed: int) -> np.ndarray:
        # One noise draw per component, independent of args by construction.
        return self.rng(seed, ()).normal(0.0, 1.0, size=self.n_components)

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        t = np.arange(self.n_components, dtype=float)
        return self.base + self.trend * t + self.sigma * self._noise(seed)

    def generate_partial(
        self, seed: int, args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray:
        noise = self._noise(seed)[components]
        return self.base + self.trend * components.astype(float) + self.sigma * noise

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if (
            type(self).generate is not GaussianSeries.generate
            or type(self)._noise is not GaussianSeries._noise
        ):
            # A subclass changed the scalar path; only the loop is safe.
            return self.generate_loop(seeds, args)
        # The deterministic drift is computed once for the whole batch; the
        # per-element op order matches the scalar path bit-for-bit.
        t = np.arange(self.n_components, dtype=float)
        noise = _stacked_noise(self, seeds, self._noise)
        return (self.base + self.trend * t)[None, :] + self.sigma * noise


class RandomWalk(SteppedVGFunction):
    """Gaussian random walk: ``x[t] = x[t-1] + N(drift, sigma)``."""

    def __init__(
        self,
        name: str,
        n_components: int,
        start: float = 0.0,
        drift: float = 0.0,
        sigma: float = 1.0,
    ) -> None:
        if sigma < 0:
            raise VGFunctionError(f"sigma must be >= 0, got {sigma}")
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = ()
        self.start = float(start)
        self.drift = float(drift)
        self.sigma = float(sigma)
        super().__init__()

    def initial_state(self, rng: np.random.Generator, args: tuple[Any, ...]) -> float:
        return self.start

    def step(
        self, state: float, t: int, rng: np.random.Generator, args: tuple[Any, ...]
    ) -> float:
        return state + rng.normal(self.drift, self.sigma)

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if (
            type(self).step is not RandomWalk.step
            or type(self).observe is not SteppedVGFunction.observe
            or type(self).initial_state is not RandomWalk.initial_state
            or type(self).generate is not SteppedVGFunction.generate
        ):
            # A subclass changed the chain; only the per-seed loop is safe.
            return self.generate_loop(seeds, args)
        n = self.n_components
        # Drawing the whole increment vector consumes each seed's bit stream
        # exactly as n successive scalar draws do; prepending the start value
        # makes cumsum reproduce the loop's left-to-right addition order.
        increments = np.empty((len(seeds), n + 1), dtype=float)
        increments[:, 0] = self.start
        for row, seed in enumerate(seeds):
            increments[row, 1:] = self.rng(seed, args).normal(
                self.drift, self.sigma, size=n
            )
        return np.cumsum(increments, axis=1)[:, 1:]


class AR1Series(SteppedVGFunction):
    """AR(1): ``x[t] = mu + phi * (x[t-1] - mu) + N(0, sigma)``."""

    def __init__(
        self,
        name: str,
        n_components: int,
        mu: float = 0.0,
        phi: float = 0.8,
        sigma: float = 1.0,
        start: float | None = None,
    ) -> None:
        if not -1.0 < phi < 1.0:
            raise VGFunctionError(f"AR(1) phi must be in (-1, 1) for stationarity, got {phi}")
        if sigma < 0:
            raise VGFunctionError(f"sigma must be >= 0, got {sigma}")
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = ()
        self.mu = float(mu)
        self.phi = float(phi)
        self.sigma = float(sigma)
        self.start = self.mu if start is None else float(start)
        super().__init__()

    def initial_state(self, rng: np.random.Generator, args: tuple[Any, ...]) -> float:
        return self.start

    def step(
        self, state: float, t: int, rng: np.random.Generator, args: tuple[Any, ...]
    ) -> float:
        return self.mu + self.phi * (state - self.mu) + rng.normal(0.0, self.sigma)

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if (
            type(self).step is not AR1Series.step
            or type(self).observe is not SteppedVGFunction.observe
            or type(self).initial_state is not AR1Series.initial_state
            or type(self).generate is not SteppedVGFunction.generate
        ):
            return self.generate_loop(seeds, args)
        n = self.n_components
        noise = np.empty((len(seeds), n), dtype=float)
        for row, seed in enumerate(seeds):
            noise[row] = self.rng(seed, args).normal(0.0, self.sigma, size=n)
        # The AR(1) recursion stays sequential over t (it must, bitwise) but
        # every step now advances all worlds at once.
        matrix = np.empty((len(seeds), n), dtype=float)
        state = np.full(len(seeds), self.start, dtype=float)
        for t in range(n):
            state = self.mu + self.phi * (state - self.mu) + noise[:, t]
            matrix[:, t] = state
        return matrix


class SeasonalSeries(VGFunction):
    """Sinusoidal seasonality plus linear trend and Gaussian noise.

    ``value[t] = base + trend*t + amplitude*sin(2*pi*(t+phase)/period) + noise``
    """

    def __init__(
        self,
        name: str,
        n_components: int,
        base: float,
        amplitude: float,
        period: float,
        trend: float = 0.0,
        phase: float = 0.0,
        sigma: float = 0.0,
    ) -> None:
        if period <= 0:
            raise VGFunctionError(f"period must be > 0, got {period}")
        if sigma < 0:
            raise VGFunctionError(f"sigma must be >= 0, got {sigma}")
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = ()
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.trend = float(trend)
        self.phase = float(phase)
        self.sigma = float(sigma)
        super().__init__()

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        t = np.arange(self.n_components, dtype=float)
        seasonal = self.amplitude * np.sin(2.0 * np.pi * (t + self.phase) / self.period)
        noise = self.rng(seed, args).normal(0.0, self.sigma, size=self.n_components)
        return self.base + self.trend * t + seasonal + noise

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if type(self).generate is not SeasonalSeries.generate:
            return self.generate_loop(seeds, args)
        t = np.arange(self.n_components, dtype=float)
        seasonal = self.amplitude * np.sin(2.0 * np.pi * (t + self.phase) / self.period)
        noise = _stacked_noise(
            self,
            seeds,
            lambda seed: self.rng(seed, args).normal(
                0.0, self.sigma, size=self.n_components
            ),
        )
        return (self.base + self.trend * t + seasonal)[None, :] + noise


class PoissonEventSeries(VGFunction):
    """Counts of random events per component: ``value[t] ~ Poisson(rate)``.

    Components are independent; supports partial generation.
    """

    def __init__(self, name: str, n_components: int, rate: float) -> None:
        if rate < 0:
            raise VGFunctionError(f"rate must be >= 0, got {rate}")
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = ()
        self.rate = float(rate)
        super().__init__()

    def _counts(self, seed: int) -> np.ndarray:
        return self.rng(seed, ()).poisson(self.rate, size=self.n_components).astype(float)

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        return self._counts(seed)

    def generate_partial(
        self, seed: int, args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray:
        return self._counts(seed)[components]

    # No generate_batch override: each world is already a single generator
    # call with no deterministic structure around it, so the inherited
    # per-seed loop is the densest bit-identical batching possible.
