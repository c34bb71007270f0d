"""Primitive probability distributions used to build VG-Functions.

These are thin, validated wrappers over numpy's generator methods with
analytic moments where they exist. They are the building blocks the demo
models compose; they are *not* themselves VG-Functions (no seed protocol) —
see :mod:`repro.vg.base` for that. The one exception is
:class:`DistributionSeries`, which lifts any distribution into a
VG-Function of i.i.d. per-component draws (with a batched sampling
implementation for the sampling plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.vg.base import VGFunction


class Distribution:
    """Sampling + analytic-moment protocol."""

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def std(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Normal(Distribution):
    """Gaussian with mean ``mu`` and standard deviation ``sigma``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise VGFunctionError(f"Normal sigma must be >= 0, got {self.sigma}")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=size)

    def mean(self) -> float:
        return self.mu

    def std(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal: ``exp(N(mu, sigma))``."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise VGFunctionError(f"LogNormal sigma must be >= 0, got {self.sigma}")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=size)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def std(self) -> float:
        variance = (math.exp(self.sigma**2) - 1.0) * math.exp(2 * self.mu + self.sigma**2)
        return math.sqrt(variance)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Continuous uniform on ``[low, high)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise VGFunctionError(f"Uniform requires low <= high, got [{self.low}, {self.high})")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def std(self) -> float:
        return (self.high - self.low) / math.sqrt(12.0)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with rate ``lam`` (mean ``1/lam``)."""

    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise VGFunctionError(f"Exponential rate must be > 0, got {self.lam}")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.exponential(1.0 / self.lam, size=size)

    def mean(self) -> float:
        return 1.0 / self.lam

    def std(self) -> float:
        return 1.0 / self.lam


@dataclass(frozen=True)
class Poisson(Distribution):
    """Poisson counts with rate ``lam``."""

    lam: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise VGFunctionError(f"Poisson rate must be >= 0, got {self.lam}")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.poisson(self.lam, size=size).astype(float)

    def mean(self) -> float:
        return self.lam

    def std(self) -> float:
        return math.sqrt(self.lam)


@dataclass(frozen=True)
class Bernoulli(Distribution):
    """0/1 with success probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise VGFunctionError(f"Bernoulli p must be in [0, 1], got {self.p}")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return (rng.random(size) < self.p).astype(float)

    def mean(self) -> float:
        return self.p

    def std(self) -> float:
        return math.sqrt(self.p * (1.0 - self.p))


@dataclass(frozen=True)
class Triangular(Distribution):
    """Triangular on ``[low, high]`` with mode ``mode``."""

    low: float
    mode: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.mode <= self.high:
            raise VGFunctionError(
                f"Triangular requires low <= mode <= high, got "
                f"({self.low}, {self.mode}, {self.high})"
            )

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        if self.low == self.high:
            return np.full(size, float(self.low))
        return rng.triangular(self.low, self.mode, self.high, size=size)

    def mean(self) -> float:
        return (self.low + self.mode + self.high) / 3.0

    def std(self) -> float:
        a, c, b = self.low, self.mode, self.high
        variance = (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
        return math.sqrt(max(variance, 0.0))


class Discrete(Distribution):
    """A finite distribution over explicit ``values`` with ``weights``."""

    def __init__(self, values: Sequence[float], weights: Sequence[float] | None = None) -> None:
        self.values = np.asarray(list(values), dtype=float)
        if self.values.size == 0:
            raise VGFunctionError("Discrete requires at least one value")
        if weights is None:
            probs = np.full(self.values.size, 1.0 / self.values.size)
        else:
            raw = np.asarray(list(weights), dtype=float)
            if raw.shape != self.values.shape:
                raise VGFunctionError(
                    f"Discrete weights shape {raw.shape} != values shape {self.values.shape}"
                )
            if np.any(raw < 0) or raw.sum() <= 0:
                raise VGFunctionError("Discrete weights must be non-negative and sum > 0")
            probs = raw / raw.sum()
        self.probabilities = probs

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.choice(self.values, size=size, p=self.probabilities)

    def mean(self) -> float:
        return float(np.dot(self.values, self.probabilities))

    def std(self) -> float:
        mean = self.mean()
        variance = float(np.dot((self.values - mean) ** 2, self.probabilities))
        return math.sqrt(variance)

    def __repr__(self) -> str:
        return f"Discrete(values={self.values.tolist()}, probs={self.probabilities.tolist()})"


class DistributionSeries(VGFunction):
    """I.i.d. per-component draws from one :class:`Distribution`.

    ``value[t] ~ distribution`` independently per component, with all
    randomness flowing through the canonical per-seed stream. Each world's
    whole vector is one generator call already, and per-world streams
    cannot merge without breaking the determinism contract, so the
    inherited per-seed loop (``generate_loop``) is the densest bit-identical
    batching possible — no override needed.
    """

    def __init__(self, name: str, n_components: int, distribution: Distribution) -> None:
        if n_components < 1:
            raise VGFunctionError(f"n_components must be >= 1, got {n_components}")
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = ()
        self.distribution = distribution
        super().__init__()

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        return np.asarray(
            self.distribution.sample(self.rng(seed, ()), size=self.n_components),
            dtype=float,
        )


@dataclass(frozen=True)
class Constant(Distribution):
    """A degenerate distribution (useful for ablations and tests)."""

    value: float

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return np.full(size, float(self.value))

    def mean(self) -> float:
        return float(self.value)

    def std(self) -> float:
        return 0.0
