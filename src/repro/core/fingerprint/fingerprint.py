"""Fingerprints of VG-Function parameterizations.

Paper §2: *"the fingerprint of a parameterized stochastic function is simply
a sequence of its outputs under a fixed sequence of random inputs (i.e.,
seed of its pseudorandom number generator). The use of a fixed set of random
seeds ensures a deterministic relationship between correlated outputs."*

A :class:`Fingerprint` is therefore a ``k x n_components`` matrix: row ``i``
is the VG-Function's full output vector under probe seed ``i``. Comparing the
columns of two fingerprints (same function, different parameter values)
reveals per-component relationships that, once detected, transfer to the
Monte Carlo sample matrices because world seeds are fixed too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.errors import FingerprintError
from repro.vg.base import VGFunction
from repro.vg.seeds import fingerprint_seeds


@dataclass(frozen=True)
class FingerprintSpec:
    """Configuration of the fingerprinting probe.

    ``n_seeds`` — how many fixed probe seeds (the paper's "fixed sequence of
    random inputs"); more seeds make correlation detection more reliable but
    each probe costs one VG invocation.
    ``base_seed`` — root of the fixed probe-seed sequence; all fingerprints
    in one engine share it (fingerprints from different bases are not
    comparable).
    """

    n_seeds: int = 8
    base_seed: int = 20110612  # SIGMOD'11 demo date

    def __post_init__(self) -> None:
        if self.n_seeds < 2:
            raise FingerprintError(
                f"fingerprints need >= 2 probe seeds to see variation, got {self.n_seeds}"
            )

    @cached_property
    def seeds(self) -> tuple[int, ...]:
        """The probe seeds, derived once per spec (every probe reads them)."""
        return fingerprint_seeds(self.base_seed, self.n_seeds)


@dataclass(frozen=True)
class Fingerprint:
    """The fingerprint of one ``(vg, model_args)`` parameterization."""

    vg_name: str
    args: tuple[Any, ...]
    matrix: np.ndarray  # shape (n_seeds, n_components)
    spec: FingerprintSpec
    #: C-contiguous ``(n_components, n_seeds)`` transpose of ``matrix``:
    #: one component per row, so correlation reduces along the contiguous
    #: last axis. NumPy sums a contiguous row with the same pairwise tree
    #: it uses for a single column, which keeps the batched ladder
    #: bit-identical to :func:`match_component`; reducing ``matrix`` along
    #: ``axis=0`` accumulates row by row and differs in the last bit.
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise FingerprintError(f"fingerprint matrix must be 2-D, got {self.matrix.ndim}-D")
        if self.matrix.shape[0] != self.spec.n_seeds:
            raise FingerprintError(
                f"fingerprint has {self.matrix.shape[0]} rows, spec wants {self.spec.n_seeds}"
            )
        object.__setattr__(
            self, "columns", np.ascontiguousarray(self.matrix.T, dtype=float)
        )

    @cached_property
    def row_std(self) -> np.ndarray:
        """``np.std(columns, axis=1)``, read-only: each component's spread
        over the probe seeds, which every correlation against this
        fingerprint reads. A row reduces alone along the contiguous axis, so
        these are the bits the same rows give stacked beside others."""
        std = np.std(self.columns, axis=1)
        std.flags.writeable = False
        return std

    @property
    def n_components(self) -> int:
        return int(self.matrix.shape[1])

    def column(self, component: int) -> np.ndarray:
        return self.matrix[:, component]

    def comparable_with(self, other: "Fingerprint") -> bool:
        """Fingerprints compare only within one function and probe spec."""
        return (
            self.vg_name == other.vg_name
            and self.spec == other.spec
            and self.n_components == other.n_components
        )


def compute_fingerprint(
    function: VGFunction, args: tuple[Any, ...], spec: FingerprintSpec
) -> Fingerprint:
    """Probe ``function`` at ``args`` under the spec's fixed seeds.

    Costs ``spec.n_seeds`` VG invocations on every call (a re-probe is free
    only through :meth:`FingerprintRegistry.fingerprint_of`), asked as one
    :meth:`~repro.vg.base.VGFunction.invoke_batch`: the probe seeds are
    the same at every parameterization, so a model with a batch kernel
    reads their stored seed events (the engine's event-store bound counts
    them) instead of redrawing them.
    """
    matrix = function.invoke_batch(spec.seeds, tuple(args))
    return Fingerprint(vg_name=function.name, args=tuple(args), matrix=matrix, spec=spec)
