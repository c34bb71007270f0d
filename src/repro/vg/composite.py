"""Composition of VG-Functions.

The paper's workflow builds "progressively more complex models" by combining
baseline models. These combinators keep the composed object a VG-Function —
deterministic in ``(seed, args)`` — so fingerprinting applies to composites
exactly as to primitives.

Argument routing: a composite's ``arg_names`` is the concatenation of its
children's ``arg_names`` (duplicates collapse to one shared argument, matched
by name).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.vg.base import VGFunction
from repro.vg.seeds import derive_seed


def _merged_arg_names(children: Sequence[VGFunction]) -> tuple[str, ...]:
    merged: list[str] = []
    for child in children:
        for name in child.arg_names:
            if name not in merged:
                merged.append(name)
    return tuple(merged)


def _route_args(
    parent_names: tuple[str, ...], child: VGFunction, args: tuple[Any, ...]
) -> tuple[Any, ...]:
    by_name = dict(zip(parent_names, args))
    return tuple(by_name[name] for name in child.arg_names)


class _CompositeBase(VGFunction):
    """Shared child management for combinators."""

    def __init__(self, name: str, children: Sequence[VGFunction]) -> None:
        if not children:
            raise VGFunctionError(f"{type(self).__name__} requires at least one child")
        widths = {child.n_components for child in children}
        if len(widths) != 1:
            raise VGFunctionError(
                f"children of {name!r} disagree on n_components: {sorted(widths)}"
            )
        self.name = name
        self.n_components = children[0].n_components
        self.children = tuple(children)
        self.arg_names = _merged_arg_names(children)
        super().__init__()

    def _child_vectors(self, seed: int, args: tuple[Any, ...]) -> list[np.ndarray]:
        # Each child gets an independent sub-seed so composition does not
        # induce spurious cross-child correlation; sub-seeds are still
        # deterministic in the parent seed.
        vectors = []
        for index, child in enumerate(self.children):
            child_seed = derive_seed("composite", self.name, index, seed)
            child_args = _route_args(self.arg_names, child, args)
            vectors.append(child.invoke(child_seed, child_args))
        return vectors

    def _scalar_path_intact(self, combinator: type) -> bool:
        """Is this instance's scalar path exactly the combinator's own?

        Subclasses that override ``generate`` (or the shared child-vector
        helper) invalidate the vectorized batch, whose formula mirrors the
        combinator's scalar implementation; the per-seed loop is then the
        only safe batching.
        """
        return (
            type(self).generate is combinator.generate
            and type(self)._child_vectors is _CompositeBase._child_vectors
        )

    def _child_matrices(
        self, seeds: Sequence[int], args: tuple[Any, ...]
    ) -> list[np.ndarray]:
        """Batched analogue of :meth:`_child_vectors`: one matrix per child.

        Child seeds stay the per-world derived sub-seeds (bit-identity), but
        each child samples its whole world slice in one ``invoke_batch``.
        """
        matrices = []
        for index, child in enumerate(self.children):
            child_seeds = tuple(
                derive_seed("composite", self.name, index, seed) for seed in seeds
            )
            child_args = _route_args(self.arg_names, child, args)
            matrices.append(child.invoke_batch(child_seeds, child_args))
        return matrices


class SumOf(_CompositeBase):
    """Componentwise sum of children (e.g. demand = baseline + feature surge)."""

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        vectors = self._child_vectors(seed, args)
        return np.sum(vectors, axis=0)

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if not self._scalar_path_intact(SumOf):
            return self.generate_loop(seeds, args)
        matrices = self._child_matrices(seeds, args)
        # Reducing over the child axis keeps the scalar path's per-element
        # accumulation order (same child count, same np.sum reduction).
        matrix = np.sum(matrices, axis=0)
        return self.guarded_batch(seeds, args, matrix)


class DifferenceOf(_CompositeBase):
    """First child minus the sum of the rest (e.g. capacity − failures)."""

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        vectors = self._child_vectors(seed, args)
        result = vectors[0].copy()
        for vector in vectors[1:]:
            result -= vector
        return result

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if not self._scalar_path_intact(DifferenceOf):
            return self.generate_loop(seeds, args)
        matrices = self._child_matrices(seeds, args)
        matrix = matrices[0].copy()
        for child_matrix in matrices[1:]:
            matrix -= child_matrix
        return self.guarded_batch(seeds, args, matrix)


class ScaledBy(VGFunction):
    """Affine transform of one child: ``scale * child + offset``."""

    def __init__(self, name: str, child: VGFunction, scale: float, offset: float = 0.0) -> None:
        self.name = name
        self.n_components = child.n_components
        self.arg_names = child.arg_names
        self.child = child
        self.scale = float(scale)
        self.offset = float(offset)
        super().__init__()

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        child_seed = derive_seed("composite", self.name, 0, seed)
        return self.scale * self.child.invoke(child_seed, args) + self.offset

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if type(self).generate is not ScaledBy.generate:
            return self.generate_loop(seeds, args)
        child_seeds = tuple(derive_seed("composite", self.name, 0, seed) for seed in seeds)
        matrix = self.scale * self.child.invoke_batch(child_seeds, args) + self.offset
        return self.guarded_batch(seeds, args, matrix)


class TransformedBy(VGFunction):
    """Arbitrary componentwise transform ``f(vector, args) -> vector``.

    The transform must be deterministic; all randomness stays in the child.
    """

    def __init__(
        self,
        name: str,
        child: VGFunction,
        transform: Callable[[np.ndarray, tuple[Any, ...]], np.ndarray],
        extra_arg_names: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.n_components = child.n_components
        self.arg_names = tuple(child.arg_names) + tuple(
            name for name in extra_arg_names if name not in child.arg_names
        )
        self.child = child
        self._transform = transform
        super().__init__()

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        child_seed = derive_seed("composite", self.name, 0, seed)
        child_args = _route_args(self.arg_names, self.child, args)
        vector = self.child.invoke(child_seed, child_args)
        result = np.asarray(self._transform(vector, args), dtype=float)
        if result.shape != (self.n_components,):
            raise VGFunctionError(
                f"transform of {self.name!r} returned shape {result.shape}, "
                f"expected ({self.n_components},)"
            )
        return result

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if type(self).generate is not TransformedBy.generate:
            return self.generate_loop(seeds, args)
        # The transform's contract is one world's vector; only the child's
        # sampling batches. Transforms stay a per-world loop by design.
        child_seeds = tuple(derive_seed("composite", self.name, 0, seed) for seed in seeds)
        child_args = _route_args(self.arg_names, self.child, args)
        child_matrix = self.child.invoke_batch(child_seeds, child_args)
        matrix = np.empty((len(seeds), self.n_components), dtype=float)
        for row in range(len(seeds)):
            result = np.asarray(self._transform(child_matrix[row], args), dtype=float)
            if result.shape != (self.n_components,):
                raise VGFunctionError(
                    f"transform of {self.name!r} returned shape {result.shape}, "
                    f"expected ({self.n_components},)"
                )
            matrix[row] = result
        return self.guarded_batch(seeds, args, matrix)


class MixtureOf(_CompositeBase):
    """Per-world random choice among children with fixed weights.

    One child is selected per invocation (per world), modelling regime
    uncertainty (e.g. optimistic vs pessimistic growth model).
    """

    def __init__(
        self, name: str, children: Sequence[VGFunction], weights: Sequence[float] | None = None
    ) -> None:
        super().__init__(name, children)
        if weights is None:
            self.weights = np.full(len(self.children), 1.0 / len(self.children))
        else:
            raw = np.asarray(list(weights), dtype=float)
            if raw.size != len(self.children):
                raise VGFunctionError(
                    f"MixtureOf got {raw.size} weights for {len(self.children)} children"
                )
            if np.any(raw < 0) or raw.sum() <= 0:
                raise VGFunctionError("mixture weights must be non-negative and sum > 0")
            self.weights = raw / raw.sum()

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        rng = self.rng(seed, args)
        choice = int(rng.choice(len(self.children), p=self.weights))
        child = self.children[choice]
        child_seed = derive_seed("composite", self.name, choice, seed)
        child_args = _route_args(self.arg_names, child, args)
        return child.invoke(child_seed, child_args)

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        if type(self).generate is not MixtureOf.generate:
            return self.generate_loop(seeds, args)
        # Regime choice is one draw per world (its own stream, unavoidable);
        # the worlds that landed on the same child then batch through it.
        by_choice: dict[int, list[int]] = {}
        for row, seed in enumerate(seeds):
            rng = self.rng(seed, args)
            choice = int(rng.choice(len(self.children), p=self.weights))
            by_choice.setdefault(choice, []).append(row)
        matrix = np.empty((len(seeds), self.n_components), dtype=float)
        for choice, rows in by_choice.items():
            child = self.children[choice]
            child_seeds = tuple(
                derive_seed("composite", self.name, choice, seeds[row]) for row in rows
            )
            child_args = _route_args(self.arg_names, child, args)
            matrix[rows] = child.invoke_batch(child_seeds, child_args)
        return self.guarded_batch(seeds, args, matrix)
