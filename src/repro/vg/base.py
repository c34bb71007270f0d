"""The VG-Function protocol.

A VG-Function ("variable generation function", the MCDB/PIP idiom the paper
adopts) is a stochastic black box: given a PRNG seed and a tuple of model
arguments, it produces a vector of outputs — one value per *component*.
For time-stepped business models a component is typically one simulated
week. Determinism given ``(seed, args)`` is part of the contract; it is what
makes fingerprinting sound.

Two flavours:

* :class:`VGFunction` — arbitrary generator, must implement ``generate``.
* :class:`SteppedVGFunction` — a Markov-chain simulation exposing its
  per-step structure (``initial_state`` / ``step`` / ``observe``), which the
  fingerprint layer can analyze for Markovian shortcuts (paper §2).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import VGFunctionError
from repro.vg.seeds import derive_seed, rng_for


class SeedEventStore:
    """One model's seed-only event histories, one row per world.

    A batch-partial model draws events that depend on the seed alone, so
    every parameterization of a world re-reads one draw. The store keeps a
    seed -> row index and one array per event field (the tuple ``draw(seed)``
    returns), each row drawn once; :meth:`gather` serves a batch with one
    fancy index per field, i.e. with copies that cannot corrupt the store.
    It stays on under ``reuse=False`` (it repeats draws, not outcomes) and
    holds up to :attr:`bound` seeds: the world universe (``n_worlds`` plus
    fingerprint probe seeds) of the engines that :meth:`reserve` it. A batch
    that would pass the bound (world ids outside the universe) empties the
    store first. Emptied by :meth:`VGFunction.reset_counters`.
    """

    def __init__(self) -> None:
        self.bound = 0
        self._rows: dict[int, int] = {}
        self._fields: tuple[np.ndarray, ...] = ()

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):  # the seeds held, in row order
        return iter(self._rows)

    def reserve(self, worlds: int) -> None:
        self.bound = max(self.bound, int(worlds))

    def clear(self) -> None:
        self._rows.clear()
        self._fields = ()

    def gather(
        self, seeds: Sequence[int], draw: Callable[[int], tuple[np.ndarray, ...]]
    ) -> tuple[np.ndarray, ...]:
        """Each field's rows for ``seeds``, in order, drawing missing seeds."""
        rows = self._rows
        try:
            index = np.fromiter(map(rows.__getitem__, seeds), np.intp, len(seeds))
        except KeyError:
            self._draw(seeds, draw)
            index = np.fromiter(map(rows.__getitem__, seeds), np.intp, len(seeds))
        return tuple(field[index] for field in self._fields)

    def _draw(self, seeds: Sequence[int], draw: Callable[[int], Any]) -> None:
        rows = self._rows
        new = [seed for seed in dict.fromkeys(seeds) if seed not in rows]
        if len(rows) + len(new) > self.bound:
            rows.clear()
            new = list(dict.fromkeys(seeds))
        start, needed = len(rows), len(rows) + len(new)
        for row, seed in enumerate(new, start):
            events = [np.asarray(value) for value in draw(seed)]
            if row == start and (not self._fields or len(self._fields[0]) < needed):
                size = max(needed, min(2 * needed, self.bound))
                grown = tuple(np.empty((size,) + v.shape, v.dtype) for v in events)
                for old, field in zip(self._fields, grown):
                    field[:start] = old[:start]
                self._fields = grown
            for field, value in zip(self._fields, events):
                field[row] = value
            rows[seed] = row

    def rows(self) -> tuple[list[int], tuple[np.ndarray, ...]]:
        """Every seed held, in row order, and each field's rows for them."""
        held = len(self._rows)
        return list(self._rows), tuple(field[:held] for field in self._fields)

    def adopt(self, seeds: Sequence[int], fields: Sequence[np.ndarray]) -> None:
        """Hold the rows another store of the same model drew for ``seeds``
        (:meth:`rows`): the same draws, so the same as drawing them here."""
        position = {seed: index for index, seed in enumerate(seeds)}
        self._draw(seeds, lambda seed: tuple(field[position[seed]] for field in fields))


class VGFunction:
    """Base class for VG-Functions.

    Subclasses set :attr:`name`, :attr:`n_components`, and :attr:`arg_names`
    (the model arguments, excluding seed and component index), then implement
    :meth:`generate`.
    """

    #: Registered SQL name of this function.
    name: str = "vg"
    #: Number of output components (e.g. weeks simulated).
    n_components: int = 1
    #: Names of model arguments, in positional order.
    arg_names: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.invocations = 0  # real stochastic generations (benchmark metric)
        self.component_samples = 0  # components actually simulated
        self.parity_fallbacks = 0  # vectorized batches rejected by the guard
        #: Seed-only event arrays of batch-partial models (empty for others).
        self.events = SeedEventStore()
        # (seed, args) -> vector, read only by the scalar SQL form (pdbext).
        self._scalar_memo: dict[tuple[int, tuple[Any, ...]], np.ndarray] = {}

    # -- contract -------------------------------------------------------------

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        """Produce the full output vector for one world. Must be overridden.

        Implementations must be deterministic in ``(seed, args)`` and must
        route all randomness through ``self.rng(seed, args)`` (or the
        equivalent seed-derivation helpers).
        """
        raise NotImplementedError

    def generate_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        """Produce the output vectors of many worlds: ``(len(seeds), n_components)``.

        A model with a batch kernel (:meth:`generate_partial_batch`) is
        served by it, asked for every component: one vectorised pass over
        its stored seed events (:attr:`events`). Full and partial generation
        therefore share one kernel per model. Every other model takes
        :meth:`generate_loop`, bit-identical to per-world generation by
        construction.

        Subclasses with other vectorizable structure override this with
        genuine NumPy batch implementations; every override must keep
        bit-identity with the per-seed loop (each world's randomness still
        flows through that world's own seed-derived stream). The parity
        guard is not here: :meth:`invoke_batch`, the one entry point of the
        batched plane, checks whatever this returns.
        """
        if len(seeds):
            batch = self.generate_partial_batch(
                seeds, args, np.arange(self.n_components)
            )
            if batch is not None:
                return np.asarray(batch, dtype=float)
        return self.generate_loop(seeds, args)

    def generate_loop(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        """:meth:`generate` once per seed: the reference every batch must equal.

        Named apart from :meth:`generate_batch` so that the parity guard's
        fallback can never re-enter a vectorised path. A world of the wrong
        shape raises :meth:`invoke`'s :class:`VGFunctionError`.
        """
        matrix = np.empty((len(seeds), self.n_components), dtype=float)
        for index, seed in enumerate(seeds):
            matrix[index] = self._checked(self.generate(seed, args))
        return matrix

    def _checked(self, vector: Any) -> np.ndarray:
        """One world's output as floats, or a :class:`VGFunctionError`."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n_components,):
            raise VGFunctionError(
                f"{self.name}.generate returned shape {vector.shape}, "
                f"expected ({self.n_components},)"
            )
        return vector

    # -- helpers for implementations -------------------------------------------

    def rng(self, seed: int, args: tuple[Any, ...]) -> np.random.Generator:
        """The canonical generator for one ``(seed, args)`` invocation.

        Note: the stream depends only on ``seed`` and the function name, NOT
        on ``args``. Using seed-only streams is what creates exploitable
        correlation between nearby parameter values — the same underlying
        random events are re-interpreted under different parameters.
        """
        return rng_for(derive_seed("vg", self.name, seed))

    def check_args(self, args: tuple[Any, ...]) -> None:
        if len(args) != len(self.arg_names):
            raise VGFunctionError(
                f"{self.name} expects {len(self.arg_names)} args "
                f"({', '.join(self.arg_names)}), got {len(args)}"
            )

    # -- instrumented entry points ----------------------------------------------

    def invoke(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        """Generate one world's vector and count one invocation; no memo, since
        the basis store, stats cache and fingerprint registry answer repeats."""
        self.check_args(args)
        vector = self._checked(self.generate(seed, tuple(args)))
        self.invocations += 1
        self.component_samples += self.n_components
        return vector

    def invoke_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        """Generate many worlds in one :meth:`generate_batch` call and count them.

        The batch analogue of :meth:`invoke`: every row (repeated seeds too)
        counts as one generation and equals that seed's own :meth:`invoke`.

        The batched plane's one parity guard: the first world is re-drawn
        through the scalar :meth:`generate` (never from stored events) and
        compared bitwise with the batch's first row. A mismatch or a wrong
        shape reruns the batch with :meth:`generate_loop` and bumps
        :attr:`parity_fallbacks`. The probe sees one world only, so a model
        whose scalar path a subclass may override must also check that
        structurally before it vectorises, as the library's models do. A
        composite's probe runs its children's :meth:`invoke`, so each child
        counts that world twice.
        """
        self.check_args(args)
        seeds, args = tuple(seeds), tuple(args)
        n_seeds = len(seeds)
        matrix = np.asarray(self.generate_batch(seeds, args), dtype=float)
        if n_seeds and not _first_row_agrees(
            matrix, self.generate(seeds[0], args), (n_seeds, self.n_components)
        ):
            self.parity_fallbacks += 1
            matrix = self.generate_loop(seeds, args)
        if matrix.shape != (n_seeds, self.n_components):
            raise VGFunctionError(
                f"{self.name}.generate_batch returned shape {matrix.shape}, "
                f"expected ({n_seeds}, {self.n_components})"
            )
        self.invocations += n_seeds
        self.component_samples += n_seeds * self.n_components
        return matrix

    def invoke_components(
        self, seed: int, args: tuple[Any, ...], components: Sequence[int]
    ) -> np.ndarray:
        """Generate only the requested components.

        The default implementation generates the full vector and slices it
        (cost accounting still records a full generation). Models that can
        simulate partially — e.g. a per-week-independent demand model —
        override :meth:`generate_partial` to make partial recomputation
        genuinely cheaper, which is where fingerprint savings come from.
        """
        indices = np.asarray(list(components), dtype=int)
        if indices.size == 0:
            return np.empty(0, dtype=float)
        partial = self.generate_partial(seed, tuple(args), indices)
        if partial is not None:
            self.invocations += 1
            self.component_samples += int(indices.size)
            return np.asarray(partial, dtype=float)
        return self.invoke(seed, tuple(args))[indices]

    def generate_partial(
        self, seed: int, args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray | None:
        """Optionally produce only ``components``; ``None`` means unsupported."""
        return None

    def invoke_components_batch(
        self, seeds: Sequence[int], args: tuple[Any, ...], components: Sequence[int]
    ) -> np.ndarray:
        """Generate only ``components`` for many worlds at once.

        Returns ``(len(seeds), len(components))``; row ``i`` is bit-identical
        to ``invoke_components(seeds[i], args, components)`` and the
        function's own counters move by exactly what that loop would add
        (one generation per row, duplicates included). Models that implement
        :meth:`generate_partial_batch` are served by one vectorized call
        under :meth:`invoke_batch`'s first-row check (against the scalar
        :meth:`generate_partial`); a mismatch bumps :attr:`parity_fallbacks`
        and, like everything else, runs the per-seed loop.
        """
        key_args = tuple(args)
        indices = np.asarray(list(components), dtype=int)
        n_seeds = len(seeds)
        if indices.size == 0 or n_seeds == 0:
            return np.empty((n_seeds, indices.size), dtype=float)
        batch = self.generate_partial_batch(seeds, key_args, indices)
        if batch is not None:
            batch = np.asarray(batch, dtype=float)
            probe = self.generate_partial(seeds[0], key_args, indices)
            if _first_row_agrees(batch, probe, (n_seeds, indices.size)):
                self.invocations += n_seeds
                self.component_samples += n_seeds * int(indices.size)
                return batch
            self.parity_fallbacks += 1
        columns = np.empty((n_seeds, indices.size), dtype=float)
        for row, seed in enumerate(seeds):
            columns[row] = self.invoke_components(seed, key_args, indices)
        return columns

    def generate_partial_batch(
        self, seeds: Sequence[int], args: tuple[Any, ...], components: np.ndarray
    ) -> np.ndarray | None:
        """Optionally produce ``components`` for all ``seeds`` in one call.

        ``None`` (the default) means unsupported. An override returns a
        ``(len(seeds), len(components))`` matrix whose rows are bit-identical
        to :meth:`generate_partial` per seed. That is only possible when the
        model's random events depend on the seed alone — never on ``args`` —
        so they can be drawn once per seed into :attr:`events`, gathered
        per batch, and pushed through the same arithmetic as one world.
        Asked for every component, the same override is the model's full
        batch kernel (:meth:`generate_batch`), so it must also agree with
        :meth:`generate` and decline when a subclass overrides that.
        """
        return None

    def reset_counters(self) -> None:
        """Zero the counters; empty the seed-event store and scalar-form memo."""
        self.invocations = 0
        self.component_samples = 0
        self.parity_fallbacks = 0
        self.events.clear()
        self._scalar_memo.clear()

    def component_labels(self) -> list[Any]:
        """Labels for components (default: 0..n-1); models may override."""
        return list(range(self.n_components))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, n_components={self.n_components})"


class SteppedVGFunction(VGFunction):
    """A VG-Function defined by a Markov chain over its components.

    ``generate`` is derived: start from :meth:`initial_state`, apply
    :meth:`step` once per component, observe after each step. The state must
    be a float (scalar chains) — rich-state models should expose the scalar
    the fingerprint layer should track.
    """

    def initial_state(self, rng: np.random.Generator, args: tuple[Any, ...]) -> float:
        raise NotImplementedError

    def step(
        self, state: float, t: int, rng: np.random.Generator, args: tuple[Any, ...]
    ) -> float:
        raise NotImplementedError

    def observe(self, state: float, t: int, args: tuple[Any, ...]) -> float:
        """Map the chain state to the reported output (default: identity)."""
        return state

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        return self.trace(seed, args)[1]

    def trace(self, seed: int, args: tuple[Any, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Run the chain, returning ``(states, observations)`` arrays.

        ``states[t]`` is the state *after* step ``t``; both arrays have
        length :attr:`n_components`. Used by Markov-structure detection.
        """
        rng = self.rng(seed, args)
        state = float(self.initial_state(rng, args))
        states = np.empty(self.n_components, dtype=float)
        observations = np.empty(self.n_components, dtype=float)
        for t in range(self.n_components):
            state = float(self.step(state, t, rng, args))
            states[t] = state
            observations[t] = float(self.observe(state, t, args))
        return states, observations


class CallableVGFunction(VGFunction):
    """Adapter wrapping a plain callable ``f(rng, args) -> vector``.

    Lets analysts plug in ad-hoc models (the paper's "specialized tools like
    R" stage) without subclassing.
    """

    def __init__(
        self,
        name: str,
        n_components: int,
        arg_names: Sequence[str],
        fn,
    ) -> None:
        self.name = name
        self.n_components = int(n_components)
        self.arg_names = tuple(arg_names)
        self._fn = fn
        super().__init__()

    def generate(self, seed: int, args: tuple[Any, ...]) -> np.ndarray:
        return np.asarray(self._fn(self.rng(seed, args), args), dtype=float)


def _first_row_agrees(matrix: np.ndarray, probe: Any, shape: tuple[int, int]) -> bool:
    """The parity guard's check: ``matrix`` has ``shape`` and its first row
    is bitwise the scalar path's ``probe`` (``None``: no scalar path)."""
    return (
        probe is not None
        and matrix.shape == shape
        and np.array_equal(np.asarray(probe, dtype=float), matrix[0], equal_nan=True)
    )


def component_columns(matrix: np.ndarray, components: np.ndarray) -> np.ndarray:
    """``matrix[:, components]`` in C order (``matrix`` itself for all)."""
    if np.array_equal(components, np.arange(matrix.shape[1])):
        return matrix
    return matrix.take(components, axis=1)


def as_vg_function(obj: Any) -> VGFunction:
    """Coerce ``obj`` to a VGFunction, raising a helpful error otherwise."""
    if isinstance(obj, VGFunction):
        return obj
    raise VGFunctionError(f"expected a VGFunction, got {type(obj).__name__}")
