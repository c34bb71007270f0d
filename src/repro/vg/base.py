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
        self._cache: dict[tuple[int, tuple[Any, ...]], np.ndarray] = {}
        self._cache_limit = 4096
        # Seed-only event histories of batch-partial models, see seed_events.
        self._event_memo: dict[int, Any] = {}

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
        seed-memoised events (:meth:`seed_events`), checked by
        :meth:`guarded_batch`'s first-row probe against :meth:`generate`.
        Full and partial generation therefore share one kernel per model.
        Every other model takes :meth:`generate_loop`, which is
        bit-identical to per-world generation by construction.

        Subclasses with other vectorizable structure override this with
        genuine NumPy batch implementations; every override must keep
        bit-identity with the per-seed loop (each world's randomness still
        flows through that world's own seed-derived stream) and should
        route its result through :meth:`guarded_batch`.
        """
        if len(seeds):
            batch = self.generate_partial_batch(
                seeds, args, np.arange(self.n_components)
            )
            if batch is not None:
                return self.guarded_batch(seeds, args, np.asarray(batch, dtype=float))
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

    def guarded_batch(
        self, seeds: Sequence[int], args: tuple[Any, ...], matrix: np.ndarray
    ) -> np.ndarray:
        """Parity guard for vectorized ``generate_batch`` implementations.

        Re-generates the first world through the scalar path and compares it
        bitwise against the batch's first row (a batch of the wrong shape
        fails the same way). On any mismatch the whole batch is recomputed
        with :meth:`generate_loop` (bit-correct by construction) and
        :attr:`parity_fallbacks` is bumped, so a vectorization bug degrades
        to the slow path instead of corrupting samples. The probe sees one
        world only: a model whose scalar path a subclass may override must
        also check structurally (``type(self).generate is not ...``) before
        it vectorises, as the library's models do.
        """
        if not len(seeds):
            return matrix
        probe = np.asarray(self.generate(seeds[0], args), dtype=float)
        if matrix.shape == (len(seeds),) + probe.shape and np.array_equal(
            probe, matrix[0], equal_nan=True
        ):
            return matrix
        self.parity_fallbacks += 1
        return self.generate_loop(seeds, args)

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
        """Generate (with memoization) and count the invocation.

        The memo cache models the fact that within one Monte Carlo world the
        engine may touch several components of the same generated vector;
        only genuinely new ``(seed, args)`` pairs count as invocations.
        """
        self.check_args(args)
        key = (seed, tuple(args))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        vector = self._checked(self.generate(seed, key[1]))
        self.invocations += 1
        self.component_samples += self.n_components
        if len(self._cache) >= self._cache_limit:
            self._cache.clear()
        self._cache[key] = vector
        return vector

    def invoke_batch(self, seeds: Sequence[int], args: tuple[Any, ...]) -> np.ndarray:
        """Generate many worlds at once (with memoization) and count them.

        The batch analogue of :meth:`invoke`: rows already in the memo cache
        are served from it, only genuinely new ``(seed, args)`` pairs are
        generated (through :meth:`generate_batch`, in one call) and counted.
        Bit-identical to invoking each seed separately, for any backend.
        """
        self.check_args(args)
        key_args = tuple(args)
        n_seeds = len(seeds)
        matrix = np.empty((n_seeds, self.n_components), dtype=float)
        missing_order: list[int] = []  # distinct uncached seeds, first-seen order
        rows_by_seed: dict[int, list[int]] = {}
        for row, seed in enumerate(seeds):
            cached = self._cache.get((seed, key_args))
            if cached is not None:
                matrix[row] = cached
            else:
                rows = rows_by_seed.setdefault(seed, [])
                if not rows:
                    missing_order.append(seed)
                rows.append(row)
        if missing_order:
            generated = np.asarray(
                self.generate_batch(tuple(missing_order), key_args), dtype=float
            )
            if generated.shape != (len(missing_order), self.n_components):
                raise VGFunctionError(
                    f"{self.name}.generate_batch returned shape {generated.shape}, "
                    f"expected ({len(missing_order)}, {self.n_components})"
                )
            # Duplicated seeds within one batch generate once, exactly like
            # repeated scalar invokes served from the memo cache.
            self.invocations += len(missing_order)
            self.component_samples += len(missing_order) * self.n_components
            for position, seed in enumerate(missing_order):
                vector = generated[position].copy()
                for row in rows_by_seed[seed]:
                    matrix[row] = vector
                if len(self._cache) >= self._cache_limit:
                    self._cache.clear()
                self._cache[(seed, key_args)] = vector
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
        vector = self.invoke(seed, tuple(args))
        return vector[indices]

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
        counters move by exactly what that per-seed loop would have added
        (a partial generation counts once per row, duplicates included).
        Models that implement :meth:`generate_partial_batch` are served by
        one vectorized call; its first row is checked bitwise against the
        scalar :meth:`generate_partial`, and on any mismatch the batch is
        recomputed by the per-seed loop and :attr:`parity_fallbacks` is
        bumped — the same guard as :meth:`guarded_batch`. Everything else
        runs the per-seed loop.
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
            if (
                probe is not None
                and batch.shape == (n_seeds, indices.size)
                and np.array_equal(
                    np.asarray(probe, dtype=float), batch[0], equal_nan=True
                )
            ):
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
        so they can be drawn once per seed (:meth:`seed_events`), stacked,
        and pushed through the same elementwise arithmetic as one world.
        Asked for every component, the same override is the model's full
        batch kernel (:meth:`generate_batch`), so it must also agree with
        :meth:`generate` and decline when a subclass overrides that.
        """
        return None

    def seed_events(self, seed: int, draw: Callable[[int], Any]) -> Any:
        """``draw(seed)``, memoized per seed for :meth:`generate_partial_batch`.

        Only for event histories that are a function of the seed alone —
        never of ``args`` — which is why the memo is not part of the reuse
        plane and stays on under ``reuse=False``: it repeats no simulation
        outcome, only the draws every parameterization of one world shares.
        Every batch of every point reads the same arrays, so they are made
        read-only on insertion (through nested tuples): a model that writes
        into one gets a ``ValueError`` instead of corrupting later points.
        Bounded at ``_cache_limit`` = 4096 worlds (seeds) per model per
        process and cleared when full, like the invocation memo; a batch
        beyond the bound still runs the vectorised arithmetic, it only
        redraws. Emptied by :meth:`reset_counters`.
        """
        events = self._event_memo.get(seed)
        if events is None:
            if len(self._event_memo) >= self._cache_limit:
                self._event_memo.clear()
            events = self._event_memo[seed] = _frozen(draw(seed))
        return events

    def reset_counters(self) -> None:
        self.invocations = 0
        self.component_samples = 0
        self.parity_fallbacks = 0
        self._cache.clear()
        self._event_memo.clear()

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


def _frozen(events: Any) -> Any:
    """``events`` with every array in it (through nested tuples) read-only."""
    if isinstance(events, np.ndarray):
        events.setflags(write=False)
    elif isinstance(events, tuple):
        for item in events:
            _frozen(item)
    return events


def as_vg_function(obj: Any) -> VGFunction:
    """Coerce ``obj`` to a VGFunction, raising a helpful error otherwise."""
    if isinstance(obj, VGFunction):
        return obj
    raise VGFunctionError(f"expected a VGFunction, got {type(obj).__name__}")
