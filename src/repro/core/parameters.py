"""Scenario parameters and the parameter space.

Parameters are the ``@variables`` the paper's DSL declares::

    DECLARE PARAMETER @purchase1 AS RANGE 0 TO 52 STEP BY 1;
    DECLARE PARAMETER @feature AS SET (12, 36, 44);

Every parameter has a finite, ordered domain of discrete values. A
*point* is one full assignment; the *space* is the cartesian grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import ParameterError


@dataclass(frozen=True)
class Parameter:
    """One named parameter with its finite ordered domain."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ParameterError("parameter name must be non-empty")
        if not self.values:
            raise ParameterError(f"parameter @{self.name} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise ParameterError(f"parameter @{self.name} has duplicate domain values")

    @classmethod
    def from_range(cls, name: str, start: int, stop: int, step: int = 1) -> "Parameter":
        """``RANGE start TO stop STEP BY step`` — inclusive of ``stop``."""
        if step <= 0:
            raise ParameterError(f"parameter @{name}: STEP BY must be positive, got {step}")
        if stop < start:
            raise ParameterError(f"parameter @{name}: range {start} TO {stop} is empty")
        return cls(name, tuple(range(start, stop + 1, step)))

    @classmethod
    def from_set(cls, name: str, values: Sequence[Any]) -> "Parameter":
        """``SET (v1, v2, ...)`` — explicit discrete domain."""
        return cls(name, tuple(values))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: Any) -> bool:
        return value in self.values

    def index_of(self, value: Any) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ParameterError(
                f"value {value!r} not in domain of @{self.name}"
            ) from None

    def default(self) -> Any:
        """The default slider position: the first domain value."""
        return self.values[0]

    def neighbors(self, value: Any) -> tuple[Any, ...]:
        """Domain values adjacent to ``value`` (for proactive exploration)."""
        index = self.index_of(value)
        result = []
        if index > 0:
            result.append(self.values[index - 1])
        if index < len(self.values) - 1:
            result.append(self.values[index + 1])
        return tuple(result)


class ParameterSpace:
    """An ordered collection of parameters; iterable as a full grid."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self._parameters: dict[str, Parameter] = {}
        for parameter in parameters:
            key = parameter.name.lower()
            if key in self._parameters:
                raise ParameterError(f"duplicate parameter @{parameter.name}")
            self._parameters[key] = parameter

    def __len__(self) -> int:
        return len(self._parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._parameters.values())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._parameters

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self._parameters.values())

    def parameter(self, name: str) -> Parameter:
        try:
            return self._parameters[name.lower()]
        except KeyError:
            raise ParameterError(f"no such parameter: @{name}") from None

    def grid_size(self, *, exclude: Sequence[str] = ()) -> int:
        """Number of points in the full grid (optionally excluding axes)."""
        excluded = {name.lower() for name in exclude}
        size = 1
        for parameter in self:
            if parameter.name.lower() not in excluded:
                size *= len(parameter)
        return size

    def validate_point(self, point: Mapping[str, Any]) -> dict[str, Any]:
        """Check a full assignment; returns it with canonical (lower) keys."""
        normalized = {str(k).lstrip("@").lower(): v for k, v in point.items()}
        missing = [p.name for key, p in self._parameters.items() if key not in normalized]
        if missing:
            raise ParameterError(f"point is missing parameters: {missing}")
        extra = [k for k in normalized if k not in self._parameters]
        if extra:
            raise ParameterError(f"point has unknown parameters: {extra}")
        for key, parameter in self._parameters.items():
            value = normalized[key]
            if value not in parameter:
                raise ParameterError(
                    f"value {value!r} not in domain of @{parameter.name} "
                    f"(domain: {parameter.values})"
                )
        return normalized

    def default_point(self) -> dict[str, Any]:
        """Every parameter at its default (first) value."""
        return {p.name.lower(): p.default() for p in self}

    def grid(self, *, exclude: Sequence[str] = ()) -> Iterator[dict[str, Any]]:
        """Iterate the full cartesian grid in row-major domain order.

        ``exclude`` removes axes (the graph axis is excluded when the engine
        treats it as the component dimension rather than a parameter).
        """
        excluded = {name.lower() for name in exclude}
        active = [p for p in self if p.name.lower() not in excluded]
        names = [p.name.lower() for p in active]
        for combo in itertools.product(*(p.values for p in active)):
            yield dict(zip(names, combo))

    def point_key(self, point: Mapping[str, Any], *, exclude: Sequence[str] = ()) -> tuple:
        """A hashable canonical key for a (partial) point."""
        excluded = {name.lower() for name in exclude}
        normalized = {str(k).lstrip("@").lower(): v for k, v in point.items()}
        return tuple(
            (key, normalized[key])
            for key in self._parameters
            if key not in excluded and key in normalized
        )

    def without(self, *names: str) -> "ParameterSpace":
        """A copy of this space with the given parameters removed."""
        dropped = {name.lstrip("@").lower() for name in names}
        return ParameterSpace([p for p in self if p.name.lower() not in dropped])
