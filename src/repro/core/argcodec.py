"""Type-preserving serialization of VG parameterization keys.

Basis distributions are keyed by ``(vg_name, tuple(model_args))``, and those
keys travel to disk in the header of every basis file
(:mod:`repro.core.basis_store`). Plain JSON round-trips are not
sound for these keys: tuples come back as lists, so a nested tuple arg
decodes unhashable — a reloaded basis can never exact-hit its original key,
and inserting it into a dict-keyed store crashes. JSON also cannot carry
non-finite floats portably, and offers no way to distinguish a tuple arg
from a genuine list arg.

The scheme here tags every value with its concrete type and reconstructs it
exactly: ``decode_args(encode_args(key)) == key`` with matching types for
every supported value (bool, int, float — non-finite included — str, None,
and arbitrarily nested tuples/lists of those).
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.errors import FingerprintError

#: Non-finite floats JSON cannot carry portably, as tagged strings.
_FLOAT_WORDS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _encode_value(value: Any) -> Any:
    # bool first: bool is an int subclass and would match the int branch.
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, float):
        if math.isfinite(value):
            return {"t": "float", "v": value}
        word = "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        return {"t": "float", "v": word}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if value is None:
        return {"t": "none"}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"t": "list", "v": [_encode_value(item) for item in value]}
    raise FingerprintError(
        f"cannot encode model arg of type {type(value).__name__}: {value!r}"
    )


def _decode_value(payload: Any) -> Any:
    if not isinstance(payload, dict) or "t" not in payload:
        raise FingerprintError(f"malformed encoded arg: {payload!r}")
    tag = payload["t"]
    if tag == "bool":
        return bool(payload["v"])
    if tag == "int":
        return int(payload["v"])
    if tag == "float":
        raw = payload["v"]
        if isinstance(raw, str):
            if raw not in _FLOAT_WORDS:
                raise FingerprintError(f"unknown float word {raw!r}")
            return _FLOAT_WORDS[raw]
        return float(raw)
    if tag == "str":
        return str(payload["v"])
    if tag == "none":
        return None
    if tag == "tuple":
        return tuple(_decode_value(item) for item in payload["v"])
    if tag == "list":
        return [_decode_value(item) for item in payload["v"]]
    raise FingerprintError(f"unknown encoded arg tag {tag!r}")


def encode_value(value: Any) -> Any:
    """Tag one value for an exact JSON round-trip (public single-value form).

    The ``repro.api`` layered config uses this for its ``to_mapping``
    portable form: every leaf keeps its concrete type (bool vs int, tuple
    vs list, non-finite floats) across a JSON hop.
    """
    return _encode_value(value)


def decode_value(payload: Any) -> Any:
    """Reconstruct a value tagged by :func:`encode_value`."""
    return _decode_value(payload)


def encode_args(args: tuple[Any, ...]) -> str:
    """Serialize a model-args tuple to JSON text, preserving exact types."""
    return json.dumps([_encode_value(value) for value in tuple(args)])


def decode_args(text: str) -> tuple[Any, ...]:
    """Reconstruct a model-args tuple encoded by :func:`encode_args`."""
    return tuple(_decode_value(item) for item in json.loads(text))

