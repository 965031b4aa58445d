"""Checking and building the ``{kind: ..., <key>: ...}`` specs of a config.

Each family module (problems, kernels, network) owns one registry from a
kind to its constructor (alone, or first in a tuple).  A kind's keys are
the constructor's parameters after the leading ones that the builder
passes itself; errors name the key path.
"""

from __future__ import annotations

import inspect

from .errors import ValidationError


def check_keys(mapping, keys, where, lead=0):
    """Reject a non-mapping, an unknown key and a missing required one.

    ``keys`` is a collection of key names, or a constructor: then the keys
    are its parameters after the ``lead`` leading ones, and those without a
    default are required."""
    if not isinstance(mapping, dict):
        raise ValidationError(where, "expected a mapping")
    required = []
    if callable(keys):
        params = list(inspect.signature(keys).parameters.values())[lead:]
        keys = [p.name for p in params]
        required = [p.name for p in params if p.default is p.empty]
    unknown = set(mapping) - set(keys)
    if unknown:
        raise ValidationError(f"{where}.{sorted(unknown)[0]}", "unknown key")
    for name in required:
        if name not in mapping:
            raise ValidationError(f"{where}.{name}", "missing required key")


def check(registry, spec, where, lead=0):
    """``(registry entry, keyword arguments)`` of a checked spec whose
    constructor takes ``lead`` leading arguments besides its keys."""
    if not isinstance(spec, dict):
        raise ValidationError(where, "expected a mapping")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in registry:
        raise ValidationError(f"{where}.kind", f"must be one of {sorted(registry)}")
    entry = registry[kind]
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    check_keys(kwargs, _constructor(entry), where, lead)
    for key, value in kwargs.items():
        # YAML's true and false are ints to Python; no family key takes them
        if isinstance(value, bool):
            raise ValidationError(f"{where}.{key}", "must not be a boolean")
    return entry, kwargs


def _constructor(entry):
    return entry[0] if isinstance(entry, tuple) else entry


def call(fn, where, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a rejected argument value reported
    as a :class:`ValidationError` at ``where``."""
    try:
        return fn(*args, **kwargs)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(where, str(exc)) from exc


def build(registry, spec, where, *args):
    """Construct a spec: its kind's constructor called with ``args`` (the
    dimension or agent count it lives in) and the spec's keys."""
    entry, kwargs = check(registry, spec, where, len(args))
    return call(_constructor(entry), where, *args, **kwargs)
