"""Checking and building the ``{kind: ..., <key>: ...}`` specs of a config.

Each family module (problems, kernels, network) owns one registry
``{kind: (constructor, allowed keys, ...)}``; errors name the key path.
"""

from __future__ import annotations

import inspect

from .errors import ValidationError


def check_keys(mapping, allowed, where, ctor=None):
    """Reject a non-mapping, a key not in ``allowed``, and a missing allowed
    key that ``ctor`` takes as a parameter without a default."""
    if not isinstance(mapping, dict):
        raise ValidationError(where, "expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ValidationError(f"{where}.{sorted(unknown)[0]}", "unknown key")
    if ctor is not None:
        for name, param in inspect.signature(ctor).parameters.items():
            if param.default is param.empty and name in allowed \
                    and name not in mapping:
                raise ValidationError(f"{where}.{name}", "missing required key")


def check(registry, spec, where):
    """``(registry entry, keyword arguments)`` of a checked spec."""
    if not isinstance(spec, dict):
        raise ValidationError(where, "expected a mapping")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in registry:
        raise ValidationError(f"{where}.kind", f"must be one of {sorted(registry)}")
    entry = registry[kind]
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    check_keys(kwargs, entry[1], where, ctor=entry[0])
    for key, value in kwargs.items():
        # YAML's true and false are ints to Python; no family key takes them
        if isinstance(value, bool):
            raise ValidationError(f"{where}.{key}", "must not be a boolean")
    return entry, kwargs


def call(fn, where, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a rejected argument value reported
    as a :class:`ValidationError` at ``where``."""
    try:
        return fn(*args, **kwargs)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(where, str(exc)) from exc


def build(registry, spec, where, *args):
    """Construct a spec: its kind's constructor called with ``args`` (the
    dimension or agent count it lives in) and the spec's keys."""
    entry, kwargs = check(registry, spec, where)
    return call(entry[0], where, *args, **kwargs)
