"""Experiment configuration: strict parsing, validation, serialization.

The config grammar is YAML with a fixed key set (unknown keys are fatal);
see the README for the documented schema.  A parsed config round-trips
losslessly through :func:`serialize` / :func:`parse_config_text`.
"""

from __future__ import annotations

import copy
import io
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import _spec, algorithms, kernels, network, problems
from .errors import ParseError, ValidationError

# an algorithms entry's keys: ``kind``, which AlgoConfig calls ``algorithm``,
# and AlgoConfig's other parameters
_ALGO_KEYS = ["kind"] + [f.name for f in fields(algorithms.AlgoConfig)][1:]
_SELECT_METRICS = {"stationarity", "f_bar", "rel_error"}

DEFAULT_TUNING = {
    "eta_grid": [10.0**k for k in range(-4, 5)],
    "delta_grid": [10.0**k for k in range(-4, 5)],
    "select_by": "stationarity",
}
DEFAULT_INIT = {"kind": "random_positive", "scale": 1.0}


@dataclass
class ExperimentConfig:
    problem: dict
    kernel: dict
    graph: dict
    algorithms: list
    tuning: dict = field(default_factory=lambda: copy.deepcopy(DEFAULT_TUNING))
    seeds: list = field(default_factory=lambda: [0])
    output: str = "runs"
    init: dict = field(default_factory=lambda: dict(DEFAULT_INIT))
    L: float = None


def validate(raw: dict) -> ExperimentConfig:
    _spec.check_keys(raw, ExperimentConfig, "config")
    cfg = ExperimentConfig(**{k: copy.deepcopy(v) for k, v in raw.items()
                              if k not in ("tuning", "init")})
    for name, defaults in (("tuning", DEFAULT_TUNING), ("init", DEFAULT_INIT)):
        if name in raw:  # given keys replace the defaults one by one
            _spec.check_keys(raw[name], defaults, name)
            getattr(cfg, name).update(copy.deepcopy(raw[name]))

    problem_domain = problems.spec_domain(cfg.problem)
    kernel = kernels.kernel_from_spec(cfg.kernel, problem_domain.dim)
    _check_domain_compat(kernel.domain, problem_domain)
    m = cfg.problem["m"]  # every problem family takes the agent count m
    if not _is_number(m, int) or m < 1:
        raise ValidationError("problem.m", "must be a positive integer")
    network.graph_from_spec(cfg.graph, m)

    if not isinstance(cfg.algorithms, list) or not cfg.algorithms:
        raise ValidationError("algorithms", "need a nonempty list")
    for i, a in enumerate(cfg.algorithms):
        _spec.check_keys(a, _ALGO_KEYS, f"algorithms[{i}]")
        # an ``auto`` step is worked out per run; the default stands in here
        fixed = {k: v for k, v in a.items()
                 if v != "auto" or k not in ("eta", "delta")}
        _spec.call(algorithms.AlgoConfig.from_spec, f"algorithms[{i}]", fixed)

    for grid in ("eta_grid", "delta_grid"):
        values = cfg.tuning[grid]
        if not isinstance(values, list) or not values:
            raise ValidationError(f"tuning.{grid}", "must be a nonempty list")
        # .inf is an entry; an integer too large for a float is not
        if any(not _is_number(v) or not v > 0
               or not (isinstance(v, float) or _is_finite(v)) for v in values):
            raise ValidationError(f"tuning.{grid}", "entries must be "
                                  "positive numbers within float range")
    if cfg.tuning["select_by"] not in _SELECT_METRICS:
        raise ValidationError("tuning.select_by",
                              f"must be one of {sorted(_SELECT_METRICS)}")
    if not isinstance(cfg.seeds, list) or not cfg.seeds or \
            any(not _is_number(s, int) or s < 0 for s in cfg.seeds) or \
            len(set(cfg.seeds)) < len(cfg.seeds):
        raise ValidationError("seeds", "must be a nonempty list of distinct "
                              "nonnegative integers")
    if cfg.init["kind"] not in _INIT_DRAWS:
        raise ValidationError("init.kind", f"must be one of {sorted(_INIT_DRAWS)}")
    if not _is_finite(cfg.init["scale"]):
        raise ValidationError("init.scale", "must be a finite number")
    if not isinstance(cfg.output, str):
        raise ValidationError("output", "must be a path")
    if cfg.L is not None:
        if not _is_finite(cfg.L) or cfg.L <= 0:
            raise ValidationError("L", "must be a positive number")
        cfg.L = float(cfg.L)
    return cfg


def _is_number(value, kinds=(int, float)):
    """``value`` is one of ``kinds`` and not a bool, which YAML's true and
    false parse to and Python counts as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_finite(value):
    """``value`` is a number that converts to a finite float: not NaN, not
    infinite, and no integer too large for a float."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _check_domain_compat(kdom, pdom):
    """Mirror iterates live in the kernel domain and the objective must be
    defined there: the kernel's bounds lie inside the problem's, and the
    kernel is unbounded below wherever the problem is."""
    inside = (kdom.lo >= pdom.lo).all() and (kdom.hi <= pdom.hi).all()
    if not inside or np.isfinite(kdom.lo[np.isneginf(pdom.lo)]).any():
        raise ValidationError("kernel", f"domain {kdom.describe()} does not "
                              f"fit the problem's {pdom.describe()}")


def load_yaml(text: str):
    """The YAML document ``text``; a YAML error is raised as a
    :class:`ParseError` with its line and column."""
    try:
        return yaml.safe_load(io.StringIO(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(str(exc),
                         line=None if mark is None else mark.line + 1,
                         column=None if mark is None else mark.column + 1)


def parse_config_text(text: str) -> ExperimentConfig:
    raw = load_yaml(text)
    if not isinstance(raw, dict):
        raise ParseError("config root must be a mapping")
    return validate(raw)


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize(cfg: ExperimentConfig) -> str:
    """Canonical YAML echo of the config; parsing it reproduces the config."""
    raw = asdict(cfg)
    if cfg.L is None:
        del raw["L"]
    return yaml.safe_dump(raw, sort_keys=True)


def _truth_perturbed(rng, prob, scale):
    if prob.x_true is None:
        raise ValidationError("init.kind", "problem has no ground truth")
    return prob.x_true + scale * np.abs(rng.standard_normal(prob.d)) + 1e-8


# init kind: draw(rng, prob, scale) of the consensus initial point
_INIT_DRAWS = {
    "random_positive": lambda rng, prob, scale:
        scale * np.abs(rng.standard_normal(prob.d)) + 1e-8,
    "gauss": lambda rng, prob, scale: scale * rng.standard_normal(prob.d),
    "truth_perturbed": _truth_perturbed,
    "ones": lambda rng, prob, scale: scale * np.ones(prob.d),
}


def initial_point(cfg: ExperimentConfig, prob, kernel, seed: int) -> np.ndarray:
    """Draw the (consensus) initial point for one seed."""
    rng = np.random.default_rng([seed, 17])
    scale = float(cfg.init.get("scale", DEFAULT_INIT["scale"]))
    return _INIT_DRAWS[cfg.init["kind"]](rng, prob, scale)
