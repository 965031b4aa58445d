"""Experiment configuration: strict parsing, validation, serialization.

The config grammar is YAML with a fixed key set (unknown keys are fatal);
see the README for the documented schema.  A parsed config round-trips
losslessly through :func:`serialize` / :func:`parse_config_text`.
"""

from __future__ import annotations

import copy
import io
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import yaml

from . import _spec, algorithms, kernels, network, problems
from .errors import ParseError, ValidationError

_ALGO_KEYS = {"kind", "eta", "delta", "max_iter", "y0"}
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
    _spec.check_keys(raw, [f.name for f in fields(ExperimentConfig)], "config",
                     ctor=ExperimentConfig)
    cfg = ExperimentConfig(**{k: copy.deepcopy(v) for k, v in raw.items()
                              if k not in ("tuning", "init")})
    for name, defaults in (("tuning", DEFAULT_TUNING), ("init", DEFAULT_INIT)):
        if name in raw:  # given keys replace the defaults one by one
            _spec.check_keys(raw[name], defaults, name)
            getattr(cfg, name).update(copy.deepcopy(raw[name]))

    problem_domain = problems.spec_domain(cfg.problem)
    kernel = kernels.kernel_from_spec(cfg.kernel, problem_domain.dim)
    _check_domain_compat(kernel.domain, problem_domain)
    _spec.check(network.GRAPHS, cfg.graph, "graph")

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
        if any(not _is_number(v) or v <= 0 for v in values):
            raise ValidationError(f"tuning.{grid}",
                                  "entries must be positive numbers")
    if cfg.tuning["select_by"] not in _SELECT_METRICS:
        raise ValidationError("tuning.select_by",
                              f"must be one of {sorted(_SELECT_METRICS)}")
    if not isinstance(cfg.seeds, list) or not cfg.seeds or \
            any(not _is_number(s, int) for s in cfg.seeds):
        raise ValidationError("seeds", "must be a nonempty list of integers")
    if cfg.init["kind"] not in _INIT_DRAWS:
        raise ValidationError("init.kind", f"must be one of {sorted(_INIT_DRAWS)}")
    if not _is_number(cfg.init["scale"]):
        raise ValidationError("init.scale", "must be a number")
    if not isinstance(cfg.output, str):
        raise ValidationError("output", "must be a path")
    if cfg.L is not None:
        if not _is_number(cfg.L) or cfg.L <= 0:
            raise ValidationError("L", "must be a positive number")
        cfg.L = float(cfg.L)
    return cfg


def _is_number(value, kinds=(int, float)):
    """``value`` is one of ``kinds`` and not a bool, which YAML's true and
    false parse to and Python counts as an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_domain_compat(kdom, pdom):
    """Mirror iterates live in the kernel domain and the objective must be
    defined there: the kernel's bounds lie inside the problem's, and the
    kernel is unbounded below wherever the problem is."""
    inside = (kdom.lo >= pdom.lo).all() and (kdom.hi <= pdom.hi).all()
    if not inside or np.isfinite(kdom.lo[np.isneginf(pdom.lo)]).any():
        raise ValidationError("kernel", f"domain {kdom.describe()} does not "
                              f"fit the problem's {pdom.describe()}")


def parse_config_text(text: str) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(io.StringIO(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(str(exc),
                         line=None if mark is None else mark.line + 1,
                         column=None if mark is None else mark.column + 1)
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
