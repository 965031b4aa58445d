import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import logged_cells
from dualmix import _spec, algorithms, cli, config, diagnostics, \
    invariants, kernels, network, problems
from dualmix.errors import ParseError, ValidationError

MINIMAL = """
problem: {kind: poisson, d: 12, n: 8, m: 4, seed: 1}
kernel: {kind: burg, mu: 1.0}
graph: {kind: erdos_renyi, p: 0.6, seed: 7}
algorithms:
  - {kind: dmgt, eta: 0.05, delta: 1.0, max_iter: 40}
  - {kind: dmd, eta: 0.05, max_iter: 40}
"""


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def test_parse_minimal_fills_defaults(tmp_path):
    cfg = config.parse_config(_write(tmp_path, MINIMAL))
    assert cfg.seeds == [0]
    assert cfg.output == "runs"
    assert cfg.init == {"kind": "random_positive", "scale": 1.0}
    assert cfg.tuning["select_by"] == "stationarity"
    assert cfg.tuning["eta_grid"] == [10.0**k for k in range(-4, 5)]


def test_parse_roundtrip_lossless(tmp_path):
    cfg = config.parse_config(_write(tmp_path, MINIMAL))
    echo = config.serialize(cfg)
    cfg2 = config.parse_config_text(echo)
    assert config.serialize(cfg2) == echo


def _readme_config_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_config_example_parses_and_lists_every_kind():
    block = _readme_config_block()
    config.parse_config_text(block)
    # a top-level key's indented comment lines hold its "kinds:" list, one
    # kind per "|"-separated or line-leading item
    listed = {}
    for key, comment in re.findall(r"^(\w+):.*\n((?:[ \t]+#.*\n)*)", block,
                                   re.M):
        if "kinds:" in comment:
            text = comment.replace("#", " ").split("kinds:", 1)[1]
            listed[key] = {re.match(r"\s*(\w+)", piece).group(1)
                           for piece in re.split(r"[|\n]", text)
                           if piece.strip()}
    assert listed["problem"] == set(problems.PROBLEMS)
    assert listed["kernel"] == set(kernels.KERNELS)


def _listed_keys(entry):
    """``(kind, required keys, optional keys)`` of one README ``# kinds:``
    entry: ``kind(req,..[,opt,..])``, ``kind[opt,..]`` or
    ``kind{key: .., ..}``, whose keys are all required."""
    kind, keys = re.match(r"\s*(\w+)(\{.*\}|\(.*?\)|\[.*?\])?",
                          entry).groups()
    keys = keys or ""
    if keys.startswith("{"):
        return kind, re.findall(r"(\w+):", keys), []
    required, _, optional = keys.strip("()").partition("[")
    return kind, [k for k in required.split(",") if k], \
        [k for k in optional.rstrip("]").split(",") if k]


def test_readme_kinds_list_their_constructor_parameters():
    # a kind's keys are its constructor's parameters after the leading
    # arguments the builder passes itself (none for problems)
    block = _readme_config_block()
    registries = {"problem": (problems.PROBLEMS, 0),
                  "kernel": (kernels.KERNELS, 1),
                  "graph": (network.GRAPHS, 1)}
    seen = set()
    for key, comment in re.findall(r"^(\w+):.*\n((?:[ \t]+#.*\n)*)", block,
                                   re.M):
        if key not in registries:
            continue
        registry, lead = registries[key]
        text = comment.replace("#", " ").split("kinds:", 1)[1]
        for piece in re.split(r"[|\n]", text):
            if not piece.strip():
                continue
            kind, required, optional = _listed_keys(piece)
            params = list(inspect.signature(_spec._constructor(
                registry[kind])).parameters.values())[lead:]
            assert required == [p.name for p in params
                                if p.default is p.empty], kind
            assert optional == [p.name for p in params
                                if p.default is not p.empty], kind
            seen.add((key, kind))
    assert seen == {(key, kind) for key, (registry, _) in registries.items()
                    for kind in registry}


def _readme_schema_blocks(section):
    """The names listed in each unlabelled code block of the README section
    titled ``section``, comma-separated."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    text = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return [[name.strip() for name in block.split(",")]
            for block in re.findall(r"^```\n(.*?)^```", text, re.M | re.S)]


def test_readme_csv_and_manifest_schemas_match_the_code(tmp_path):
    # the columns are RunRecord's fields in order; the manifest's keys and
    # its run entries' keys are those run_batch writes
    [columns] = _readme_schema_blocks("CSV schema")
    assert columns == diagnostics.CSV_COLUMNS
    top, entry = _readme_schema_blocks("Manifest schema")
    cli.run_batch(config.parse_config_text(MINIMAL), tmp_path, max_iter=2)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(top) == sorted(manifest)
    assert len(manifest["runs"]) == 2
    for run in manifest["runs"]:
        assert sorted(entry) == sorted(run)


def test_unknown_keys_are_fatal():
    raw = yaml.safe_load(MINIMAL)
    raw["problem"]["banana"] = 1
    with pytest.raises(ValidationError) as ei:
        config.validate(raw)
    assert "banana" in str(ei.value)
    raw2 = yaml.safe_load(MINIMAL)
    raw2["typo_key"] = {}
    with pytest.raises(ValidationError):
        config.validate(raw2)


def test_empty_grid_rejected():
    raw = yaml.safe_load(MINIMAL)
    raw["tuning"] = {"eta_grid": []}
    with pytest.raises(ValidationError) as ei:
        config.validate(raw)
    assert ei.value.key == "tuning.eta_grid"


def test_kernel_problem_domain_compatibility():
    raw = yaml.safe_load(MINIMAL)
    raw["kernel"] = {"kind": "euclidean"}  # whole space on an orthant problem
    with pytest.raises(ValidationError):
        config.validate(raw)
    raw["problem"] = {"kind": "phase_retrieval", "d": 8, "n": 4, "m": 2,
                      "noise_sd": 0.1, "seed": 0}
    raw["kernel"] = {"kind": "quartic"}
    config.validate(raw)  # compatible pairing
    raw["kernel"] = {"kind": "burg"}  # orthant kernel cannot host reals problem
    with pytest.raises(ValidationError):
        config.validate(raw)


# Problem kind -> the catalogue kernel kinds the name table of the previous
# domain check accepted: reals problems take the whole-space kernels, orthant
# problems the orthant kernels and Fermi-Dirac's (0, 1)^d.
_REALS_KERNELS = {"euclidean", "power", "quartic", "exponential",
                  "norm_exponential"}
_ORTHANT_KERNELS = {"boltzmann_shannon", "burg", "tsallis", "harmonic",
                    "fermi_dirac"}
_PROBLEM_SPECS = {
    "quadratic": ({"d": 4, "m": 2}, _REALS_KERNELS),
    "entropy": ({"d": 4, "m": 2}, _ORTHANT_KERNELS),
    "phase_retrieval": ({"d": 4, "n": 3, "m": 2, "noise_sd": 0.1},
                        _REALS_KERNELS),
    "poisson": ({"d": 4, "n": 3, "m": 2}, _ORTHANT_KERNELS),
    "tv_deblur": ({"d_img": 4, "m": 2}, _ORTHANT_KERNELS),
}
_CATALOGUE_KINDS = sorted(_REALS_KERNELS | _ORTHANT_KERNELS | {"hellinger"})


@pytest.mark.parametrize("problem", sorted(_PROBLEM_SPECS))
@pytest.mark.parametrize("kernel", _CATALOGUE_KINDS)
def test_domain_verdict_matches_name_table(problem, kernel):
    keys, accepted = _PROBLEM_SPECS[problem]
    raw = yaml.safe_load(MINIMAL)
    raw["problem"] = {"kind": problem, "seed": 0, **keys}
    raw["kernel"] = {"kind": kernel}
    if kernel in accepted:
        config.validate(raw)
    else:
        with pytest.raises(ValidationError):
            config.validate(raw)


def _shifted_burg(shift, **base):
    return lambda raw: raw.update(kernel={
        "kind": "shifted", "base": {"kind": "burg", **base}, "shift": shift})


# case -> (edit of MINIMAL, key path of the error)
_BAD_CONFIGS = {
    "missing problem.d": (lambda raw: raw["problem"].pop("d"), "problem.d"),
    "kernel.mu -1": (lambda raw: raw["kernel"].update(mu=-1), "kernel"),
    "algorithms[0].eta -0.05": (
        lambda raw: raw["algorithms"][0].update(eta=-0.05), "algorithms[0]"),
    "algorithms[1].y0 both": (
        lambda raw: raw["algorithms"][1].update(y0="both"), "algorithms[1]"),
    "algorithms[1].max_iter -4": (
        lambda raw: raw["algorithms"][1].update(max_iter=-4), "algorithms[1]"),
    # YAML's true and false are ints to Python; no number key takes them
    "algorithms[0].eta true": (
        lambda raw: raw["algorithms"][0].update(eta=True), "algorithms[0]"),
    "algorithms[0].delta true": (
        lambda raw: raw["algorithms"][0].update(delta=True), "algorithms[0]"),
    "algorithms[1].max_iter true": (
        lambda raw: raw["algorithms"][1].update(max_iter=True), "algorithms[1]"),
    "tuning.eta_grid [true]": (
        lambda raw: raw.update(tuning={"eta_grid": [True]}), "tuning.eta_grid"),
    "tuning.delta_grid [0.1, true]": (
        lambda raw: raw.update(tuning={"delta_grid": [0.1, True]}),
        "tuning.delta_grid"),
    "seeds [true]": (lambda raw: raw.update(seeds=[True]), "seeds"),
    "seeds [0, -1]": (lambda raw: raw.update(seeds=[0, -1]), "seeds"),
    # a repeated seed would assemble one replica twice
    "seeds [1, 1]": (lambda raw: raw.update(seeds=[1, 1]), "seeds"),
    "init.scale false": (
        lambda raw: raw.update(init={"kind": "ones", "scale": False}),
        "init.scale"),
    "L true": (lambda raw: raw.update(L=True), "L"),
    "kernel.mu true": (lambda raw: raw["kernel"].update(mu=True), "kernel.mu"),
    "problem.m true": (lambda raw: raw["problem"].update(m=True), "problem.m"),
    "problem.seed true": (lambda raw: raw["problem"].update(seed=True),
                          "problem.seed"),
    "graph.p true": (lambda raw: raw["graph"].update(p=True), "graph.p"),
    "graph.seed true": (lambda raw: raw["graph"].update(seed=True),
                        "graph.seed"),
    "graph.seed -7": (lambda raw: raw["graph"].update(seed=-7), "graph"),
    "graph.p 0": (lambda raw: raw["graph"].update(p=0), "graph"),
    "graph.kind star": (lambda raw: raw["graph"].update(kind="star"),
                        "graph.kind"),
    # the graph is drawn at the problem's m when the config is parsed
    "ring on problem.m 1": (
        lambda raw: (raw["problem"].update(m=1),
                     raw.update(graph={"kind": "ring"})), "graph"),
    "erdos_renyi on problem.m 1": (
        lambda raw: raw["problem"].update(m=1), "graph"),
    "graph.p 0.01 never connects": (
        lambda raw: raw["graph"].update(p=0.01), "graph"),
    "problem.m 0": (lambda raw: raw["problem"].update(m=0), "problem.m"),
    "problem.m 2.5": (lambda raw: raw["problem"].update(m=2.5), "problem.m"),
    # non-finite numbers
    "tuning.eta_grid [nan]": (
        lambda raw: raw.update(tuning={"eta_grid": [math.nan]}),
        "tuning.eta_grid"),
    "tuning.delta_grid [nan]": (
        lambda raw: raw.update(tuning={"delta_grid": [1.0, math.nan]}),
        "tuning.delta_grid"),
    # a grid entry must convert to a float: .inf does, 10**400 does not
    "tuning.eta_grid [10**400]": (
        lambda raw: raw.update(tuning={"eta_grid": [0.1, 10**400]}),
        "tuning.eta_grid"),
    "tuning.delta_grid [10**400]": (
        lambda raw: raw.update(tuning={"delta_grid": [10**400]}),
        "tuning.delta_grid"),
    "algorithms[1].max_iter inf": (
        lambda raw: raw["algorithms"][1].update(max_iter=math.inf),
        "algorithms[1]"),
    "L nan": (lambda raw: raw.update(L=math.nan), "L"),
    "L inf": (lambda raw: raw.update(L=math.inf), "L"),
    "init.scale inf": (
        lambda raw: raw.update(init={"kind": "ones", "scale": math.inf}),
        "init.scale"),
    "init.kind uniform": (lambda raw: raw.update(init={"kind": "uniform"}),
                          "init.kind"),
    "shifted euclidean on poisson": (
        lambda raw: raw.update(kernel={"kind": "shifted",
                                       "base": {"kind": "euclidean"},
                                       "shift": [0.0] * 12}), "kernel"),
    "shift auto-init": (_shifted_burg("auto-init"), "kernel"),
    "shifted burg below the orthant": (
        _shifted_burg([0.5] * 11 + [-0.01]), "kernel"),
    "kernel.base.mu 0": (_shifted_burg([0.0] * 12, mu=0.0), "kernel.base"),
    "missing kernel.shift": (
        lambda raw: raw.update(kernel={"kind": "shifted",
                                       "base": {"kind": "burg"}}),
        "kernel.shift"),
    # unknown keys: each spec's keys are its constructor's parameters
    "problem.k": (lambda raw: raw["problem"].update(k=3), "problem.k"),
    "kernel.nu": (lambda raw: raw["kernel"].update(nu=1.0), "kernel.nu"),
    "kernel.base.nu": (_shifted_burg([0.0] * 12, nu=1.0), "kernel.base.nu"),
    "graph.q": (lambda raw: raw["graph"].update(q=0.5), "graph.q"),
    "algorithms[0].lr": (lambda raw: raw["algorithms"][0].update(lr=0.1),
                         "algorithms[0].lr"),
    "tuning.grid": (lambda raw: raw.update(tuning={"grid": [1.0]}),
                    "tuning.grid"),
    "init.shape": (lambda raw: raw.update(init={"kind": "ones", "shape": 2}),
                   "init.shape"),
    "config.foo": (lambda raw: raw.update(foo=1), "config.foo"),
    "algorithms []": (lambda raw: raw.update(algorithms=[]), "algorithms"),
    "tuning.select_by G_proxy": (
        lambda raw: raw.update(tuning={"select_by": "G_proxy"}),
        "tuning.select_by"),
    "output 3": (lambda raw: raw.update(output=3), "output"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_config_errors_name_their_key_at_parse_time(case, tmp_path, capsys):
    edit, key = _BAD_CONFIGS[case]
    raw = yaml.safe_load(MINIMAL)
    edit(raw)
    with pytest.raises(ValidationError) as ei:
        config.validate(raw)
    assert ei.value.key == key
    cfgfile = _write(tmp_path, yaml.safe_dump(raw))
    assert cli.main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not (tmp_path / "o").exists()


def test_tune_grid_takes_an_infinite_entry():
    raw = yaml.safe_load(MINIMAL)
    raw["tuning"] = {"delta_grid": [1.0, math.inf]}
    assert config.validate(raw).tuning["delta_grid"] == [1.0, math.inf]


def test_a_yaml_root_that_is_not_a_mapping_exits_2(tmp_path, capsys):
    cfgfile = _write(tmp_path, "- {kind: poisson}\n")
    assert cli.main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config root must be a mapping")
    assert not (tmp_path / "o").exists()


def test_truth_perturbed_init_needs_a_ground_truth(tmp_path, capsys):
    # entropy has no ground truth, which only its generated data can show
    cfgfile = _write(tmp_path, """
problem: {kind: entropy, d: 4, m: 3}
kernel: {kind: boltzmann_shannon}
graph: {kind: complete}
algorithms: [{kind: dmd, max_iter: 5}]
init: {kind: truth_perturbed}
""")
    assert cli.main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err \
        == "error: init.kind: problem has no ground truth\n"
    assert not (tmp_path / "o").exists()


# case -> (arguments, with CFG for a config file, and what stderr says)
_BAD_FLAGS = {
    "run --seed -1": (["run", "CFG", "--seed", "-1"],
                      "argument --seed: must be a nonnegative integer"),
    "tune --seed -1": (["tune", "CFG", "--seed", "-1"],
                       "argument --seed: must be a nonnegative integer"),
    "certify --seed -1": (["--seed", "-1"],
                          "argument --seed: must be a nonnegative integer"),
    "certify --samples 0": (["--samples", "0"],
                            "argument --samples: must be a positive integer"),
    "certify --dim 0": (["--dim", "0"],
                        "argument --dim: must be a positive integer"),
    "certify --deltas abc": (["--deltas", "abc"], "argument --deltas: "),
    "certify --deltas -0.1": (["--deltas", "-0.1"], "argument --deltas: "),
    "certify --deltas 0.1,,1": (["--deltas", "0.1,,1"], "argument --deltas: "),
    "certify --deltas inf": (["--deltas", "inf"], "argument --deltas: "),
    "certify --floor nan": (["--floor", "nan"], "argument --floor: "),
    "certify --kernel [1": (["--kernel", "[1"], "error: "),
}


@pytest.mark.parametrize("case", sorted(_BAD_FLAGS))
def test_bad_flags_exit_2_before_any_work(case, tmp_path, capsys):
    # exit code 1 is certify's verdict of a violation, so bad input is 2
    args, said = _BAD_FLAGS[case]
    if args[0] in ("run", "tune"):
        args[1] = str(_write(tmp_path, MINIMAL))
        args += ["--out", str(tmp_path / "o")]
    else:
        args = ["certify", "--kernel", "burg", "--samples", "5", *args]
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert said in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "tune"])
def test_negative_max_iter_flag_exits_2(command, tmp_path, capsys):
    cfgfile = _write(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as ei:
        cli.main([command, str(cfgfile), "--out", str(tmp_path / "o"),
                  "--max-iter", "-4"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --max-iter: must be a nonnegative integer" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "tune"])
def test_threads_flag_is_gone(command, tmp_path, capsys):
    # cells run in one thread; cli.tune and cli.run_batch keep the keyword
    cfgfile = _write(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as ei:
        cli.main([command, str(cfgfile), "--out", str(tmp_path / "o"),
                  "--threads", "2"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# init kind -> its draw of x0, written out
_INIT_DRAWS = {
    "random_positive": lambda rng, prob, scale:
        scale * np.abs(rng.standard_normal(prob.d)) + 1e-8,
    "gauss": lambda rng, prob, scale: scale * rng.standard_normal(prob.d),
    "truth_perturbed": lambda rng, prob, scale:
        prob.x_true + scale * np.abs(rng.standard_normal(prob.d)) + 1e-8,
    "ones": lambda rng, prob, scale: scale * np.ones(prob.d),
}


@pytest.mark.parametrize("kind", sorted(_INIT_DRAWS))
def test_initial_point_draws_each_kind(kind):
    raw = yaml.safe_load(MINIMAL)
    raw["init"] = {"kind": kind, "scale": 0.5}
    cfg = config.validate(raw)
    prob = cli.build_problem(cfg, 3)
    x0 = config.initial_point(cfg, prob, None, 3)
    want = _INIT_DRAWS[kind](np.random.default_rng([3, 17]), prob, 0.5)
    assert x0.tobytes() == want.tobytes()


def test_shifted_kernel_within_the_orthant_is_accepted():
    raw = yaml.safe_load(MINIMAL)
    raw["kernel"] = {"kind": "shifted", "base": {"kind": "burg", "mu": 1.0},
                     "shift": [0.0] * 6 + [0.25] * 6}
    cfg = config.validate(raw)
    kernel = cli.build_kernel(cfg, cfg.problem["d"])
    np.testing.assert_array_equal(kernel.domain.lo, [0.0] * 6 + [0.25] * 6)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as ei:
        config.parse_config_text("problem: {kind: poisson\nbad")
    assert ei.value.line is not None


def test_poisson_replica_config_matches_experiment_scale(tmp_path):
    text = """
problem: {kind: poisson, d: 200, n: 50, m: 32, seed: 1}
kernel: {kind: burg, mu: 1.0}
graph: {kind: erdos_renyi, p: 0.3, seed: 7}
algorithms: [{kind: dmgt, eta: 0.01, delta: 1.0, max_iter: 10}]
"""
    cfg = config.parse_config(_write(tmp_path, text))
    assert (cfg.problem["d"], cfg.problem["n"]) == (200, 50)
    assert cfg.problem["m"] == 32


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def test_run_batch_outputs_and_manifest(tmp_path):
    cfg = config.parse_config_text(MINIMAL)
    cfg.seeds = [1, 2]
    out = tmp_path / "out"
    manifest = cli.run_batch(cfg, out)
    files = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in files
    assert sum(f.startswith("run_") for f in files) == 4
    assert {"plot_stationarity.csv", "plot_rel_error.csv",
            "plot_f_bar.csv"} <= set(files)
    loaded = json.loads((out / "manifest.json").read_text())
    assert loaded["config_hash"] == manifest["config_hash"]
    for entry in loaded["runs"]:
        assert {"rho", "L", "eta", "seed", "status"} <= set(entry)
    # rel_error is filled against the batch-wide best objective
    text = (out / loaded["csv_files"][0]).read_text().splitlines()
    cols = text[0].split(",")
    idx = cols.index("rel_error")
    rels = [float(r.split(",")[idx]) for r in text[1:] if r.split(",")[idx]]
    assert min(rels) >= 0.0


def test_manifest_carries_each_runs_divergence_reason(tmp_path):
    cfg = config.parse_config_text(MINIMAL.replace(
        "{kind: dmd, eta: 0.05, max_iter: 40}",
        "{kind: dgt, eta: 1.0e3, max_iter: 40}"))
    cfg.seeds = [1]
    cli.run_batch(cfg, tmp_path / "out")
    runs = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
    assert [(r["algorithm"], r["status"], r["diverged_at"], r["reason"])
            for r in runs] == [
        ("dmgt", "done", None, ""),
        ("dgt", "diverged", 5, "DomainViolation: updated primal iterate is "
         "outside the open domain orthant(d=12) (boundary guard 1e-14)")]


def test_run_batch_deterministic_across_threads(tmp_path):
    cfg = config.parse_config_text(MINIMAL)
    cfg.seeds = [1, 2]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.run_batch(cfg, out1, threads=1)
    cli.run_batch(cfg, out2, threads=4)
    for p in sorted(out1.iterdir()):
        assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name


def test_run_batch_cleans_partial_outputs(tmp_path, monkeypatch):
    cfg = config.parse_config_text(MINIMAL)
    out = tmp_path / "boom"

    def explode(results, metric):
        raise RuntimeError("disk full")

    monkeypatch.setattr(cli, "_plot_data", explode)
    with pytest.raises(RuntimeError):
        cli.run_batch(cfg, out)
    assert not out.exists()


def test_failed_rerun_leaves_the_previous_batch_whole(tmp_path, monkeypatch):
    cfg = config.parse_config_text(MINIMAL)
    out = tmp_path / "batch"
    cli.run_batch(cfg, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg.algorithms[0]["eta"] = 0.01  # the rerun's files would differ
    write_text, calls = Path.write_text, []

    def fail_third_write(self, *args, **kwargs):
        calls.append(self.name)
        if len(calls) == 3:
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_third_write)
    with pytest.raises(OSError):
        cli.run_batch(cfg, out)
    assert len(calls) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["batch"]


def test_env_var_output_root(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert cli._resolve_out("runs") == tmp_path / "root" / "runs"
    monkeypatch.delenv(cli.OUTPUT_ROOT_ENV)
    assert cli._resolve_out("runs") == Path("runs")


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------


def test_tune_single_point_grid(tmp_path):
    cfg = config.parse_config_text(MINIMAL)
    cfg.tuning["eta_grid"] = [0.05]
    cfg.tuning["delta_grid"] = [1.0]
    table = cli.tune(cfg, max_iter=20)
    assert table["dmgt#0"]["eta"] == 0.05
    assert table["dmgt#0"]["delta"] == 1.0
    assert table["dmd#1"]["delta"] is None
    assert table["dmd#1"]["status"] == "ok"


def test_tune_prefers_nondiverged_and_smaller_eta():
    cfg = config.parse_config_text(MINIMAL)
    cfg.algorithms = [{"kind": "dda", "max_iter": 60}]
    cfg.kernel = {"kind": "burg", "mu": 1.0}
    cfg.tuning["eta_grid"] = [1e-3, 1e6]  # the huge step overflows and ranks last
    table = cli.tune(cfg, max_iter=60)
    assert table["dda#0"]["eta"] == pytest.approx(1e-3)


def test_tune_tie_breaks_toward_smaller_eta(monkeypatch):
    cfg = config.parse_config_text(MINIMAL)
    cfg.algorithms = [{"kind": "dmd", "max_iter": 5}]
    cfg.tuning["eta_grid"] = [0.2, 0.1]

    class _Fake:
        status = "done"

        def __init__(self):
            rec = diagnostics.RunRecord(
                run_id="x", algorithm="dmd", kernel="k", t=5, f_bar=1.0,
                stationarity=0.5, consensus_primal=0, consensus_dual=0,
                E_t_proxy=0, M_t_proxy=1.0)
            self.records = [rec]

    monkeypatch.setattr(cli, "execute_run", lambda *a, **k: (_Fake(), {}))
    table = cli.tune(cfg)
    assert table["dmd#0"]["eta"] == pytest.approx(0.1)


def test_tune_and_run_batch_assemble_each_seed_once(tmp_path, monkeypatch):
    cfg = config.parse_config_text(MINIMAL)
    cfg.seeds = [1, 2, 3]
    cfg.tuning["eta_grid"] = [0.01, 0.05]
    cfg.tuning["delta_grid"] = [0.1, 1.0]
    built = []
    build_problem = cli.build_problem
    monkeypatch.setattr(cli, "build_problem",
                        lambda c, seed: built.append(seed) or build_problem(c, seed))
    with logged_cells() as calls:
        table = cli.tune(cfg, max_iter=15)
        assert built == cfg.seeds
        scores = {(spec["kind"], seed, kwargs["eta"], kwargs["delta"]):
                  cli._final_metric(result, "stationarity")
                  for spec, seed, kwargs, result in calls}
        assert len(scores) == (4 + 2) * len(cfg.seeds)

        built.clear()
        cli.run_batch(cfg, tmp_path / "out", max_iter=5)
        assert built == cfg.seeds
    for _, _, kwargs, _ in calls:
        assert kwargs["assembly"] is not None

    # every tune score equals a fresh run of its cell that builds its own seed
    monkeypatch.setattr(cli, "build_problem", build_problem)
    for (kind, seed, eta, delta), score in scores.items():
        spec = next(s for s in cfg.algorithms if s["kind"] == kind)
        result, _ = cli.execute_run(cfg, spec, seed, max_iter=15,
                                    record_every=0, eta=eta, delta=delta)
        assert cli._final_metric(result, "stationarity") == score
    for name, row in table.items():
        vals = [scores[row["kind"], s, row["eta"], row["delta"]]
                for s in cfg.seeds]
        assert row["metric"] == sum(vals) / len(vals), name
    # threads is accepted and ignored, so the table is unchanged
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert cli.tune(cfg, threads=4, max_iter=15) == table
    finally:
        sys.setswitchinterval(interval)


# (problem, kernel, init, eta grid, divergence reasons the grid must show)
_BATCH_CASES = {
    "poisson-burg": ("{kind: poisson, d: 12, n: 8, m: 4}",
                     "{kind: burg, mu: 1.0}", "random_positive",
                     "[0.01, 10.0, 1.0e+3, 1.0e+8]", {"DomainViolation"}),
    "phase_retrieval-quartic": (
        "{kind: phase_retrieval, d: 6, n: 10, m: 4, noise_sd: 0.1}",
        "{kind: quartic}", "gauss", "[0.01, 1.0e+4, 1.0e+8]",
        {"non-finite metric"}),
    # quartic (power r=2) inverts every finite dual vector in closed form;
    # r=1.5 keeps the scalar solver's failure among the divergence paths
    "phase_retrieval-power": (
        "{kind: phase_retrieval, d: 6, n: 10, m: 4, noise_sd: 0.1}",
        "{kind: power, mu: 1.0, r: 1.5}", "gauss", "[0.01, 1.0e+4, 1.0e+8]",
        {"NoConvergence"}),
    "entropy-boltzmann_shannon": (
        "{kind: entropy, d: 6, m: 4}", "{kind: boltzmann_shannon}",
        "random_positive", "[0.01, 10.0, 1.0e+3]",
        {"DomainViolation", "non-finite iterate"}),
    "quadratic-euclidean": ("{kind: quadratic, d: 6, m: 4}",
                            "{kind: euclidean}", "gauss",
                            "[0.1, 1.0e+8, 1.0e+200]",
                            {"DomainViolation", "non-finite metric"}),
    "tv_deblur-burg": ("{kind: tv_deblur, d_img: 4, m: 4}",
                       "{kind: burg, mu: 1.0}", "random_positive",
                       "[0.1, 1.0e+300]", {"DomainViolation"}),
}


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_tune_batch_cells_equal_their_standalone_runs(case):
    # tune steps each (seed, algorithm) grid as one batch; every cell must end
    # exactly where its own run ends, diverging cells included
    problem, kernel, init, etas, reasons = _BATCH_CASES[case]
    cfg = config.parse_config_text(f"""
problem: {problem}
kernel: {kernel}
graph: {{kind: ring}}
algorithms: [{{kind: dmgt}}, {{kind: dmd}}, {{kind: dgt}}, {{kind: dda}}]
tuning: {{eta_grid: {etas}, delta_grid: [0.1, 1.0e+3]}}
seeds: [1, 2]
init: {{kind: {init}, scale: 1.0}}
""")
    with logged_cells() as cells:
        cli.tune(cfg, max_iter=30)
    seen = {r.reason.split(":")[0] for *_, r in cells
            if r.status == "diverged"}
    assert reasons <= seen, seen
    for spec, seed, kwargs, got in cells:
        eta, delta = kwargs["eta"], kwargs["delta"]
        alone, _ = cli.execute_run(cfg, spec, seed, max_iter=30,
                                   record_every=0, eta=eta, delta=delta)
        cell = (spec["kind"], seed, eta, delta)
        assert (got.status, got.diverged_at, got.reason, got.system.t) \
            == (alone.status, alone.diverged_at, alone.reason,
                alone.system.t), cell
        assert [r.csv_row() for r in got.records] \
            == [r.csv_row() for r in alone.records], cell
        for name in ("X", "Z", "Y", "grads"):
            assert getattr(got.system, name).tobytes() \
                == getattr(alone.system, name).tobytes(), (cell, name)


def test_tune_select_by_rel_error(tmp_path):
    text = MINIMAL + """tuning: {eta_grid: [0.01, 0.05], delta_grid: [1.0],
         select_by: rel_error}
"""
    cfg = config.parse_config_text(text)
    finals = {}
    f_star = math.inf
    for spec in cfg.algorithms:
        delta = 1.0 if spec["kind"] == "dmgt" else None
        for eta in (0.01, 0.05):
            result, _ = cli.execute_run(cfg, spec, cfg.seeds[0], max_iter=10,
                                        record_every=0, eta=eta, delta=delta)
            finals[spec["kind"], eta] = result.records[-1].f_bar
            f_star = min([f_star] + [r.f_bar for r in result.records])
    table = cli.tune(cfg, max_iter=10)
    for name, row in table.items():
        assert row["status"] == "ok", name
        want = min(finals[row["kind"], eta] - f_star for eta in (0.01, 0.05))
        assert row["metric"] == want, name
    assert min(row["metric"] for row in table.values()) == 0.0
    cfgfile = _write(tmp_path, text)
    assert cli.main(["tune", str(cfgfile), "--max-iter", "10", "--strict"]) == 0


def test_tune_reports_an_algorithm_whose_every_cell_diverged(tmp_path,
                                                             capsys):
    cfgfile = _write(tmp_path, """
problem: {kind: quadratic, d: 4, m: 3, seed: 1}
kernel: {kind: euclidean}
graph: {kind: complete}
algorithms: [{kind: dmd, max_iter: 20}]
tuning: {eta_grid: [1.0e+200, 1.0e+300]}
seeds: [1, 2]
""")
    best = tmp_path / "best.json"
    assert cli.main(["tune", str(cfgfile), "--out", str(best)]) == 0
    assert capsys.readouterr().out == "dmd#0: every grid cell diverged\n"
    assert json.loads(best.read_text()) == {"dmd#0": {
        "kind": "dmd", "status": "all-diverged", "eta": None, "delta": None,
        "metric": None}}
    assert cli.main(["tune", str(cfgfile), "--strict"]) == 1


@pytest.mark.parametrize("command", ["run", "tune"])
def test_the_seed_flag_replaces_the_seed_list(command, tmp_path):
    cfgfile = _write(tmp_path, MINIMAL + "seeds: [1, 2]\n")
    out = tmp_path / "o"
    with logged_cells() as calls:
        assert cli.main([command, str(cfgfile), "--seed", "5", "--max-iter",
                         "3", "--out", str(out)]) == 0
    assert {seed for _, seed, _, _ in calls} == {5}
    if command == "run":
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [5]
        assert [r["seed"] for r in manifest["runs"]] == [5, 5]


# ---------------------------------------------------------------------------
# Command line entry points
# ---------------------------------------------------------------------------


def test_cli_run_and_certify(tmp_path, capsys):
    cfgfile = _write(tmp_path, MINIMAL)
    rc = cli.main(["run", str(cfgfile), "--out", str(tmp_path / "o"),
                   "--max-iter", "10"])
    assert rc == 0
    assert (tmp_path / "o" / "manifest.json").exists()
    rc = cli.main(["certify", "--kernel", "{kind: power, mu: 1.0, r: 2.0}",
                   "--dim", "4", "--deltas", "0,0.1,1", "--samples", "50",
                   "--seed", "7", "--out", str(tmp_path / "cert.csv")])
    assert rc == 0  # delta = 0 included: its round-off gap is no violation
    rows = (tmp_path / "cert.csv").read_text().splitlines()
    assert rows[0] == "delta,worst_gap,analytic_zeta,n_samples"
    assert len(rows) == 4
    out = capsys.readouterr().out
    assert "consistent" in out and "VIOLATION" not in out


def test_certify_takes_a_bare_kind_string(capsys):
    assert cli.main(["certify", "--kernel", "burg", "--dim", "3",
                     "--samples", "20"]) == 0
    assert capsys.readouterr().out.startswith("kernel: burg(mu=1) ")


def test_cli_certify_exit_code_on_violation(tmp_path):
    # understate the modulus via a manual spec: hellinger certified at rate 1
    rc = cli.main(["certify", "--kernel", "{kind: hellinger}", "--dim", "4",
                   "--deltas", "1", "--samples", "400", "--seed", "7"])
    assert rc == 0  # the shipped modulus is the corrected one


def test_cli_tune_command(tmp_path):
    text = MINIMAL + "tuning: {eta_grid: [0.05], delta_grid: [1.0]}\n"
    cfgfile = _write(tmp_path, text)
    rc = cli.main(["tune", str(cfgfile), "--max-iter", "10",
                   "--out", str(tmp_path / "best.json")])
    assert rc == 0
    table = json.loads((tmp_path / "best.json").read_text())
    assert set(table) == {"dmgt#0", "dmd#1"}


def test_cli_error_reporting(tmp_path, capsys):
    bad = _write(tmp_path, "problem: {kind: nosuch}\n", "bad.yaml")
    rc = cli.main(["run", str(bad)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_check_invariants_is_independent_of_the_hash_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "dualmix.cli", "check-invariants"],
            env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "8/8 checks passed"
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_check_invariants_reports_failing_and_raising_checks(monkeypatch,
                                                             capsys):
    def raises():
        raise ValueError("no such state")

    monkeypatch.setattr(invariants, "CHECKS", [
        ("passes", lambda: (True, "fine")),
        ("fails", lambda: (False, "residual 1.0")),
        ("raises", raises)])
    assert cli.main(["check-invariants"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] passes: fine", "[FAIL] fails: residual 1.0",
        "[FAIL] raises: raised ValueError: no such state",
        "1/3 checks passed"]


# functions no code under src/ names, each with why it stays there
_UNCALLED = {
    "local_stationarity": "the planned per-run convergence certificate",
    "theorem_bound_check": "the planned per-run convergence certificate",
    "permuted": "reads the family's _stacked, which only the family declares",
}


def test_every_function_under_src_is_named_there():
    # a function that only tests call belongs in the tests (tests/oracles.py);
    # names are matched, so one used elsewhere under src/ hides an orphan
    defined, named = {}, set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined.update((f.name, f"{path.stem}:{f.lineno}") for f in body
                           if isinstance(f, ast.FunctionDef)
                           and not (f.name.startswith("__")
                                    and f.name.endswith("__")))
        named.update(n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute)))
    orphans = {name: at for name, at in defined.items() if name not in named}
    assert orphans.keys() == _UNCALLED.keys(), orphans


def test_importing_the_cli_leaves_scipy_unimported():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dualmix.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_WITHOUT_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r}")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was importable")
import dualmix
from dualmix.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_the_package_runs_where_scipy_cannot_be_imported(tmp_path):
    # scipy is a test dependency only: TV-deblur's blur is numpy
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    cfgfile = _write(tmp_path, MINIMAL.replace(
        "{kind: poisson, d: 12, n: 8, m: 4, seed: 1}",
        "{kind: tv_deblur, d_img: 4, m: 2, seed: 1}"))
    for args, last in ((["run", str(cfgfile), "--out", str(tmp_path / "o"),
                         "--max-iter", "10"], None),
                       (["check-invariants"], "8/8 checks passed")):
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        if last is not None:
            assert proc.stdout.splitlines()[-1] == last
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"]["problem"]["kind"] == "tv_deblur"
    assert [r["status"] for r in manifest["runs"]] == ["done", "done"]


def test_a_preconditioned_euclidean_kernel_leaves_scipy_unimported():
    # x^T A x / 2 is factored, inverted and solved by numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import sys, numpy as np\n"
            "from dualmix import kernels\n"
            "A = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]\n"
            "k = kernels.euclidean(3, A=A)\n"
            "Z = np.arange(12.0).reshape(2, 2, 3)\n"
            "X = k.grad_conj(Z)\n"
            "V = k.hess_solver(X)(Z)\n"
            "print(np.allclose(k.grad(X), Z), np.allclose(V, X),"
            " 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "False"]


QUADRATIC_AUTO = """
problem: {kind: quadratic, d: 3, m: 4, seed: 0}
kernel: {kind: euclidean}
graph: {kind: erdos_renyi, p: 0.6, seed: 7}
L: 2.5
algorithms:
  - {kind: dmgt, eta: auto, delta: auto, max_iter: 5}
"""


def test_config_L_drives_the_auto_parameters(tmp_path, capsys):
    cfg = config.parse_config_text(QUADRATIC_AUTO)
    _, meta = cli.execute_run(cfg, cfg.algorithms[0], 0)
    mix = cli.build_mixing(cfg, 4)
    want = algorithms.compliant_parameters(kernels.euclidean(3), 2.5, mix.rho, 4)
    assert meta["L"] == 2.5
    assert (meta["eta"], meta["delta"]) == want[:2]
    cfgfile = _write(tmp_path, QUADRATIC_AUTO.replace("L: 2.5", "L: -1"))
    assert cli.main(["run", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == "error: L: must be a positive number"


def test_dda_uses_shifted_kernel():
    import dualmix.kernels as kernels

    base = kernels.burg(3)
    x0 = np.array([0.5, 2.0, 1.0])
    k = cli.kernel_for_algorithm("dda", base, x0)
    np.testing.assert_allclose(k.minimizer(), x0, rtol=1e-10)
    assert cli.kernel_for_algorithm("dmgt", base, x0) is base
