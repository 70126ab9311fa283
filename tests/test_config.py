"""Experiment configuration parsing and validation."""

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from trfuse.config import (_KEYS, ConfigError, ExperimentConfig,
                           load_experiment_config, parse_experiment_config,
                           with_seed)
from trfuse.harness import ABLATION_VARIANTS
from trfuse.solver import SolverConfig

# the JSON schema, written out rather than derived from the parser's table
EXPERIMENT_KEYS = (
    "ground_truth", "y", "z", "spectral_response", "kernel_size", "sigma",
    "factor", "msi_bands", "band_groups", "snr_y_db", "snr_z_db", "seed")
SOLVER_KEYS = (
    "ranks", "lambda", "alpha", "beta", "eta", "mu", "eps_log", "varsigma",
    "k_max", "inner_max", "inner_tol", "cg_tol", "cg_max", "stop_tol")


README = Path(__file__).resolve().parents[1] / "README.md"


def _minimal(**over):
    raw = {"ground_truth": "gt.tnsr"}
    raw.update(over)
    return raw


def test_defaults_and_round_trip():
    cfg = parse_experiment_config(_minimal())
    assert cfg.factor == 4
    assert cfg.kernel_size == 7
    assert cfg.solver.ranks == (2, 4, 2)
    assert cfg.solver.lam == 1.0
    d = cfg.as_dict()
    assert d["lambda"] == 1.0 and "lam" not in d
    assert d["ranks"] == [2, 4, 2]
    # the echoed dict parses back to the same config
    assert parse_experiment_config(d) == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_experiment_config(_minimal(kernel_sigma=2.0))
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(lam=1.0))  # JSON spells it lambda
    with pytest.raises(ConfigError, match="unknown"):
        parse_experiment_config(_minimal(init="tr_svd"))  # no key picks the start


def test_lambda_key_maps_to_lam():
    cfg = parse_experiment_config(_minimal(**{"lambda": 0.25}))
    assert cfg.solver.lam == 0.25


def test_exactly_one_input_source():
    with pytest.raises(ConfigError):
        parse_experiment_config({})
    with pytest.raises(ConfigError):
        parse_experiment_config({"ground_truth": "a", "y": "b", "z": "c"})
    with pytest.raises(ConfigError):
        parse_experiment_config({"y": "b"})  # z missing
    cfg = parse_experiment_config({"y": "b", "z": "c"})
    assert cfg.ground_truth is None


def test_type_validation():
    for bad in (_minimal(factor="4"), _minimal(factor=True),
                _minimal(sigma="wide"), _minimal(seed=1.5),
                _minimal(ranks=[2, 4]),
                _minimal(ranks=[2, 4, 2.0]), _minimal(band_groups=[[0], 1]),
                _minimal(ground_truth=7),
                _minimal(sigma=float("nan"))):
        with pytest.raises(ConfigError):
            parse_experiment_config(bad)
    # an integer past the float range in a float key
    for key in ("sigma", "lambda"):
        with pytest.raises(ConfigError, match="out of the float range"):
            parse_experiment_config(_minimal(**{key: 10**400}))
    with pytest.raises(ConfigError):
        parse_experiment_config(["not", "an", "object"])


def test_null_handling():
    cfg = parse_experiment_config(_minimal(snr_y_db=None, snr_z_db=None,
                                           band_groups=None))
    assert cfg.snr_y_db is None and cfg.snr_z_db is None
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(factor=None))


def test_domain_validation():
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(factor=0))
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(kernel_size=6))  # even
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(ranks=[0, 2, 2]))
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(eta=0.0))
    with pytest.raises(ConfigError, match="seed"):
        parse_experiment_config(_minimal(seed=-1))
    with pytest.raises(ConfigError):
        parse_experiment_config(_minimal(band_groups=[[0, 1]],
                                         spectral_response="resp.tnsr"))


# one case per rule ExperimentConfig checks on its own fields, in the order
# it checks them: the fields set and the message
FIELD_RULES = (
    ({"ground_truth": "gt.tnsr", "seed": -1}, "seed must be nonnegative"),
    ({"ground_truth": "gt.tnsr", "snr_z_db": -4000.0},
     "snr_z_db of -4000.0 dB is below the float range: "
     "10^(snr_z_db/10) underflows to 0"),
    ({"y": "y.tnsr"}, "y and z must be given together"),
    ({"z": "z.tnsr"}, "y and z must be given together"),
    ({}, "exactly one of ground_truth or the y/z pair is required"),
    ({"ground_truth": "gt.tnsr", "y": "y.tnsr", "z": "z.tnsr"},
     "exactly one of ground_truth or the y/z pair is required"),
    ({"ground_truth": "gt.tnsr", "factor": 0},
     "factor, kernel_size, and msi_bands must be positive"),
    ({"y": "y.tnsr", "z": "z.tnsr", "kernel_size": -1},
     "factor, kernel_size, and msi_bands must be positive"),
    ({"ground_truth": "gt.tnsr", "msi_bands": 0},
     "factor, kernel_size, and msi_bands must be positive"),
    ({"ground_truth": "gt.tnsr", "kernel_size": 6}, "kernel_size must be odd"),
    ({"ground_truth": "gt.tnsr", "band_groups": ((0, 1),),
      "spectral_response": "resp.tnsr"},
     "band_groups and spectral_response are mutually exclusive"),
)


@pytest.mark.parametrize("given, message", FIELD_RULES)
def test_field_rules_hold_however_the_config_is_made(given, message):
    # built in Python, changed by replace, or parsed from JSON: one message
    with pytest.raises(ValueError) as built:
        ExperimentConfig(**given)
    assert str(built.value) == message
    base = ExperimentConfig(ground_truth="gt.tnsr")
    with pytest.raises(ValueError) as replaced:
        replace(base, **{"ground_truth": None, **given})
    assert str(replaced.value) == message
    raw = {k: [list(g) for g in v] if k == "band_groups" else v
           for k, v in given.items()}
    with pytest.raises(ConfigError) as parsed:
        parse_experiment_config(raw)
    assert str(parsed.value) == message


def test_field_rules_report_the_first_rule_broken():
    # every rule from positivity on is broken; the first is reported
    with pytest.raises(ValueError, match="must be positive"):
        ExperimentConfig(ground_truth="gt.tnsr", factor=0, kernel_size=6,
                         band_groups=((0,),), spectral_response="resp.tnsr")
    with pytest.raises(ValueError, match="given together"):
        ExperimentConfig(ground_truth="gt.tnsr", y="y.tnsr", factor=0)


def test_load_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_minimal(factor=2)))
    cfg = load_experiment_config(p)
    assert cfg.factor == 2
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_experiment_config(p)
    # an integer literal longer than int() converts
    p.write_text('{"ground_truth": "gt.tnsr", "seed": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_experiment_config(p)
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment_config(tmp_path / "missing.json")


def test_with_seed():
    cfg = parse_experiment_config(_minimal(seed=5))
    assert with_seed(cfg, None) is cfg
    assert with_seed(cfg, 9).seed == 9
    assert cfg.seed == 5  # original untouched
    with pytest.raises(ConfigError, match="seed") as err:
        with_seed(cfg, -1)
    assert isinstance(err.value.__cause__, ValueError)


def test_lowering_defaults():
    # the parsed config carries its solver settings as given; fuse and
    # ablate run on cfg.solver unchanged
    cfg = parse_experiment_config(_minimal(**{"lambda": 0.5, "alpha": 1e-3,
                                              "beta": 0.7, "seed": 3}))
    sc = cfg.solver
    assert isinstance(sc, SolverConfig)
    assert sc.lam == 0.5 and sc.alpha == 1e-3 and sc.beta == 0.7
    assert cfg.seed == 3
    assert sc.beta_scales == (1.0, 1.0, 1.0)


def test_ablation_switches_zero_coefficients_only():
    base = parse_experiment_config(_minimal(alpha=1e-3, beta=0.7)).solver
    variants = {name: replace(base, **over) for name, over in ABLATION_VARIANTS}
    assert variants["full"] == base
    sc = variants["no_tv"]
    assert sc.alpha == 0.0 and sc.beta == 0.7
    assert sc.beta_scales == (1.0, 1.0, 1.0)
    sc = variants["ban_spa"]
    assert sc.beta_scales == (0.0, 0.0, 1.0) and sc.beta == 0.7
    assert sc.alpha == 1e-3
    sc = variants["ban_spe"]
    assert sc.beta_scales == (1.0, 1.0, 0.0) and sc.alpha == 1e-3
    sc = variants["trkj"]
    assert sc.alpha == 0.0 and sc.beta == 0.0
    # nothing but the coefficients differs from the base settings
    for sc in variants.values():
        assert replace(sc, alpha=base.alpha, beta=base.beta,
                       beta_scales=base.beta_scales) == base


def test_config_is_frozen():
    cfg = parse_experiment_config(_minimal())
    with pytest.raises(AttributeError):
        cfg.factor = 2
    with pytest.raises(AttributeError):
        cfg.solver.k_max = 2
    assert isinstance(cfg, ExperimentConfig)


def _field_defaults() -> dict:
    """Each JSON key's dataclass field default, in the form ``as_dict`` writes."""
    out = {}
    for key, (in_solver, name, _, _) in _KEYS.items():
        [f] = [f for f in fields(SolverConfig if in_solver else ExperimentConfig)
               if f.name == name]
        out[key] = list(f.default) if isinstance(f.default, tuple) else f.default
    return out


def test_json_schema_is_pinned():
    assert len(EXPERIMENT_KEYS) + len(SOLVER_KEYS) == 26
    default = _field_defaults()
    assert set(default) == {*EXPERIMENT_KEYS, *SOLVER_KEYS}
    # every key away from its default, split over the mutually exclusive
    # input sources and spectral operators
    shared = {"kernel_size": 5, "sigma": 1.5, "factor": 2, "msi_bands": 3,
              "snr_y_db": None, "snr_z_db": 40.0, "ranks": [3, 2, 4],
              "lambda": 0.25, "alpha": 2e-3, "beta": 0.75, "eta": 2.0,
              "mu": 0.5, "eps_log": 0.05, "varsigma": 1e-2, "k_max": 7,
              "inner_max": 3, "inner_tol": 1e-2, "cg_tol": 1e-8, "cg_max": 40,
              "stop_tol": 1e-5, "seed": 9}
    raws = ({**shared, "ground_truth": "gt.tnsr",
             "band_groups": [[0, 1], [2]]},
            {**shared, "y": "y.tnsr", "z": "z.tnsr",
             "spectral_response": "resp.tnsr"})
    assert set(raws[0]) | set(raws[1]) == set(default)
    for raw in raws:
        cfg = parse_experiment_config(raw)
        echo = cfg.as_dict()
        for key, val in raw.items():
            assert echo[key] == val != default[key], key
        assert parse_experiment_config(echo) == cfg
        # each key lands on its owner: the solver keys on cfg.solver
        solver_default = SolverConfig()
        for key in SOLVER_KEYS:
            name = "lam" if key == "lambda" else key
            got = getattr(cfg.solver, name)
            assert got != getattr(solver_default, name), key
            assert (list(got) if isinstance(got, tuple) else got) == raw[key]


def test_readme_configuration_matches_parser_keys():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented, in_key_table = set(), False
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_key_table = False
        elif cells[0] == "key":
            in_key_table = True
        elif in_key_table:
            documented |= set(re.findall(r"`([^`]+)`", cells[0]))
    assert documented, "README Configuration has no key table"
    assert documented <= set(_KEYS), f"not parser keys: {sorted(documented - set(_KEYS))}"
    mentioned = set(re.findall(r"`([^`]+)`", section))
    assert set(_KEYS) <= mentioned, f"undocumented keys: {sorted(set(_KEYS) - mentioned)}"


def _top_level_items(cell: str) -> list[str]:
    """``cell`` split on the commas outside brackets."""
    items, depth, start = [], 0, 0
    for i, ch in enumerate(cell):
        depth += {"[": 1, "]": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            items.append(cell[start:i])
            start = i + 1
    return [item.strip() for item in items + [cell[start:]]]


def test_readme_configuration_defaults_match_the_fields():
    # the README table restates field defaults; each cell parses as JSON, and
    # a row of several keys lists one value per key or one for all of them
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| key | default | meaning |", 1)[1].split("\n\n", 1)[0]
    defaults = _field_defaults()
    checked = {}
    for line in table.strip().splitlines()[1:]:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        keys = re.findall(r"`([^`]+)`", cells[0])
        values = _top_level_items(cells[1])
        if len(values) == 1:
            values *= len(keys)  # one default shared by the row's keys
        assert len(keys) == len(values), line
        for key, value in zip(keys, values):
            checked[key] = json.loads(value)
    assert checked, "README Configuration has no default column"
    wrong = {k: (v, defaults[k]) for k, v in checked.items() if v != defaults[k]}
    assert not wrong, f"README default != field default: {wrong}"
