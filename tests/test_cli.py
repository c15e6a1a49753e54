"""Command-line front end: exit codes, output formats, determinism."""
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoshift import (ShiftModel, admissible_words, full_shift, gibbs_state,
                         golden_mean_shift, ground_support_test, m_value, point_mass)
from thermoshift import cli
from thermoshift.cli import main
from thermoshift.config import (MAX_OUTPUT_WORDS, MAX_RENEWAL_K, TASKS, gauge_spec,
                                parse_config, read_config)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def kms_config(**numeric):
    return {
        "task": "kms",
        "model": {
            "alphabet_size": 2,
            "transition": [1, 1, 1, 1],
            "potential": {
                "H": {"depth": 1, "values": {"0": 2.0, "1": 3.0}},
                "p": {"depth": 0, "values": {"": 0.5}},
            },
            "beta": 1.0,
        },
        "numeric": {"tol": 1e-12, "seed": 0, "starts": 2, "N": 3, **numeric},
    }


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rpf_golden_mean(tmp_path, capsys):
    code, out, err = run_cli(
        ["rpf", "--config", str(CONFIGS / "golden_rpf.json")], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert abs(doc["eigenvalue"] - (1 + math.sqrt(5)) / 2) < 1e-10
    assert doc["residual"] < 1e-12
    assert "config_digest" in doc and "version" in doc


def test_kms_stdout_and_state(tmp_path, capsys):
    code, out, err = run_cli(
        ["kms", "--config", write_config(tmp_path, kms_config())], capsys)
    assert code == 0
    doc = json.loads(out)
    key = next(iter(doc["state"]))
    want = math.prod(0.6 if c == "0" else 0.4 for c in key)
    assert abs(doc["state"][key] - want) < 1e-8
    assert doc["per_start_agreement"] < 1e-8


def test_kms_reports_below_the_working_depth(tmp_path, capsys):
    # numeric.depth 2 with N 3: the state is the Bernoulli(0.6, 0.4) measure
    # on the 4 depth-2 words, at any depth below N + s
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["numeric"]["depth"] = 2
    code, out, err = run_cli(["kms", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 0 and err == ""
    state = json.loads(out)["state"]
    assert sorted(state) == ["00", "01", "10", "11"]
    for key, mass in state.items():
        assert abs(mass - math.prod(0.6 if c == "0" else 0.4 for c in key)) < 1e-8


def test_kms_with_a_depth_is_not_sized_by_N(tmp_path, capsys):
    # with numeric.depth given, kms builds no table at the working depth
    # N + 2, so N 30 (depth-32 tables) is no reason to refuse it; ground
    # tabulates F_1..F_N there and keeps the guard
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["numeric"].update(depth=2, N=30)
    code, out, err = run_cli(["kms", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 0 and err == ""
    assert sorted(json.loads(out)["state"]) == ["00", "01", "10", "11"]
    doc["task"] = "ground"
    code, out, err = run_cli(["ground", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and "numeric.N needs depth-32 word tables" in err


def test_a_depth_past_the_doubles_exits_2(tmp_path, capsys):
    # the int64 code check is exact in integers: no float of the depth
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["task"] = "rpf"
    doc["numeric"]["depth"] = 10 ** 400
    code, out, err = run_cli(["rpf", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def test_kms_last_change_sees_an_unconverged_state(tmp_path, capsys):
    # at tol 1e-2 the state is 9e-3 in total variation from the Gibbs state;
    # every F_n* output is a fixed point of F_1*..F_N*, so a fixed-point
    # residual reads at rounding level here and only the last change does not
    H = np.random.default_rng(3).uniform(0.2, 5, 8)
    doc = {"task": "kms",
           "model": {"alphabet_size": 2, "transition": [1, 1, 1, 1],
                     "potential": {"H": {"depth": 3, "values": {
                         format(i, "03b"): h for i, h in enumerate(H)}}},
                     "beta": 2.0},
           "numeric": {"tol": 1e-2, "seed": 0, "N": 4}}
    code, out, err = run_cli(["kms", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 0 and err == ""
    result = json.loads(out)
    assert "residual" not in result and "residual_per_n" not in result
    assert result["last_change"] > 1e-4
    spec = gauge_spec(parse_config(doc))
    nu = gibbs_state(spec, depth=spec.working_depth(4))
    state = np.array([result["state"][k] for k in cli._keys(spec.model, nu.depth)])
    assert 0.5 * np.abs(state - nu.masses).sum() > 1e-3


def test_missing_config_exits_2(capsys):
    code, out, err = run_cli(["rpf", "--config", "/nonexistent.json"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(["rpf", "--config", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "validation"


def test_unknown_key_exits_2(tmp_path, capsys):
    doc = kms_config()
    doc["numerics"] = doc.pop("numeric")
    code, _, err = run_cli(
        ["kms", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "unknown keys" in json.loads(err)["detail"]


def test_inadmissible_word_exits_2(tmp_path, capsys):
    doc = {
        "task": "subaction",
        "model": {
            "alphabet_size": 2,
            "transition": [1, 1, 1, 0],
            "potential": {"H": {"depth": 2, "values": {"11": 2.0}}},
        },
    }
    code, _, err = run_cli(
        ["subaction", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "admissible" in json.loads(err)["detail"]


def test_more_than_ten_symbols_exits_2(tmp_path, capsys):
    # an 11th symbol would make keys like "1010" name two words
    doc = {"task": "rpf",
           "model": {"alphabet_size": 11, "transition": [1] * 121},
           "numeric": {"depth": 3}}
    code, out, err = run_cli(["rpf", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert "one digit per symbol" in json.loads(err)["detail"]


@pytest.mark.parametrize("model", [
    full_shift(2), golden_mean_shift(), ShiftModel(3, ((1, 1, 0), (1, 1, 1), (0, 1, 1))),
    full_shift(10)])
def test_keys_read_off_the_codes_match_joined_words(model):
    for d in range(5):
        # the key oracle: each tuple word's symbols joined as digits
        want = ["".join(map(str, w)) for w in admissible_words(model, d)]
        assert cli._keys(model, d).tolist() == want


def test_numerical_failure_exits_3(tmp_path, capsys):
    # period-two shift with an asymmetric weight: the +/- eigenvalue pair
    # keeps the power iteration oscillating
    doc = {
        "task": "rpf",
        "model": {
            "alphabet_size": 2,
            "transition": [0, 1, 1, 0],
            "potential": {"H": {"depth": 1, "values": {"0": 0.5, "1": 1.0}}},
        },
        "numeric": {"max_iter": 50},
    }
    code, out, err = run_cli(
        ["rpf", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "numerical"
    assert payload["residual"] is not None


@pytest.mark.parametrize("task, flags", [
    ("kms", ["--starts", "0"]),
    ("renewal", ["--K", "0"]),
    ("renewal", ["--beta-grid", "1,x"]),
])
def test_bad_flag_exits_2(tmp_path, capsys, task, flags):
    doc = kms_config() if task == "kms" else {"task": "renewal"}
    code, out, err = run_cli(
        [task, "--config", write_config(tmp_path, doc), *flags], capsys)
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"


def test_out_file_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, kms_config())
    outs = []
    for name in ("a.json", "b.json"):
        dest = tmp_path / name
        code, out, _ = run_cli(["kms", "--config", cfg, "--out", str(dest)],
                               capsys)
        assert code == 0 and out == ""
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_changes_iterates_not_state(tmp_path, capsys):
    cfg = write_config(tmp_path, kms_config())
    docs = []
    for seed in ("0", "1"):
        code, out, _ = run_cli(["kms", "--config", cfg, "--seed", seed], capsys)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["config_digest"] != docs[1]["config_digest"]
    a, b = docs[0]["state"], docs[1]["state"]
    assert max(abs(a[k] - b[k]) for k in a) < 1e-8


def test_renewal_csv_format(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "task": "renewal",
        "renewal": {"gamma": 3.0, "K": 2000, "beta_grid": [0.5, 0.8, 1.2]},
        "output": {"format": "csv"},
    })
    code, out, _ = run_cli(["renewal", "--config", cfg], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# thermoshift")
    assert lines[1] == "beta,pressure,root_residual"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["0.5", "0.8", "1.2"]
    assert float(rows[0][1]) > 0 and float(rows[2][1]) == 0.0


def test_renewal_cli_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {"task": "renewal",
                                  "output": {"format": "csv"}})
    code, out, _ = run_cli(
        ["renewal", "--config", cfg, "--gamma", "4.0", "--K", "500",
         "--beta-grid", "0.5,1.5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert [line.split(",")[0] for line in lines[2:]] == ["0.5", "1.5"]


def test_renewal_json_includes_transition_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "task": "renewal",
        "renewal": {"gamma": 3.0, "K": 5000, "beta_grid": [0.9, 1.1]},
    })
    code, out, _ = run_cli(["renewal", "--config", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["transition"]["right_derivative"] == 0.0
    assert doc["transition"]["left_derivative"] < 0


def test_rpf_runs_without_scipy_and_renewal_loads_it(tmp_path):
    # scipy loads with the renewal task, never before it
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    script = f"""
import contextlib, io, sys
from thermoshift import cli
def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["rpf", "--config", {str(CONFIGS / "golden_rpf.json")!r}])
print(code, scipy_modules())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["renewal", "--config", {str(CONFIGS / "renewal_gamma3.json")!r},
                     "--K", "500", "--format", "json"])
print(code, "scipy.linalg" in sys.modules, "transition" in out.getvalue())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []", "0 True True"], proc.stdout


def test_subcommand_names_the_task_of_a_file_without_one(tmp_path, capsys):
    doc = json.loads((CONFIGS / "golden_rpf.json").read_text())
    del doc["task"]
    code, out, err = run_cli(["rpf", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 0 and err == ""
    assert abs(json.loads(out)["eigenvalue"] - (1 + math.sqrt(5)) / 2) < 1e-10


def test_seed_flag_replaces_an_invalid_file_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, kms_config(seed=-1))
    code, out, err = run_cli(["kms", "--config", cfg, "--seed", "0"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["per_start_agreement"] < 1e-8


def test_kms_only_bound_skips_a_kms_config_run_as_rpf(tmp_path, capsys):
    # numeric.N sizes kms and ground tables; rpf never reads it
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["numeric"]["N"] = 30
    code, out, err = run_cli(["rpf", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 0 and err == ""
    assert abs(json.loads(out)["eigenvalue"] - (1 / 2 + 1 / 3)) < 1e-10


def _no_json_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("task, beta", [("monomial-check", 600), ("kms", 150)])
def test_non_finite_result_is_one_strict_json_error(tmp_path, task, beta):
    # H^-beta and its inverse overflow here: NaN defects and NaN changes
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["model"]["beta"] = beta
    proc = subprocess.run(
        [sys.executable, "-m", "thermoshift.cli", task,
         "--config", write_config(tmp_path, doc)],
        capture_output=True, text=True, cwd=CONFIGS.parent)
    assert proc.returncode == 3 and proc.stdout == ""
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1
    payload = json.loads(lines[0], parse_constant=_no_json_constant)
    assert payload["error"] == "numerical" and payload["residual"] is None


@pytest.mark.parametrize("task, values, beta", [
    ("rpf", {"0": 2.0, "1": 3.0}, 2000.0),    # H^-beta underflows to 0
    ("kms", {"0": 2.0, "1": 3.0}, 2000.0),
    ("ground", {"0": 1e200, "1": 1e200}, 1.0),  # h = H^[3] itself overflows
])
def test_out_of_range_arithmetic_exits_3_without_nan(tmp_path, capsys, task, values, beta):
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["model"]["potential"]["H"]["values"] = values
    doc["model"]["beta"] = beta
    code, out, err = run_cli([task, "--config", write_config(tmp_path, doc)], capsys)
    assert code == 3 and out == ""
    payload = json.loads(err, parse_constant=_no_json_constant)
    assert payload["error"] == "numerical"
    assert task == "ground" or "model.beta" in payload["detail"]


def test_ground_verdict_survives_h_beta_past_the_doubles(tmp_path, capsys):
    # h^beta overflows from beta 15, but h / its class minimum stays in range
    doc = json.loads((CONFIGS / "full2_kms.json").read_text())
    doc["model"]["potential"]["H"]["values"] = {"0": 1e10, "1": 3.0}
    code, out, err = run_cli(["ground", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["classification"] == "BOUNDED" and doc["slope"] == 0.0
    assert doc["sup_I"] <= 1.0


def test_a_non_finite_result_is_never_printed(monkeypatch, capsys):
    # whatever the task, a NaN that reaches the output document is exit 3
    monkeypatch.setitem(cli._TASK_RUNNERS, "subaction",
                        lambda config: cli._emit(config, {"m": math.nan}))
    code, out, err = run_cli(
        ["subaction", "--config", str(CONFIGS / "full2_optimize.json")], capsys)
    assert code == 3 and out == ""
    assert json.loads(err, parse_constant=_no_json_constant)["error"] == "numerical"


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "thermoshift.cli",
                           "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_optimize_worked_example(capsys):
    code, out, _ = run_cli(
        ["optimize", "--config", str(CONFIGS / "full2_optimize.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["m"]) < 1e-12
    assert doc["V"] == {"0": 1.0, "1": -1.0}
    assert doc["equality_set"] == ["00", "01"]


def test_verify_all_on_optimize_config_exits_0(capsys):
    # H(10) H(00) < H(00)^2 here, so the conditional minima of H^{[2]} are
    # the cylinders [100] and [101], not the optimal orbit 0^inf
    code, out, err = run_cli(
        ["verify-all", "--config", str(CONFIGS / "full2_optimize.json")], capsys)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["all_pass"] and doc["tags"]["boundedness_dichotomy"]["pass"]


def test_verify_all_refuses_the_csv_flag(capsys):
    # the csv format inside this file is ignored, but not the flag
    code, out, err = run_cli(
        ["verify-all", "--config", str(CONFIGS / "renewal_gamma3.json"),
         "--format", "csv"], capsys)
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "validation"


# strings no int() or float() conversion accepts, and no argparse option
NOT_A_NUMBER = st.text(alphabet="xyz.,;", min_size=1)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
OVERSIZED_K = st.integers(MAX_RENEWAL_K + 1, 10 ** 15)
BAD_CONFIG_VALUES = st.one_of(
    st.tuples(
        st.sampled_from([("renewal", "renewal", "gamma"),
                         ("kms", "model", "beta"), ("kms", "numeric", "seed"),
                         ("kms", "numeric", "depth")]),
        st.one_of(NOT_A_NUMBER, NON_FINITE, st.lists(st.integers(), max_size=2))),
    st.tuples(st.just(("renewal", "renewal", "beta_grid")),
              st.lists(st.one_of(NOT_A_NUMBER, NON_FINITE), min_size=1)),
    st.tuples(st.just(("renewal", "renewal", "K")), OVERSIZED_K),
    # full 2-shift tables past 8M words: depth >= 23, or N >= 21 at the
    # working depth N + 2 of kms_config's H
    st.tuples(st.sampled_from([("kms", "numeric", "depth"),
                               ("kms", "model", "depth"),
                               ("kms", "numeric", "N"),
                               ("rpf", "numeric", "depth")]),
              st.integers(23, 10 ** 30)),
    # within 8M words, but rpf tables past MAX_OUTPUT_WORDS (2^18) to write out
    st.tuples(st.just(("rpf", "numeric", "depth")),
              st.integers(MAX_OUTPUT_WORDS.bit_length(), 22)),
)


def _bad_config(case):
    (task, section, key), value = case
    doc = kms_config() if task in ("kms", "rpf") else {"task": task}
    doc[section] = {**doc.get(section, {}), key: value}
    return task, doc, []


# every section the schema defines as an object, by its path in a config
OBJECT_SECTIONS = [(), ("model",), ("model", "potential"),
                   ("model", "potential", "H"), ("model", "potential", "p"),
                   ("model", "potential", "H", "values"),
                   ("output",), ("numeric",), ("renewal",)]


def _bad_shape(case):
    task, where, value = case
    doc = kms_config()
    if not where:
        return task, value, []
    inner = doc
    for key in where[:-1]:
        inner = inner[key]
    inner[where[-1]] = value
    return task, doc, []


def _csv_output(case):
    task, by_flag = case
    doc = kms_config()
    if by_flag:
        return task, doc, ["--format", "csv"]
    doc["output"] = {"format": "csv"}
    return task, doc, []


def _bad_flag(case):
    flag, text = case
    task = "renewal" if flag == "--K" else "kms"
    doc = kms_config() if task == "kms" else {"task": "renewal"}
    return task, doc, [flag, text]


@settings(max_examples=90, deadline=None)
@given(st.one_of(
    BAD_CONFIG_VALUES.map(_bad_config),
    st.tuples(st.just("--K"), OVERSIZED_K.map(str)).map(_bad_flag),
    st.tuples(st.sampled_from(["--starts", "--seed", "--K"]),
              NOT_A_NUMBER).map(_bad_flag),
    st.tuples(st.just("--seed"), st.integers(max_value=-1).map(str)).map(_bad_flag),
    st.tuples(st.sampled_from(TASKS), st.sampled_from(OBJECT_SECTIONS),
              st.sampled_from([5, None, [], 1.5, True])).map(_bad_shape),
    # csv is written by renewal alone; verify-all, run on any config, ignores it
    st.tuples(st.sampled_from([t for t in TASKS if t not in ("renewal", "verify-all")]),
              st.booleans()).map(_csv_output),
))
def test_bad_input_is_one_json_validation_error(case):
    task, doc, flags = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([task, "--config", str(path), *flags])
            except SystemExit as exc:  # argparse exits from inside main
                code = exc.code
    assert code == 2 and out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"


def test_optimize_past_karp_bound_exits_2(tmp_path, capsys):
    # depth-14 H on the full 2-shift: 8,192 nodes, 1 GiB of Karp tables
    values = {format(i, "014b"): 1.0 + i / 2 ** 14 for i in range(2 ** 14)}
    doc = {"task": "optimize",
           "model": {"alphabet_size": 2, "transition": [1, 1, 1, 1],
                     "potential": {"H": {"depth": 14, "values": values}}}}
    code, out, err = run_cli(
        ["optimize", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert "Karp" in json.loads(err)["detail"]


MODELS = {"full2": (2, [1, 1, 1, 1]), "golden": (2, [1, 1, 1, 0]),
          "sft3": (3, [1, 1, 0, 1, 1, 1, 0, 1, 1])}


@st.composite
def valid_configs(draw):
    """A small valid config for one task; H is drawn at random, constant, or
    rounded to a few values, so ties between cycles and words occur."""
    task = draw(st.sampled_from(["rpf", "optimize", "subaction", "ground",
                                 "kms", "renewal"]))
    if task == "renewal":
        return task, {"task": task, "renewal": {
            "gamma": draw(st.floats(2.1, 6.0)), "K": draw(st.integers(10, 500)),
            "beta_grid": draw(st.lists(st.floats(-60.0, 2.0), min_size=1, max_size=3))}}
    k, flat = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    model = ShiftModel(k, tuple(tuple(flat[i * k:(i + 1) * k]) for i in range(k)))
    depth = draw(st.integers(1, 2 if task in ("kms", "ground") else 3))
    words = ["".join(map(str, w)) for w in admissible_words(model, depth)]
    values = draw(st.lists(st.floats(0.5, 4.0), min_size=len(words),
                           max_size=len(words)))
    kind = draw(st.sampled_from(["random", "constant", "rounded"]))
    if kind == "constant":
        values = [values[0]] * len(values)
    elif kind == "rounded":
        values = [max(1.0, float(round(v))) for v in values]
    return task, {
        "task": task,
        "model": {"alphabet_size": k, "transition": flat,
                  "beta": draw(st.floats(0.2, 2.0)),
                  "potential": {"H": {"depth": depth, "values": dict(zip(words, values))}}},
        "numeric": {"seed": draw(st.integers(0, 100)), "starts": draw(st.integers(1, 2)),
                    "N": draw(st.integers(1, 2)), "tol": 1e-6},
    }


@settings(max_examples=40, deadline=None)
@given(valid_configs())
def test_valid_config_exits_0_or_one_numerical_error(case):
    task, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cfg.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([task, "--config", str(path)])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())
    else:
        assert code == 3
        lines = err.getvalue().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numerical"


def test_ground_config_matches_the_library(capsys):
    path = CONFIGS / "golden_ground.json"
    code, out, err = run_cli(["ground", "--config", str(path)], capsys)
    assert code == 0 and err == ""
    config = parse_config(read_config(path))
    spec, n = gauge_spec(config), config.numeric.N
    mu = point_mass(config.model, m_value(config.model, spec.H).witness_cycle,
                    spec.working_depth(n))
    doc = json.loads(out)
    assert doc["I"] == ground_support_test(config.model, spec.p, spec.H, mu, n)["I"]
    assert doc["classification"] == "BOUNDED" and doc["witness"] is None
