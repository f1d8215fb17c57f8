import inspect
import json
import math

import numpy as np
import pytest

from csdyn.cli import EXIT_ERROR, EXIT_OK, OPERATIONS, emit_basin_grid, main, run_config
from csdyn.config import parse_config_text
from csdyn.errors import ConfigError, CsdynError, ParamError
from csdyn.models import NONEXACT_RATIO, instantiate_model


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_values():
    table = parse_config_text(
        "# comment\n"
        "run.operation = simulate\n"
        "model.name = circle-linear\n"
        "model.alpha = 1.0\n"
        "simulate.x0 = (0.25, 1)\n"
        "run.timestamp = false\n"
    )
    assert table["simulate.x0"] == (0.25, 1)
    assert table["run.timestamp"] is False


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("run.operation = simulate\nbogus.key = 1\n")
    assert err.value.line == 2


def test_parse_config_rejects_duplicates():
    with pytest.raises(ConfigError):
        parse_config_text("run.operation = verify\nrun.operation = verify\n")


@pytest.mark.parametrize("text,key", [
    ("run.operation = simulate\nmodel.name = circle-linear\nbasin.grid = 3\nclassify.n = 4\n",
     "basin.grid"),
    ("run.operation = basin\nmodel.name = damped-mechanical\n"
     "integrator.method = splitting\nintegrator.h = 0.5\n", "integrator.method"),
    # trajectories and Poincare returns have one integrator: no method to pick
    ("run.operation = periodic\nmodel.name = t2-pair-theta2\n"
     "integrator.method = reference\n", "integrator.method"),
])
def test_a_key_the_operation_does_not_read_is_a_config_error(tmp_path, capsys, text, key):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert (err.value.key, err.value.line) == (key, 3)
    assert run_config(write(tmp_path, "op.cfg", text), out=str(tmp_path)) == EXIT_ERROR
    assert f"(line 3): key {key!r} is not read by" in capsys.readouterr().err


# the IntegratorConfig fields, and the retired method and h, which every
# operation refuses
_INTEGRATOR_VALUES = {"rel_tol": 1e-9, "abs_tol": 1e-11, "blowup_threshold": 1e6,
                      "max_steps": 1000, "method": "reference", "h": 0.01}
_ALL_FIELDS = ("rel_tol", "abs_tol", "blowup_threshold", "max_steps")
# the IntegratorConfig fields each operation's code (or diagnose check's) passes on
_INTEGRATOR_READS = {
    "simulate": _ALL_FIELDS,
    "diagnose.conformality": (),
    "diagnose.transport": _ALL_FIELDS,
    "diagnose.loop": (),
    "attractor": (),
    "periodic": _ALL_FIELDS,
    "classify": (), "escape": (), "basin": (), "verify": (), "list-models": (),
}


@pytest.mark.parametrize("op", sorted(_INTEGRATOR_READS))
def test_integrator_keys_are_read_only_by_integrating_operations(op):
    """Every value, the default included, of a field not read is refused."""
    name, _, check = op.partition(".")
    head = f"run.operation = {name}\n" + (f"{name}.check = {check}\n" if check else "")
    line = head.count("\n") + 1
    for field, value in _INTEGRATOR_VALUES.items():
        text = head + f"integrator.{field} = {value}\n"
        if field in _INTEGRATOR_READS[op]:
            assert parse_config_text(text)[f"integrator.{field}"] == value
        else:
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert (err.value.key, err.value.line) == (f"integrator.{field}", line)


@pytest.mark.parametrize("name,check", [(name, check) for name, decls in OPERATIONS.items()
                                        for check in decls])
def test_declared_own_keys_are_the_keyword_parameters_of_the_operation(name, check):
    """A declared key its function does not take (so never reads) fails here."""
    op = OPERATIONS[name][check]
    own = {key[len(name) + 1:] for key in op.keys if key.startswith(f"{name}.")}
    params = list(inspect.signature(op).parameters)
    assert params[0] == "cfg"
    assert set(params[1:]) == own - ({"check"} if check else set())
    assert op.keys.get(f"{name}.check") == check


# the model.* keys and the run.* keys besides run.out and run.timestamp
# that each operation (or diagnose check) reads: run.seed only where a
# random number is drawn
_RUN_READS = {
    "simulate": ("model",), "diagnose.conformality": ("model", "seed"),
    "diagnose.transport": ("model",), "diagnose.loop": ("model",), "attractor": ("model",),
    "periodic": ("model",), "classify": ("model", "seed", "jobs"),
    "escape": ("model", "seed"), "basin": ("model",), "verify": ("seed",),
    "list-models": (),
}


@pytest.mark.parametrize("op", sorted(_RUN_READS))
def test_model_seed_and_jobs_keys_are_read_only_by_operations_using_them(op):
    name, _, check = op.partition(".")
    head = f"run.operation = {name}\n" + (f"{name}.check = {check}\n" if check else "")
    line = head.count("\n") + 1
    for read, key, value in (("model", "model.alpha", 0.5), ("seed", "run.seed", 3),
                             ("jobs", "run.jobs", 2)):
        text = head + f"{key} = {value}\n"
        if read in _RUN_READS[op]:
            assert parse_config_text(text)[key] == value
        else:
            with pytest.raises(ConfigError) as err:
                parse_config_text(text)
            assert (err.value.key, err.value.line) == (key, line)


def test_seed_and_jobs_flags_are_taken_by_every_operation(tmp_path, capsys):
    cfg = write(tmp_path, "list.cfg", "run.operation = list-models\n")
    argv = ["--config", cfg, "--out", str(tmp_path), "--seed", "3", "--jobs", "2"]
    assert main(argv) == EXIT_OK
    assert "circle-linear" in capsys.readouterr().out.split()


_DAMPED = "model.name = damped-mechanical\n"


# a config with one bad value -> the one line the run writes to stderr
_BAD_CONFIGS = {
    "simulate.t": ("run.operation = simulate\n" + _DAMPED + "simulate.t = abc\n",
                   "config error (line 3): simulate.t takes a number, got 'abc'"),
    "integrator.rel_tol": (
        "run.operation = simulate\n" + _DAMPED + "integrator.rel_tol = abc\n",
        "config error (line 3): integrator.rel_tol takes a number, got 'abc'"),
    "run.seed": ("run.operation = escape\n" + _DAMPED + "run.seed = abc\n",
                 "config error (line 3): run.seed takes an integer, got 'abc'"),
    "classify.n": ("run.operation = classify\nmodel.name = t2-pair-theta2\nclassify.n = 2.5\n",
                   "config error (line 3): classify.n takes an integer, got 2.5"),
    "model.alpha": (
        "run.operation = simulate\n" + _DAMPED + "model.alpha = abc\n",
        "error: parameter 'alpha' of model 'damped-mechanical' takes numbers, got 'abc'"),
    "periodic.section_axis": (
        "run.operation = periodic\nmodel.name = t2-pair-theta2\nperiodic.section_axis = 7\n",
        "error: section axis 7 is outside 0..1"),
    "attractor-integrator.rel_tol": (
        "run.operation = attractor\n" + _DAMPED + "integrator.rel_tol = 1e-3\n",
        "config error (line 3): key 'integrator.rel_tol' is not read by 'attractor'"),
    # the fixed-step engine's blow-up threshold is a constant of flows
    "attractor-integrator.blowup_threshold": (
        "run.operation = attractor\n" + _DAMPED + "integrator.blowup_threshold = 1e8\n",
        "config error (line 3): key 'integrator.blowup_threshold' is not read by 'attractor'"),
    "periodic-integrator.h": (
        "run.operation = periodic\nmodel.name = t2-pair-theta2\nintegrator.h = 0.5\n",
        "config error (line 3): key 'integrator.h' is not read by 'periodic'"),
    "list-models-model.name": (
        "run.operation = list-models\nmodel.name = no-such-model\nmodel.alpha = abc\n",
        "config error (line 2): key 'model.name' is not read by 'list-models'"),
    "basin-run.seed": (
        "run.operation = basin\n" + _DAMPED + "run.seed = 1\nrun.jobs = 2\n",
        "config error (line 3): key 'run.seed' is not read by 'basin'"),
    # before, each of these two was accepted and changed only the report's "seed"
    "attractor-run.seed": (
        "run.operation = attractor\n" + _DAMPED + "run.seed = 1\n",
        "config error (line 3): key 'run.seed' is not read by 'attractor'"),
    "diagnose-loop-run.seed": (
        "run.operation = diagnose\nmodel.name = circle-linear\ndiagnose.check = loop\n"
        "run.seed = 1\n",
        "config error (line 4): key 'run.seed' is not read by diagnose.check = loop"),
    # before, escape counted 10 of 10 points of the invariant circle as escaped
    "escape.box-reversed": (
        "run.operation = escape\nmodel.name = radial-contraction\n"
        "escape.box = (0.0, 1.0, 1.0, -1.0)\nescape.samples = 10\n",
        "error: box axis 1 needs lo < hi, got (1.0, -1.0)"),
    # before, each of these exited 0 with a verdict
    "attractor.box-short": (
        "run.operation = attractor\n" + _DAMPED + "attractor.grid = 4\n"
        "attractor.box = (0.0, 1.0)\n",
        "error: a box takes 2 (lo, hi) pairs, got 1"),
    "escape.box-short": (
        "run.operation = escape\nmodel.name = shear-contraction\nescape.box = (0.0, 1.0)\n"
        "escape.samples = 10\n",
        "error: a box takes 2 (lo, hi) pairs, got 1"),
    "attractor.eps": (
        "run.operation = attractor\n" + _DAMPED + "attractor.eps = 0\n",
        "error: an attractor takes grid >= 1 and eps in (0, 1], got 33 and 0.0"),
    "classify.n-zero": (
        "run.operation = classify\nmodel.name = t2-pair-theta2\nclassify.n = 0\n",
        "error: classify.n must be at least 1, got 0"),
    "escape.samples-zero": (
        "run.operation = escape\nmodel.name = shear-contraction\n"
        "escape.box = (0.0, 1.0, -1.0, 1.0)\nescape.samples = 0\n",
        "error: escape statistics needs n_steps >= 1 and samples >= 1, got 100 and 0"),
    "basin.p_range": (
        "run.operation = basin\n" + _DAMPED + "basin.grid = 3\nbasin.p_range = -3.0\n",
        "error: a basin grid takes grid >= 1 and a finite p_range > 0, got 3 and -3.0"),
}


@pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
def test_a_bad_value_exits_one_with_a_one_line_error(tmp_path, capsys, name):
    text, line = _BAD_CONFIGS[name]
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == EXIT_ERROR
    assert capsys.readouterr().err == line + "\n"


# a key the picked diagnose check does not read, at any value (the integrator
# ones here at their defaults); before, each ran as without it
@pytest.mark.parametrize("check,setting", [
    (None, "diagnose.t = 2.0"),
    ("conformality", "diagnose.t = 2.0"),
    ("conformality", "diagnose.x0 = (0.3, 0.8)"),
    ("conformality", "integrator.rel_tol = 1e-10"),
    ("loop", "diagnose.x0 = (0.3, 0.8)"),
    ("loop", "integrator.max_steps = 1000000"),
])
def test_a_key_its_diagnose_check_does_not_read_is_a_config_error(tmp_path, capsys, check,
                                                                   setting):
    text = ("run.operation = diagnose\nmodel.name = nonexact-linear\n"
            + (f"diagnose.check = {check}\n" if check else "") + setting + "\n")
    key, line = setting.partition(" =")[0], text.count("\n")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert (err.value.key, err.value.line) == (key, line)
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path), "--no-timestamp"]) == EXIT_ERROR
    assert capsys.readouterr().err == (f"config error (line {line}): key {key!r} is not read "
                                       f"by diagnose.check = {check or 'conformality'}\n")
    assert not list(tmp_path.glob("*.json"))


def test_an_unknown_diagnose_check_is_a_config_error_at_its_line(tmp_path, capsys):
    """Before, it failed only once the model was built."""
    text = "run.operation = diagnose\ndiagnose.check = foo\nmodel.name = no-such-model\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert (err.value.key, err.value.line) == ("diagnose.check", 2)
    cfg = write(tmp_path, "diag.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_ERROR
    assert capsys.readouterr().err == ("config error (line 2): unknown diagnose.check 'foo'; "
                                       "expected one of conformality, transport, loop\n")


_TRANSPORT_INTEGRATORS = ("", "integrator.rel_tol = 1e-3\n")


def test_diagnose_transport_reads_the_integrator_keys(tmp_path):
    """The keys that check = loop and conformality refuse change a transport run."""
    residuals = []
    for i, keys in enumerate(_TRANSPORT_INTEGRATORS):
        cfg = write(tmp_path, f"diag{i}.cfg",
                    "run.operation = diagnose\nmodel.name = circle-linear\n"
                    "diagnose.check = transport\n" + keys)
        out = tmp_path / str(i)
        assert run_config(cfg, out=str(out), timestamp=False) != EXIT_ERROR  # rel_tol 1e-3 FAILs
        payload = json.loads((out / "diagnose_circle-linear_transport.json").read_text())
        residuals.append(payload["checks"][0]["residual"])
    assert len(set(residuals)) == len(residuals)


def test_diagnose_loop_reads_its_horizon(tmp_path):
    text = "run.operation = diagnose\nmodel.name = circle-linear\ndiagnose.check = loop\n"
    reports = []
    for i, keys in enumerate(("", "diagnose.t = 1.0\n", "diagnose.t = 0.5\n")):
        out = tmp_path / str(i)
        assert run_config(write(tmp_path, f"loop{i}.cfg", text + keys), out=str(out),
                          timestamp=False) == EXIT_OK
        reports.append((out / "diagnose_circle-linear_loop.json").read_text())
    assert reports[0] == reports[1] != reports[2]


def test_diagnose_transport_backward_in_time(tmp_path):
    cfg = write(
        tmp_path, "diag.cfg",
        "run.operation = diagnose\nmodel.name = circle-linear\n"
        "diagnose.check = transport\ndiagnose.t = -1.0\n",
    )
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_OK
    payload = json.loads((tmp_path / "diagnose_circle-linear_transport.json").read_text())
    assert payload["checks"][0]["residual"] < 1e-8


def test_simulate_writes_initial_condition(tmp_path):
    cfg = write(
        tmp_path, "sim.cfg",
        "run.operation = simulate\n"
        "model.name = circle-linear\n"
        "model.alpha = 1.0\n"
        "simulate.t = 5.0\n"
        "simulate.x0 = (0.25, 1.0)\n"
        "simulate.samples = 11\n"
        "run.timestamp = false\n",
    )
    code = run_config(cfg, out=str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "simulate_circle-linear.csv").read_text().splitlines()
    assert lines[0] == "t,x0,x1"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.25
    assert float(first[2]) == 1.0


def test_simulate_with_an_integrator_method_exits_one_and_writes_no_report(tmp_path, capsys):
    cfg = write(
        tmp_path, "split.cfg",
        "run.operation = simulate\nmodel.name = damped-mechanical\n"
        "integrator.method = splitting\nintegrator.h = 0.01\n",
    )
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--no-timestamp"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "config error (line 3): key 'integrator.method' is not read by 'simulate'\n")
    assert not out.exists()


def test_diagnose_nonexact_conformality(tmp_path):
    cfg = write(
        tmp_path, "diag.cfg",
        "run.operation = diagnose\n"
        "model.name = nonexact-linear\n"
        "diagnose.check = conformality\n",
    )
    code = run_config(cfg, out=str(tmp_path), timestamp=False)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "diagnose_nonexact-linear_conformality.json").read_text())
    check = payload["checks"][0]
    assert check["verdict"] == "PASS"
    assert check["residual"] < 1e-12
    assert abs(check["details"]["ratio"] - NONEXACT_RATIO) < 1e-12
    assert payload["schema"] == 1


def test_unknown_model_exits_one(tmp_path, capsys):
    cfg = write(
        tmp_path, "bad.cfg",
        "run.operation = simulate\nmodel.name = no-such-model\n",
    )
    assert run_config(cfg, out=str(tmp_path)) == EXIT_ERROR


def test_unknown_key_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, "bad2.cfg", "run.operation = simulate\nnope = 1\n")
    assert run_config(cfg, out=str(tmp_path)) == EXIT_ERROR
    assert "line 2" in capsys.readouterr().err


def test_unknown_operation_exits_one(tmp_path):
    cfg = write(tmp_path, "bad3.cfg", "run.operation = dance\n")
    assert run_config(cfg, out=str(tmp_path)) == EXIT_ERROR


def test_verify_scope_geometry(tmp_path):
    cfg = write(
        tmp_path, "verify.cfg",
        "run.operation = verify\nverify.scope = geometry\n",
    )
    code = run_config(cfg, out=str(tmp_path), timestamp=False)
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "verify_geometry.json").read_text())
    assert payload["n_checks"] >= 4
    assert payload["n_passed"] == payload["n_checks"]


def test_verify_negative_control_scope(tmp_path):
    cfg = write(
        tmp_path, "verify2.cfg",
        "run.operation = verify\nverify.scope = diagnostics-negative-controls\n",
    )
    code = run_config(cfg, out=str(tmp_path), timestamp=False)
    assert code == EXIT_OK
    payload = json.loads(
        (tmp_path / "verify_diagnostics-negative-controls.json").read_text()
    )
    verdicts = {c["verdict"] for c in payload["checks"]}
    assert "PASS-NEGATIVE-CONTROL" in verdicts


def test_verify_unknown_scope_exits_one(tmp_path):
    cfg = write(
        tmp_path, "verify3.cfg",
        "run.operation = verify\nverify.scope = everything-everywhere\n",
    )
    assert run_config(cfg, out=str(tmp_path)) == EXIT_ERROR


def test_rerun_byte_identical_without_timestamp(tmp_path):
    cfg = write(
        tmp_path, "sim2.cfg",
        "run.operation = simulate\n"
        "model.name = t2-pair-theta2\n"
        "simulate.t = 2.0\n"
        "simulate.x0 = (0.1, 0.2)\n"
        "simulate.samples = 33\n",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "--no-timestamp"]) == EXIT_OK
    assert main(["--config", cfg, "--out", str(out_b), "--no-timestamp"]) == EXIT_OK
    csv_a = (out_a / "simulate_t2-pair-theta2.csv").read_bytes()
    csv_b = (out_b / "simulate_t2-pair-theta2.csv").read_bytes()
    assert csv_a == csv_b


def test_csv_floats_round_trip(tmp_path):
    cfg = write(
        tmp_path, "sim3.cfg",
        "run.operation = simulate\n"
        "model.name = circle-linear\n"
        "simulate.t = 1.0\n"
        "simulate.x0 = (0.123456789012345, 0.987654321098765)\n"
        "simulate.samples = 3\n",
    )
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_OK
    lines = (tmp_path / "simulate_circle-linear.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert float(first[1]) == 0.123456789012345


def test_classify_operation_and_jobs_determinism(tmp_path):
    # 70 starts: one block at --jobs 1, two or three blocks otherwise
    cfg = write(
        tmp_path, "cls.cfg",
        "run.operation = classify\n"
        "model.name = t2-pair-theta2\n"
        "classify.n = 70\n"
        "classify.T = 6.0\n",
    )
    outputs = []
    for jobs in (1, 2, 3):
        out = tmp_path / f"j{jobs}"
        assert main(["--config", cfg, "--out", str(out), "--no-timestamp",
                     "--seed", "5", "--jobs", str(jobs)]) == EXIT_OK
        outputs.append((out / "classify_t2-pair-theta2.json").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert (payload["schema"], payload["seed"], payload["model"]) == (1, 5, "t2-pair-theta2")
    assert len(payload["orbits"]) == 70 == sum(payload["counts"].values())
    assert "checks" not in payload


def test_jobs_below_one_is_a_config_error(tmp_path, capsys):
    text = "run.operation = classify\nmodel.name = t2-pair-theta2\nclassify.n = 4\n"
    cfg = write(tmp_path, "cls.cfg", text)
    assert main(["--config", cfg, "--out", str(tmp_path), "--jobs", "0"]) == EXIT_ERROR
    assert "run.jobs" in capsys.readouterr().err
    cfg = write(tmp_path, "cls0.cfg", text + "run.jobs = 0\n")
    assert run_config(cfg, out=str(tmp_path)) == EXIT_ERROR


@pytest.mark.parametrize("h", ["0", "nan"])
def test_a_bad_attractor_step_exits_one_and_writes_no_report(tmp_path, capsys, h):
    cfg = write(tmp_path, "attr.cfg",
                "run.operation = attractor\n" + _DAMPED + f"attractor.h = {h}\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "--no-timestamp"]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: fixed-step integration needs a finite step h > 0, got h={float(h)}\n")
    assert list(out.iterdir()) == []


def test_the_attractor_steps_at_its_own_h(tmp_path):
    text = ("run.operation = attractor\n" + _DAMPED
            + "attractor.t_relax = 10.0\nattractor.grid = 5\n")
    clouds = []
    for i, keys in enumerate(("", "attractor.h = 0.01\n", "attractor.h = 0.02\n")):
        out = tmp_path / str(i)
        run_config(write(tmp_path, f"attr{i}.cfg", text + keys), out=str(out), timestamp=False)
        clouds.append((out / "attractor_damped-mechanical.csv").read_text())
    assert clouds[0] == clouds[1] != clouds[2]


def test_attractor_operation(tmp_path):
    cfg = write(
        tmp_path, "attr.cfg",
        "run.operation = attractor\n"
        "model.name = damped-mechanical\n"
        "model.alpha = 0.5\n"
        "model.v_cos = 1.0\n"
        "attractor.t_relax = 30.0\n"
        "attractor.grid = 17\n",
    )
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_OK
    cloud = (tmp_path / "attractor_damped-mechanical.csv").read_text().splitlines()
    assert cloud[0] == "x0,x1"
    assert len(cloud) >= 2


@pytest.mark.parametrize("model,a,n_steps,escaped", [
    ("shear-contraction", 0.5, 5, 200),
    # a backward step grows p by 1/a, so only |p| > a leaves the box
    ("radial-contraction", 0.999, 1, 0),
])
def test_escape_operation_writes_its_counts_and_exits_zero(tmp_path, capsys, model, a, n_steps,
                                                           escaped):
    cfg = write(tmp_path, "esc.cfg", f"run.operation = escape\nmodel.name = {model}\n"
                f"model.a = {a}\nescape.box = (0.0, 1.0, -1.0, 1.0)\n"
                f"escape.n_steps = {n_steps}\nescape.samples = 200\n")
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_OK
    payload = json.loads((tmp_path / f"escape_{model}.json").read_text())
    assert payload == {"schema": 1, "seed": 7, "model": model, "params": {"a": a},
                       "escaped": escaped, "total": 200, "n_steps": n_steps}
    assert capsys.readouterr().out == f"escape {model}: {escaped}/200 within {n_steps} steps\n"


def test_list_models(tmp_path, capsys):
    cfg = write(tmp_path, "list.cfg", "run.operation = list-models\n")
    assert run_config(cfg, out=str(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "circle-linear" in out and "nonexact-linear" in out


def test_basin_grid_mostly_sink(tmp_path):
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    targets = [np.array([0.0, 0.0]), np.array([0.5, 0.0])]
    labels, q_axis, p_axis = emit_basin_grid(m, 200, 3.0, targets, t_max=60.0)
    sink_share = float(np.mean(labels == 2))
    assert sink_share >= 0.95
    assert labels.shape == (200, 200)


def test_basin_grid_requires_targets():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(CsdynError):
        emit_basin_grid(m, 10, 3.0, [])


def test_basin_grid_rejects_empty_grid():
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(CsdynError):
        emit_basin_grid(m, 0, 3.0, [np.zeros(2)])


@pytest.mark.parametrize("p_range", [0.0, -3.0, math.nan, math.inf])
def test_basin_grid_rejects_a_degenerate_momentum_axis(p_range):
    """Before, p_range <= 0 labelled a collapsed or reversed p axis."""
    m = instantiate_model("damped-mechanical", alpha=0.5, d=1, v_cos=1.0)
    with pytest.raises(ParamError):
        emit_basin_grid(m, 3, p_range, [np.zeros(2)])


def test_basin_operation_writes_grid(tmp_path):
    cfg = write(
        tmp_path, "basin.cfg",
        "run.operation = basin\n"
        "model.name = damped-mechanical\n"
        "model.alpha = 0.5\n"
        "basin.grid = 20\n"
        "basin.p_range = 3.0\n"
        "basin.t_max = 40.0\n",
    )
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_OK
    text = (tmp_path / "basin_damped-mechanical.csv").read_text().splitlines()
    assert text[0].startswith("# axis q")
    assert len([l for l in text if not l.startswith("#")]) == 20


def test_missing_config_file_exits_one(tmp_path):
    assert run_config(str(tmp_path / "absent.cfg")) == EXIT_ERROR


def test_non_trapping_attractor_exits_two(tmp_path):
    # the circle flow has no compact global attractor: relaxing a box sees
    # escapes and the operation reports FAIL through exit code 2
    from csdyn.cli import EXIT_FAIL

    cfg = write(
        tmp_path, "fail.cfg",
        "run.operation = attractor\n"
        "model.name = circle-linear\n"
        "model.alpha = 1.0\n"
        "attractor.box = (0.0, 1.0, -2.0, 2.0)\n"
        "attractor.t_relax = 30.0\n"
        "attractor.grid = 11\n",
    )
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_FAIL
    payload = json.loads((tmp_path / "attractor_circle-linear.json").read_text())
    assert payload["checks"][0]["details"]["status"] == "not-trapping"


_REPORTING_CONFIGS = {
    "diagnose-conformality": "run.operation = diagnose\nmodel.name = nonexact-linear\n"
                             "diagnose.check = conformality\n",
    "diagnose-transport": "run.operation = diagnose\nmodel.name = circle-linear\n"
                          "diagnose.check = transport\ndiagnose.x0 = (0.3, 0.8)\n",
    "diagnose-loop": "run.operation = diagnose\nmodel.name = circle-linear\n"
                     "diagnose.check = loop\n",
    "attractor-trapped": "run.operation = attractor\nmodel.name = damped-mechanical\n"
                         "model.v_cos = 1.0\nattractor.t_relax = 30.0\nattractor.grid = 17\n",
    "attractor-not-trapping": "run.operation = attractor\nmodel.name = circle-linear\n"
                              "attractor.box = (0.0, 1.0, -2.0, 2.0)\n"
                              "attractor.t_relax = 30.0\nattractor.grid = 11\n",
    "periodic": "run.operation = periodic\nmodel.name = t2-pair-theta2\n"
                "periodic.direction = 1\nperiodic.guess = (0.0, 0.01)\n",
    "verify": "run.operation = verify\nverify.scope = diagnostics-negative-controls\n",
}


@pytest.mark.parametrize("name", sorted(_REPORTING_CONFIGS))
def test_every_cli_report_verdict_agrees_with_its_residual(tmp_path, name):
    from csdyn.cli import EXIT_FAIL

    cfg = write(tmp_path, "op.cfg", _REPORTING_CONFIGS[name])
    out = tmp_path / "out"
    code = run_config(cfg, out=str(out), timestamp=False)
    (report,) = out.glob("*.json")
    checks = json.loads(report.read_text())["checks"]
    for c in checks:
        assert c["verdict"] in ("PASS", "FAIL", "PASS-NEGATIVE-CONTROL")
        assert (c["verdict"] != "FAIL") == (c["residual"] <= c["tolerance"]), c
    assert code == (EXIT_OK if all(c["verdict"] != "FAIL" for c in checks) else EXIT_FAIL)


@pytest.mark.parametrize("name", sorted(_REPORTING_CONFIGS))
def test_a_report_records_the_seed_only_of_an_operation_that_draws(tmp_path, name):
    cfg = write(tmp_path, "op.cfg", _REPORTING_CONFIGS[name])
    out = tmp_path / "out"
    main(["--config", cfg, "--out", str(out), "--seed", "3", "--no-timestamp"])
    (report,) = out.glob("*.json")
    draws = name in ("diagnose-conformality", "verify")
    assert json.loads(report.read_text())["seed"] == (3 if draws else None)


def test_a_loop_diagnosis_writes_the_same_bytes_at_any_seed(tmp_path):
    # before, the reports at --seed 1 and 2 differed in their "seed" line only
    cfg = write(tmp_path, "loop.cfg", _REPORTING_CONFIGS["diagnose-loop"])
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["--config", cfg, "--out", str(out), "--seed", seed,
                     "--no-timestamp"]) == EXIT_OK
        reports.append((out / "diagnose_circle-linear_loop.json").read_bytes())
    assert reports[0] == reports[1]


def test_conformality_diagnosis_fails_a_nan_spread_after_a_finite_residual(tmp_path,
                                                                         monkeypatch):
    # before, max(residual, nan) kept the finite residual: a PASS, exit 0
    from csdyn import cli

    ratios_of = cli.map_conformality_ratios

    def nan_ratio(m, pts):
        ratios, residuals = ratios_of(m, pts)
        ratios[1] = np.nan
        return ratios, residuals

    monkeypatch.setattr(cli, "map_conformality_ratios", nan_ratio)
    cfg = write(tmp_path, "op.cfg", _REPORTING_CONFIGS["diagnose-conformality"])
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == cli.EXIT_FAIL
    report = json.loads((tmp_path / "diagnose_nonexact-linear_conformality.json").read_text())
    assert math.isnan(report["checks"][0]["residual"])
    assert report["checks"][0]["verdict"] == "FAIL"


def test_transport_diagnosis_on_map_is_config_error(tmp_path):
    cfg = write(
        tmp_path, "fail2.cfg",
        "run.operation = diagnose\n"
        "model.name = radial-contraction\n"
        "model.a = 0.5\n"
        "diagnose.check = transport\n",
    )
    assert run_config(cfg, out=str(tmp_path), timestamp=False) == EXIT_ERROR
