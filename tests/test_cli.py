import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from ppmetrics.cli import main, parse_count_distribution
from ppmetrics.fileio import write_patterns

DATA = os.path.join(os.path.dirname(__file__), "data")
FIG1_A = os.path.join(DATA, "fig1_99.txt")
FIG1_B = os.path.join(DATA, "fig1_100.txt")
# child interpreters see neither pytest's `pythonpath` nor an install, so
# they get the checkout's src first on PYTHONPATH
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

from importlib import resources

SCHEMA = json.loads(
    resources.files("ppmetrics").joinpath(
        "schemas/result_document.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_dist_identical_files(capsys):
    doc = run_json(capsys, "dist", FIG1_A, FIG1_A, "--metric", "dbar1")
    assert doc["value"] == 0.0
    assert doc["seed"] is None


def test_dist_fig1_dbar1(capsys):
    doc = run_json(capsys, "dist", FIG1_A, FIG1_B)
    assert doc["value"] == 0.01


def test_dist_fig1_d1_is_maximal(capsys):
    doc = run_json(capsys, "dist", FIG1_A, FIG1_B, "--metric", "d1")
    assert doc["value"] == 1.0


def test_dist_show_assignment(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_patterns(a, [np.array([[0.1, 0.1], [0.8, 0.5]])])
    write_patterns(b, [np.array([[0.1, 0.2], [0.8, 0.5], [0.3, 0.3]])])
    doc = run_json(capsys, "dist", str(a), str(b), "--show-assignment")
    assert ["unmatched", 2] in doc["assignment"]
    assert [0, 0] in doc["assignment"] and [1, 1] in doc["assignment"]


def test_simulate_reproducible(capsys):
    code, first = run_cli(capsys, "simulate", "--model", "poisson",
                          "--lambda", "30", "--n-patterns", "12", "--seed", "7")
    assert code == 0
    code, second = run_cli(capsys, "simulate", "--model", "poisson",
                           "--lambda", "30", "--n-patterns", "12", "--seed", "7")
    assert code == 0
    assert first == second
    assert first.count("\n\n") == 11  # 12 blank-line separated patterns


def test_simulate_fkappa_in_unit_square(capsys):
    code, out = run_cli(capsys, "simulate", "--model", "fkappa",
                        "--kappa", "2", "--lambda", "50", "--seed", "3")
    assert code == 0
    rows = [list(map(float, line.split()))
            for line in out.strip().splitlines() if line and not line.startswith("#")]
    arr = np.array(rows)
    assert arr.shape[1] == 2
    assert (arr >= 0).all() and (arr <= 1).all()


def test_simulate_bernoulli_full_grid(capsys):
    code, out = run_cli(capsys, "simulate", "--model", "bernoulli",
                        "--n", "10", "--p", "1", "--seed", "1")
    assert code == 0
    xs = [float(line) for line in out.strip().splitlines()]
    assert xs == [(i + 1) / 10 for i in range(10)]


def test_test_command_deterministic(capsys, tmp_path):
    data = tmp_path / "data.txt"
    rng = np.random.default_rng(0)
    write_patterns(data, [rng.random((12, 2)) for _ in range(6)])
    doc1 = run_json(capsys, "test", str(data), "--lambda", "12",
                    "--null", "19", "--seed", "5")
    doc2 = run_json(capsys, "test", str(data), "--lambda", "12",
                    "--null", "19", "--seed", "5")
    doc1.pop("wall_time_s")
    doc2.pop("wall_time_s")
    assert doc1 == doc2
    assert len(doc1["null_statistics"]) == 19
    assert doc1["p_value"] == doc1["rank"] / 20.0


def test_test_command_rejects_strong_alternative(capsys, tmp_path):
    # kappa = 4 tilt with c = 0.3 should reject in (nearly) every seed
    from ppmetrics.processes import RngStream, sample_poisson_fkappa
    data = tmp_path / "alt.txt"
    stream = RngStream(42)
    write_patterns(data, [sample_poisson_fkappa(30.0, 4.0, stream.substream(i))
                          for i in range(12)])
    rejected = 0
    for seed in range(10):
        doc = run_json(capsys, "test", str(data), "--lambda", "30",
                       "--cutoff", "0.3", "--seed", str(seed))
        rejected += doc["reject"]
    assert rejected >= 9


def test_test_command_null_rejection_rate(capsys, tmp_path):
    # fresh null data per seed; n_null = 19 gives exact size 1/20
    from ppmetrics.processes import RngStream, sample_poisson_homogeneous
    rejections = 0
    for seed in range(50):
        data = tmp_path / f"null{seed}.txt"
        stream = RngStream(7000 + seed)
        write_patterns(data, [
            sample_poisson_homogeneous(10.0, rng=stream.substream(i))
            for i in range(5)
        ])
        doc = run_json(capsys, "test", str(data), "--lambda", "10",
                       "--null", "19", "--seed", str(seed))
        rejections += doc["reject"]
    assert rejections <= 9  # Binomial(50, 0.05): P(> 9) ~ 1e-4


def test_test_command_dir_mode(capsys, tmp_path):
    d = tmp_path / "patterns"
    d.mkdir()
    rng = np.random.default_rng(1)
    for i in range(4):
        write_patterns(d / f"p{i}.txt", [rng.random((8, 2))])
    doc = run_json(capsys, "test", str(d), "--dir", "--lambda", "8",
                   "--null", "9", "--seed", "0")
    assert doc["parameters"]["n_patterns"] == 4


def test_power_csv_format(capsys):
    code, out = run_cli(capsys, "power", "--kappa", "4", "--cutoff", "0.3",
                        "--reps", "1", "--n-patterns", "4", "--lambda", "8",
                        "--null", "19", "--seed", "1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kappa,cutoff,power,se"
    kappa, cutoff, power, se = map(float, lines[1].split(","))
    assert (kappa, cutoff) == (4.0, 0.3)
    assert power in (0.0, 1.0) and se == 0.0


def test_power_json_grid(capsys):
    doc = run_json(capsys, "power", "--kappa", "1", "4", "--cutoff", "0.3",
                   "--reps", "1", "--n-patterns", "4", "--lambda", "8",
                   "--null", "19", "--seed", "1")
    assert [row["kappa"] for row in doc["rows"]] == [1.0, 4.0]


def test_bounds_stein1_zero_convention(capsys):
    doc = run_json(capsys, "bounds", "--which", "stein1", "--n", "0",
                   "--lambda", "0.5")
    assert doc["values"]["stein_factor_delta1"] == 1.0


def test_bounds_counterexample(capsys):
    doc = run_json(capsys, "bounds", "--which", "counterexample",
                   "--lambda", "100")
    vals = doc["values"]
    assert vals["delta1_value"] >= vals["stated_lower_bound"]


def test_bounds_poisson_poisson_zero(capsys):
    doc = run_json(capsys, "bounds", "--which", "poisson-poisson",
                   "--mu-total", "5", "--nu-total", "5", "--dw", "0")
    assert doc["values"]["poisson_poisson"] == 0.0


def test_bounds_iid_includes_coupling(capsys):
    doc = run_json(capsys, "bounds", "--which", "iid",
                   "--mu", "binomial:3,0.5", "--nu", "binomial:3,0.8",
                   "--dw", "0.1")
    assert doc["values"]["lower"] <= doc["values"]["upper"]
    plan = np.array(doc["coupling"])
    assert plan.shape == (4, 4)
    assert abs(plan.sum() - 1.0) < 1e-9


def test_parse_count_distribution_specs():
    assert parse_count_distribution("delta:3").support == (3,)
    assert len(parse_count_distribution("binomial:4,0.25").support) == 5
    pmf = parse_count_distribution("pmf:0=0.5,2=0.5")
    assert pmf.support == (0, 2)
    with pytest.raises(ValueError):
        parse_count_distribution("zipf:2")


def test_exit_code_data_error(capsys):
    code = main(["dist", "/nonexistent/a.txt", "/nonexistent/b.txt"])
    assert code == 3


def test_exit_code_data_error_test_dir_not_listable(capsys, tmp_path):
    single = tmp_path / "single.txt"
    write_patterns(single, [np.zeros((2, 2))])
    for path in (tmp_path / "missing", single):
        code = main(["test", str(path), "--dir", "--null", "9"])
        assert code == 3
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--null", "-5"], ["--null", "0"],
                                   ["--alpha", "2"]])
def test_exit_code_domain_error_test_size(capsys, tmp_path, flags):
    data = tmp_path / "d.txt"
    write_patterns(data, [np.random.default_rng(0).random((5, 2))
                          for _ in range(3)])
    assert main(["test", str(data), "--seed", "0", *flags]) == 4
    assert "error:" in capsys.readouterr().err


def test_exit_code_dimension_mismatch(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_patterns(a, [np.zeros((2, 2))])
    write_patterns(b, [np.zeros((2, 3))])
    assert main(["dist", str(a), str(b)]) == 3


def test_exit_code_domain_error(capsys, tmp_path):
    data = tmp_path / "d.txt"
    write_patterns(data, [np.random.default_rng(0).random((5, 2))
                          for _ in range(3)])
    code = main(["test", str(data), "--lambda", "-3", "--null", "9",
                 "--seed", "0"])
    assert code == 4


def test_test_without_points_or_lambda_asks_for_lambda(capsys, tmp_path):
    data = tmp_path / "d.txt"
    write_patterns(data, [np.empty((0, 2)), np.empty((0, 2))])
    code = main(["test", str(data), "--null", "19", "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 4
    assert "no pattern has a point" in err and "--lambda" in err


def test_power_runs_when_a_replicate_draws_no_point(capsys):
    # at lambda 0.5 about a third of the replicates hold no point at all
    doc = run_json(capsys, "power", "--kappa", "1", "--lambda", "0.5",
                   "--n-patterns", "2", "--reps", "20", "--null", "19")
    assert [row["kappa"] for row in doc["rows"]] == [1.0]


def test_exit_code_usage_error():
    # argparse exits with status 2 on unknown arguments
    proc = subprocess.run(
        [sys.executable, "-m", "ppmetrics.cli", "dist", "--no-such-flag"],
        capture_output=True, env=CHILD_ENV,
    )
    assert proc.returncode == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ppmetrics.cli", "bounds", "--which", "stein2",
         "--lambda", "100", "--n", "1000000"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["values"]["stein_factor_delta2"] == 0.01


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is loaded only where a count law is built
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ppmetrics, ppmetrics.cli; "
         "print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("token", ["nan", "1e400"])
def test_exit_code_data_error_non_finite_coordinate(capsys, tmp_path, token):
    data = tmp_path / "d.txt"
    data.write_text(f"0.1 0.2\n{token} 0.5\n0.3 0.4\n\n0.6 0.7\n")
    assert main(["test", str(data), "--null", "9", "--seed", "0"]) == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "non-finite" in err


def test_exit_code_data_error_line_without_coordinates(capsys, tmp_path):
    data = tmp_path / "d.txt"
    one = tmp_path / "one.txt"
    data.write_text(",\n")
    one.write_text("0.5\n")
    assert main(["dist", str(data), str(one)]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err and "no coordinates" in err


ENVELOPE = {"command", "parameters", "seed", "wall_time_s"}
BOUNDS_DOC = {"values"}


@pytest.mark.parametrize("argv, fields, parameters, values", [
    (["dist", FIG1_A, FIG1_B], {"value"},
     {"file_a", "file_b", "metric", "order", "cutoff"}, None),
    (["dist", FIG1_A, FIG1_B, "--show-assignment"], {"value", "assignment"},
     {"file_a", "file_b", "metric", "order", "cutoff"}, None),
    (["test", "{data}", "--null", "19", "--seed", "1"],
     {"statistic", "null_statistics", "rank", "p_value", "reject"},
     {"data", "lambda", "metric", "order", "cutoff", "null", "alpha",
      "redraw_reference", "n_patterns"}, None),
    (["power", "--kappa", "2", "--reps", "1", "--n-patterns", "3", "--lambda",
      "5", "--null", "19"], {"rows"},
     {"kappa", "cutoff", "metric", "reps", "n_patterns", "lambda", "null",
      "share_reference", "known_lambda"}, None),
    (["bounds", "--which", "stein1", "--n", "10", "--lambda", "4"], BOUNDS_DOC,
     {"which", "n", "lambda"}, {"stein_factor_delta1"}),
    (["bounds", "--which", "stein2", "--lambda", "4"], BOUNDS_DOC,
     {"which", "n", "lambda"}, {"stein_factor_delta2"}),
    (["bounds", "--which", "bernoulli-poisson", "--n", "50", "--p", "0.1"],
     BOUNDS_DOC, {"which", "n", "p"},
     {"bernoulli_binomial", "binomial_poisson", "bernoulli_poisson"}),
    (["bounds", "--which", "iid", "--mu", "poisson:2", "--nu", "delta:1"],
     BOUNDS_DOC | {"coupling"}, {"which", "mu", "nu", "dw"},
     {"lower", "upper", "c1", "c2", "drw_value"}),
    (["bounds", "--which", "poisson-poisson", "--mu-total", "5",
      "--nu-total", "6"], BOUNDS_DOC, {"which", "mu_total", "nu_total", "dw"},
     {"poisson_poisson"}),
    (["bounds", "--which", "counterexample", "--lambda", "50"], BOUNDS_DOC,
     {"which", "lambda"}, {"delta1_value", "delta2_value", "stated_lower_bound"}),
], ids=["dist", "dist-assignment", "test", "power", "stein1", "stein2",
        "bernoulli-poisson", "iid", "poisson-poisson", "counterexample"])
def test_document_shapes(capsys, tmp_path, argv, fields, parameters, values):
    data = tmp_path / "data.txt"
    write_patterns(data, [np.random.default_rng(2).random((4, 2))
                          for _ in range(3)])
    doc = run_json(capsys, *[arg.format(data=data) for arg in argv])
    assert doc["command"] == argv[0]
    assert set(doc) == ENVELOPE | fields
    assert set(doc["parameters"]) == parameters
    if values is not None:
        assert set(doc["values"]) == values


@pytest.mark.parametrize("which, flag", [
    ("stein1", "--lambda"), ("stein2", "--lambda"),
    ("counterexample", "--lambda"), ("bernoulli-poisson", "--n"),
    ("iid", "--mu"), ("poisson-poisson", "--mu-total"),
])
def test_bounds_names_the_missing_flag(capsys, which, flag):
    assert main(["bounds", "--which", which]) == 4
    assert capsys.readouterr().err == f"error: bounds --which {which} requires {flag}\n"


def test_oversized_binomial_trial_count_exits_4(capsys):
    code = main(["simulate", "--model", "binomial",
                 "--n", "100000000000000000000"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_allocation_failure_exits_4(capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr("ppmetrics.cli.sample_bernoulli_process", no_memory)
    assert main(["simulate", "--model", "bernoulli", "--n", "100"]) == 4
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"


def test_oversized_count_support_exits_4(capsys):
    code = main(["bounds", "--which", "iid", "--mu", "poisson:1e9",
                 "--nu", "delta:1"])
    assert code == 4
    assert "exceeds the limit of 1000000" in capsys.readouterr().err
