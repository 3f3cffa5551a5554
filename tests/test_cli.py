import hashlib
import json

import pytest

from bosonlearn import cli
from bosonlearn.cli import ConfigError, main, run, validate
from bosonlearn.fockspace import adaptive_cutoff
from bosonlearn.hamiltonian import random_spec, save_spec


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_schema_error(tmp_path, capsys, experiment, doc, reason):
    """validate and the run both exit 2 with the same config error line."""
    cfg = write_config(tmp_path, "c.json", doc)
    lines = []
    for argv in (["validate", "--experiment-kind", experiment], [experiment]):
        assert main(argv + ["--config", cfg]) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1]
    assert lines[0].startswith("config error: ") and reason in lines[0]


def test_missing_config_file_is_schema_error(tmp_path):
    assert main(["learn-single", "--config", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["learn-single", "--config", str(path)]) == 2


def test_missing_spec_file_is_schema_error(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"spec_path": str(tmp_path / "missing_spec.json")})
    assert main(["learn-single", "--config", cfg]) == 2


def test_validate_reports_derived_quantities(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": {"modes": 1, "d": 2, "seed": 0, "include_couplings": False}},
    )
    assert main(["validate", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hermitian"] is True
    assert out["t0_times_c_bound"] < 3.15
    assert out["cutoff_n_max"] >= 2


def test_validate_rejects_infeasible_frame(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "learn-firstq",
            "firstq": {"gprime": {"1,1": 1.0}, "ratio": 1.3, "bracket": [-1.3, 1.3]},
        },
    )
    code = main(["validate", "--config", cfg])
    assert code == 2
    assert "1.866" in capsys.readouterr().err


def test_validate_accepts_feasible_frame(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "experiment": "learn-firstq",
            "firstq": {"gprime": {"1,1": 1.0}, "ratio": 1.3, "bracket": [-0.3, 0.3]},
        },
    )
    assert main(["validate", "--config", cfg]) == 0


@pytest.mark.parametrize(
    "firstq, reason",
    [
        ({"ratio": 1.3}, "gprime"),
        ({"gprime": {"1,1": 1.0}, "ratio": 0}, "bad firstq block"),
        ({"gprime": {"1,1": 1.0}, "bracket": [0.3]}, "bad firstq block"),
        ({"gprime": {"x": 1.0}}, "bad firstq block"),
    ],
)
def test_bad_firstq_block_is_schema_error(tmp_path, capsys, firstq, reason):
    cfg = write_config(tmp_path, "c.json", {"experiment": "learn-firstq", "firstq": firstq})
    assert main(["learn-firstq", "--config", cfg]) == 2
    assert reason in capsys.readouterr().err
    assert main(["validate", "--config", cfg]) == 2
    assert reason in capsys.readouterr().err


NUMBER_TERM = {"modes": [0], "p": [1], "q": [1], "re": 1.0, "im": 0.0}


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"modes": 1, "d": 2}', "has no 'terms' field"),
        ("{not json", "bad spec file"),
        # int() used to run d = 2.9 as d = 2, and a float mode died in a traceback
        (json.dumps({"modes": 1, "d": 2.9, "terms": [NUMBER_TERM]}), "bad spec file"),
        (json.dumps({"modes": 1, "d": 2, "terms": [{**NUMBER_TERM, "modes": [0.0]}]}), "bad spec file"),
    ],
)
def test_bad_spec_file_is_schema_error(tmp_path, capsys, text, reason):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    cfg = write_config(tmp_path, "c.json", {"spec_path": str(spec_path)})
    assert main(["learn-single", "--config", cfg]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "term, reason",
    [
        ({"modes": [0], "p": [2], "q": [0], "re": 0.3, "im": 0.1}, "unpaired terms"),
        ({"modes": [0], "p": [3], "q": [3], "re": 0.3, "im": 0.0}, "order outside"),
    ],
)
def test_spec_file_that_is_not_hermitian_is_schema_error(tmp_path, capsys, term, reason):
    spec_path = tmp_path / "spec.json"
    number = {"modes": [0], "p": [1], "q": [1], "re": 1.0, "im": 0.0}
    spec_path.write_text(json.dumps({"modes": 1, "d": 2, "terms": [number, term]}))
    cfg = write_config(tmp_path, "c.json", {"spec_path": str(spec_path)})
    for argv in (["learn-single", "--config", cfg], ["validate", "--config", cfg]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: bad spec file" in err and reason in err


def test_learn_single_report_contents(tmp_path, capsys, monkeypatch):
    cutoff_calls = []

    def counted_cutoff(*args, **kwargs):
        cutoff_calls.append(args)
        return adaptive_cutoff(*args, **kwargs)

    monkeypatch.setattr(cli, "adaptive_cutoff", counted_cutoff)
    spec = random_spec(1, 2, seed=4, include_couplings=False)
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    out_path = tmp_path / "report.json"
    cfg = write_config(tmp_path, "c.json", {"spec_path": str(spec_path), "grid": {"d": 2}})
    code = main(
        ["learn-single", "--config", cfg, "--seed", "1", "--noiseless", "--out", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["experiment"] == "learn-single"
    assert report["seed"] == 1
    assert "config_hash" in report
    rows = report["result"]["coefficients"]
    assert all(row["abs_error"] < 1e-7 for row in rows)
    assert report["result"]["ledger"]["shot_count"] == 0
    # the cutoff is chosen once, by the parse, and the device uses that choice
    assert len(cutoff_calls) == 1
    assert report["result"]["cutoff_n_max"] == report["validate"]["cutoff_n_max"]
    # the adaptive cutoff keeps the prepared states away from the truncation edge
    assert 0.0 <= report["result"]["edge_population"] < 1e-6


def test_unknown_strategy_is_schema_error(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": {"modes": 2, "d": 2, "seed": 1}, "strategy": "oracle"},
    )
    assert main(["learn-multi", "--config", cfg, "--noiseless"]) == 2


@pytest.mark.parametrize("rpe", [{"t0": -0.1}, {"t0": 0}, {"M": 5}, {"K": True}, "x"])
def test_bad_rpe_block_is_schema_error(tmp_path, capsys, rpe):
    # K = true used to run K = 1, and a non-object block died in a traceback
    doc = {"generator": {"modes": 1, "d": 2}, "rpe": rpe}
    assert_schema_error(tmp_path, capsys, "learn-single", doc, "bad rpe block")


@pytest.mark.parametrize("rpe", [{"L": 2.5}, {"L": 0}])
def test_bad_rpe_steps_are_schema_errors(tmp_path, rpe):
    # a fractional L used to reach the device as a fractional power
    cfg = write_config(tmp_path, "c.json", {"generator": {"modes": 1, "d": 2}, "rpe": rpe})
    assert main(["validate", "--config", cfg, "--experiment-kind", "learn-single"]) == 2


@pytest.mark.parametrize("rpe", [{"K": 2.5}, {"M": 50.7}, {"K": 2.5, "M": 50.7}])
def test_fractional_rpe_depth_and_shots_are_schema_errors(tmp_path, capsys, rpe):
    # int() used to truncate them, so K = 2.5 and M = 50.7 ran K = 2 with 50 shots
    cfg = write_config(tmp_path, "c.json", {"generator": {"modes": 1, "d": 2}, "rpe": rpe})
    assert main(["validate", "--config", cfg, "--experiment-kind", "learn-single"]) == 2
    assert "bad rpe block" in capsys.readouterr().err


FIRSTQ = {"gprime": {"1,1": 1.0, "2,2": 0.2}, "ratio": 1.3, "eps_g": 0.01}
ONE_MODE = {"modes": 1, "d": 2}


@pytest.mark.parametrize(
    "experiment, doc, reason",
    [
        ("learn-single", {"generator": ONE_MODE, "grid": {"d": 2.7}}, "grid.d"),
        ("spam-sweep", {"generator": ONE_MODE, "grid": {"d": 2.7}}, "grid.d"),
        ("learn-single", {"generator": {"modes": 1.5, "d": 2}}, "bad generator block"),
        ("learn-single", {"generator": {"modes": 1, "d": 2.7}}, "bad generator block"),
        ("learn-single", {"generator": {**ONE_MODE, "seed": 2.9}}, "bad generator block"),
        ("compare-covariance", {"grid": {"d": 2.7}}, "grid.d"),
        ("compare-covariance", {"grid": {"modes": 2.5}}, "grid.modes"),
        ("sweep-heisenberg", {"sweep": {"k_values": [4.6], "seeds": 2}}, "sweep.k_values"),
        ("sweep-heisenberg", {"sweep": {"k_values": [4], "seeds": 2.9}}, "sweep.seeds"),
        ("sweep-heisenberg", {"sweep": {"k_values": [4], "seeds": 2}, "rpe": {"M": 50.7}}, "rpe.M"),
        ("learn-firstq", {"firstq": FIRSTQ, "rpe": {"M": 50.7}}, "rpe.M"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "n_max": 48.5}}, "bad firstq block"),
        ("learn-single", {"generator": ONE_MODE, "seed": 2.9}, "seed"),
    ],
    ids=[
        "grid.d",
        "spam-sweep-grid.d",
        "generator.modes",
        "generator.d",
        "generator.seed",
        "covariance-grid.d",
        "covariance-grid.modes",
        "sweep.k_values",
        "sweep.seeds",
        "sweep-rpe.M",
        "firstq-rpe.M",
        "firstq.n_max",
        "seed",
    ],
)
def test_fractional_cli_integers_are_schema_errors(tmp_path, capsys, experiment, doc, reason):
    # int() used to truncate each of them: grid.d = 2.7 ran d = 2
    assert_schema_error(tmp_path, capsys, experiment, doc, reason)


TWO_MODES = {"modes": 2, "d": 2, "seed": 1}


@pytest.mark.parametrize(
    "experiment, doc, reason",
    [
        ("learn-multi", {"generator": TWO_MODES, "strategy": "bogus"}, "unknown strategy 'bogus'"),
        ("learn-single", {"generator": TWO_MODES}, "learn-single needs a single-mode spec"),
        ("learn-single", {"generator": ONE_MODE, "noise": {"delta_beta": [[0.1]]}}, "bad noise block"),
        ("learn-single", {"generator": ONE_MODE, "noise": {"state_prep_infidelity": 1.5}}, "[0, 1)"),
        ("learn-multi", {"generator": TWO_MODES, "noise": {"delta_beta": [[0, 0]] * 3}}, "3 entries"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_min": "a"}}, "grid.r_min"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_max": None}}, "grid.r_max"),
        ("learn-single", {"generator": ONE_MODE, "noise": "none"}, "noise must be an object"),
        ("learn-single", {"generator": "x"}, "generator must be an object"),
        ("learn-single", [{"generator": ONE_MODE}], "config file must be an object"),
        ("sweep-heisenberg", {"sweep": {"k_values": 4}}, "sweep.k_values must be a list"),
        ("spam-sweep", {"generator": ONE_MODE, "sweep": {"delta_norms": [None]}}, "delta_norms"),
        ("compare-covariance", {"grid": {"d": "x"}}, "grid.d"),
        ("learn-firstq", {"firstq": {"gprime": {"1,2": 1.0}}}, "unpaired terms"),
        ("learn-firstq", {"firstq": {"gprime": {"-1,2": 1.0}}}, "powers must be non-negative"),
        ("learn-single", {"generator": {**ONE_MODE, "include_couplings": "false"}}, "include_couplings"),
        ("learn-single", {"generator": ONE_MODE, "noiseless": "false"}, "noiseless"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "eps_g": True}}, "firstq.eps_g"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"d": 0}}, "d >= 1"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_max": 0}}, "r_max > 0"),
        ("sweep-heisenberg", {"sweep": {"k_values": [4], "seeds": 0}}, "sweep.seeds must be >= 1"),
        ("learn-single", {"generator": ONE_MODE, "out": 1}, "out must be a string"),
        ("learn-single", {"spec_path": 0}, "spec_path must be a string"),
        ("compare-covariance", {"grid": {"modes": 0}}, "modes >= 2"),
        ("compare-covariance", {"grid": {"d": 0}}, "d >= 2"),
        ("learn-firstq", {"noiseless": True, "firstq": {**FIRSTQ, "eps_g": 0}}, "firstq.eps_g must be finite"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "eps_g": -5e-3}}, "firstq.eps_g must be finite and > 0"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "eps_g": float("nan")}}, "firstq.eps_g must be finite"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "eps_g": float("inf")}}, "firstq.eps_g must be finite"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "n_max": 2}}, "firstq.n_max must be >= the spec's order 4"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "bracket": [0.3, -0.3]}}, "firstq.bracket must satisfy lo < hi"),
        (
            "learn-firstq",
            {"firstq": {**FIRSTQ, "gprime": {"1,1": float("nan"), "2,2": 0.2}}},
            "firstq.gprime must be finite",
        ),
        ("learn-single", {"generator": {**ONE_MODE, "g_max": float("nan")}}, "generator.g_max must be finite"),
        (
            "learn-single",
            {"generator": ONE_MODE, "noiseless": True, "rpe": {"t0": float("nan")}},
            "rpe.t0 must be finite",
        ),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_min": float("-inf")}}, "grid.r_min must be finite"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_min": 1.5}}, "0 <= r_min < r_max"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_min": -0.1}}, "0 <= r_min < r_max"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "gprime": {"1,0": 0.5, "0,1": 0.5}}}, "order >= 2"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "gprime": {"0,0": 1.0}}}, "order >= 2"),
        ("learn-firstq", {"firstq": FIRSTQ, "rpe": {"M": 5}}, "bad rpe block: shots per basis must be >= 20"),
        ("learn-firstq", {"firstq": FIRSTQ, "rpe": {"M": 0}}, "bad rpe block: shots per basis must be >= 20"),
        ("learn-firstq", {"firstq": FIRSTQ, "rpe": {"M": -1}}, "bad rpe block: shots per basis must be >= 20"),
        ("learn-single", {"generator": ONE_MODE, "seed": -1}, "seed must be >= 0, got -1"),
        ("learn-multi", {"generator": {"modes": 0, "d": 2}}, "bad generator block: random_spec needs modes >= 1"),
        ("learn-single", {"generator": {"modes": 1, "d": -1}, "grid": {"d": 2}}, "random_spec needs modes >= 1 and d >= 1"),
        ("compare-covariance", {"grid": {"d": 1}}, "grid needs d >= 2 and modes >= 2, got 1 and 2"),
        ("compare-covariance", {"grid": {"modes": 1}}, "grid needs d >= 2 and modes >= 2, got 2 and 1"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "bracket": [-1e6, 0.3]}}, "overlap infeasible: bracket edge 1000000.0"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "bracket": [-0.3, 1e300]}}, "overlap infeasible: bracket edge 1e+300"),
        ("learn-single", {"generator": ONE_MODE, "rpe": {"K": 2000}}, "bad rpe block: k_max 2000 puts"),
        ("learn-single", {"generator": ONE_MODE, "rpe": {"K": 10**6}}, "bad rpe block: k_max 1000000 puts"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_max": 1e300}}, "grid.r_max must be <= 7.87401"),
        ("learn-single", {"generator": ONE_MODE, "grid": {"r_max": 10}}, "grid.r_max must be <= 7.87401"),
        ("learn-firstq", {"firstq": {**FIRSTQ, "n_max": 10**6}}, "firstq.n_max must be below the budget of 4096"),
        ("compare-covariance", {"grid": {"d": 10**6}}, "at least (d+1)^(2 modes) = 1000001^4 grid points"),
        ("compare-covariance", {"grid": {"modes": 10**6}}, "at least (d+1)^(2 modes) = 3^2000000 grid points"),
        (
            "compare-covariance",
            {"grid": {"modes": 6}},
            "design of 2985984 grid points x 90 real parameters = 268738560 entries is above the budget",
        ),
    ],
    ids=[
        "strategy",
        "single-mode-rule",
        "delta_beta-entry",
        "state_prep_infidelity",
        "delta_beta-modes",
        "grid.r_min",
        "grid.r_max",
        "noise-block",
        "generator-block",
        "config-list",
        "sweep.k_values",
        "sweep.delta_norms",
        "covariance-grid.d",
        "gprime-unpaired",
        "gprime-negative",
        "include_couplings",
        "noiseless",
        "firstq.eps_g",
        "grid.d-zero",
        "grid.r_max-zero",
        "sweep.seeds-zero",
        "out-descriptor",
        "spec_path-descriptor",
        "covariance-grid.modes-zero",
        "covariance-grid.d-zero",
        "firstq.eps_g-zero",
        "firstq.eps_g-negative",
        "firstq.eps_g-nan",
        "firstq.eps_g-inf",
        "firstq.n_max-below-order",
        "firstq.bracket-reversed",
        "gprime-nan",
        "generator.g_max-nan",
        "rpe.t0-nan",
        "grid.r_min-minus-inf",
        "grid.r_min-above-r_max",
        "grid.r_min-negative",
        "firstq.gprime-order-1",
        "firstq.gprime-order-0",
        "firstq-rpe.M-5",
        "firstq-rpe.M-zero",
        "firstq-rpe.M-negative",
        "seed-negative",
        "generator.modes-zero",
        "generator.d-negative",
        "covariance-grid.d-one",
        "covariance-grid.modes-one",
        "firstq.bracket-minus-1e6",
        "firstq.bracket-1e300",
        "rpe.K-2000",
        "rpe.K-1e6",
        "grid.r_max-1e300",
        "grid.r_max-10",
        "firstq.n_max-1e6",
        "covariance-grid.d-1e6",
        "covariance-grid.modes-1e6",
        "covariance-grid.modes-6",
    ],
)
def test_mistyped_config_fields_are_schema_errors(tmp_path, capsys, experiment, doc, reason):
    # validate used to pass each of these; the run exited 1, died in a
    # traceback (d = 0 and r_max = 0 divide by zero), reported NaN for no
    # seeds, read a string "false" as true and eps_g = true as 1.0, opened
    # an integer path as a file descriptor (out = 1 wrote into stdout and
    # closed it; spec_path = 0 read the spec from stdin), bisected forever
    # (eps_g = 0), learned on a truncation below the spec's order, or read
    # JSON's NaN as a number (a NaN rpe.t0 exited 0 with every error NaN);
    # an r_min outside [0, r_max), a firstq spec below order 2, a firstq
    # rpe.M below 20, a negative seed on the shot channel and a covariance
    # grid without a coupling block (d or modes 1) passed validate and the
    # run exited 1; generator modes 0 or d -1 and a bracket edge whose cosh
    # overflows ended in a traceback; an rpe.K whose deepest round's phase
    # period is below c_bound's float spacing passed validate and the run
    # overflowed (K 2000) or hung (K 10^6); an r_max of 1e300 overflowed in
    # validate, and one of 10 exited 1 there for a cutoff floor above the
    # ceiling; a firstq.n_max of 10^6 ran out of memory
    assert_schema_error(tmp_path, capsys, experiment, doc, reason)


def test_a_finite_l_joint_space_above_the_budget_is_a_config_error():
    # three modes at n_max 24 are 15,625 dims: the run built that H and was
    # killed for memory, so the config goes through validate only
    doc = {"experiment": "learn-multi", "generator": {"modes": 3, "d": 2, "seed": 1}}
    doc.update(grid={"d": 2}, rpe={"K": 4, "M": 50})
    with pytest.raises(ConfigError, match="15625-dim joint space .* above the budget of 4096 dims"):
        validate(doc)
    # the ideal limit builds no joint-space matrix
    assert validate({**doc, "rpe": {"K": 4, "M": 50, "L": None}})["cutoff_n_max"] == 24


def test_a_run_parses_its_config_once(tmp_path, capsys, monkeypatch):
    calls = {"random_spec": 0, "derive_config": 0, "adaptive_cutoff": 0}

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    cfg = write_config(tmp_path, "c.json", {"generator": TWO_MODES, "grid": {"d": 2}})
    assert main(["learn-multi", "--config", cfg, "--noiseless"]) == 0
    assert calls == {"random_spec": 1, "derive_config": 1, "adaptive_cutoff": 1}


def test_learn_multi_noiseless_recovers_truth(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"generator": {"modes": 2, "d": 2, "seed": 9, "sparsity": 0.7}, "grid": {"d": 2}},
    )
    assert main(["learn-multi", "--config", cfg, "--noiseless", "--seed", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["result"]["coefficients"]
    assert len(rows) > 0
    assert max(row["abs_error"] for row in rows) < 1e-6
    assert 0.0 <= report["result"]["edge_population"] < 1e-6
    assert report["result"]["clipped_probabilities"] == 0
    assert report["result"]["diagnostics"]["inconsistent_rounds"] == 0
    assert report["result"]["diagnostics"]["inconsistent_runs"] == {}
    residuals = report["result"]["diagnostics"]["max_residual"]
    assert set(residuals) == {"s0", "s1", "j"} and max(residuals.values()) < 1e-8


def test_learn_single_shot_report_names_inconsistent_runs(tmp_path, capsys):
    # 20 shots per basis are few enough that some rounds jump in some of
    # three seeded learns
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": {"modes": 1, "d": 2, "seed": 3, "include_couplings": False},
            "rpe": {"M": 20, "K": 6, "L": None},
        },
    )
    named = 0
    for seed in (1, 2, 3):
        assert main(["learn-single", "--config", cfg, "--seed", str(seed)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        diagnostics = result["diagnostics"]
        runs = diagnostics["inconsistent_runs"]
        assert all(token.startswith(f"cli{seed}:m0:p") and rounds for token, rounds in runs.items())
        assert sum(map(len, runs.values())) == diagnostics["inconsistent_rounds"]
        assert result["clipped_probabilities"] == 0
        named += len(runs)
    assert named > 0


def test_learn_multi_prior_covers_the_joint_grid(tmp_path, capsys):
    # with a one-mode prior (c_bound 5) this spec reaches |C| t0 > pi on the
    # joint grid, the first RPE round wraps, and the learn is off by up to 1.37
    doc = {"generator": {"modes": 2, "d": 2, "seed": 4}, "grid": {"d": 2}}
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["validate", "--config", cfg, "--experiment-kind", "learn-multi"]) == 0
    assert json.loads(capsys.readouterr().out)["c_bound"] == 14
    assert main(["learn-multi", "--config", cfg, "--noiseless"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["coefficients"]
    assert len(rows) > 0
    assert max(row["abs_error"] for row in rows) < 1e-8


def test_compare_covariance_default_design(capsys):
    assert main(["compare-covariance"]) == 0
    report = json.loads(capsys.readouterr().out)
    res = report["result"]
    assert res["ordered"] is True
    assert res["min_eig_single_block"] >= -1e-10
    assert res["min_eig_coupling_block"] >= -1e-10
    assert res["woodbury_residual"] < 1e-9
    assert res["design_points"] == 144


def test_sweep_csv_is_byte_identical_for_same_config_and_seed(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"sweep": {"k_values": [4, 5], "seeds": 4}, "rpe": {"M": 50}}
    )
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["sweep-heisenberg", "--config", cfg, "--seed", "3", "--out", str(out1)]) == 0
    assert main(["sweep-heisenberg", "--config", cfg, "--seed", "3", "--out", str(out2)]) == 0
    csv1 = (tmp_path / "a.csv").read_bytes()
    csv2 = (tmp_path / "b.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "k,total_time,rmse,shots"


def test_sweep_report_matches_its_golden_values():
    # one RPE run per seed on a fresh device, read out in full: a change to
    # the RPE entry or to how the sweep reads a run's time moves these bits
    config = {"experiment": "sweep-heisenberg", "seed": 0, "noiseless": False}
    config.update(sweep={"k_values": [4, 5], "seeds": 3}, rpe={"M": 50})
    rows = run(config)["result"]["rows"]
    assert [(r["k"], r["total_time"].hex(), r["rmse"].hex(), r["shots"]) for r in rows] == [
        (4, "0x1.b6408e8d64d25p+10", "0x1.a100c2dcc4e80p-8", 500),
        (5, "0x1.bd521d3d17ff1p+11", "0x1.c1f3ac7d72dbep-8", 600),
    ]


def _hexed(value):
    """value with every float written as float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


# the benchmark's learn-multi config, and the firstq config of
# test_learn_firstq_cli_noiseless
BENCH_MULTI = {
    "experiment": "learn-multi",
    "workers": 1,
    "generator": {"modes": 2, "d": 3, "seed": 7, "include_couplings": True, "sparsity": 0.5},
    "grid": {"d": 3, "r_min": 0.2, "r_max": 1.0},
    "rpe": {"K": 10},
}
FIRSTQ_BRACKETED = {"experiment": "learn-firstq", "firstq": {**FIRSTQ, "bracket": [-0.3, 0.3]}}


@pytest.mark.parametrize(
    "doc, seed, digest, pinned",
    [
        (BENCH_MULTI, 7000, "2dea542919685a0a", {"derived_t0": "0x1.549f6051ea4b1p-4"}),
        (FIRSTQ_BRACKETED, 7, "88b8735dc549e2ef", {"r_hat": "0x1.07fffffffffffp-3"}),
    ],
    ids=["learn-multi", "learn-firstq"],
)
def test_noiseless_reports_match_their_golden_values(doc, seed, digest, pinned):
    # every number of the result, as float.hex, recorded before the config
    # parse was shared between validate and the runners; the learn-firstq
    # digest was re-recorded when its report gained edge_population and
    # clipped_probabilities, and without those two fields it reads the
    # earlier 397f0502233f63d3; it was re-recorded again when the frame
    # signal came to sum 15 products, not 50, moving k_hat, eps_r and the
    # stderrs by a few ulps (dda311de647c75ba), and the report gained the
    # search's and the final learn's evolution time and shots
    # (0d9ddc48759c054a); it was re-recorded once more when the search's
    # fallback_used gave way to its final width and the final learn gained
    # k_max and k_capped, every other value bit for bit the same
    # (9d72bab3ae480b26); and once more when the final learn gained its
    # planned shots and predicted_eps, without which it still reads
    # 9d72bab3ae480b26
    result = _hexed(run({**doc, "seed": seed, "noiseless": True})["result"])
    assert {key: result[key] for key in pinned} == pinned
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()[:16] == digest


def test_sweep_csv_changes_with_seed(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", {"sweep": {"k_values": [4], "seeds": 4}, "rpe": {"M": 50}}
    )
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["sweep-heisenberg", "--config", cfg, "--seed", "3", "--out", str(out1)]) == 0
    assert main(["sweep-heisenberg", "--config", cfg, "--seed", "4", "--out", str(out2)]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_run_requires_spec_or_generator():
    with pytest.raises(ConfigError):
        validate({"experiment": "learn-single", "seed": 0, "workers": 1, "noiseless": True})


def test_learn_firstq_cli_noiseless(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "firstq": {
                "gprime": {"1,1": 1.0, "2,2": 0.2},
                "ratio": 1.3,
                "eps_g": 0.01,
                "bracket": [-0.3, 0.3],
            }
        },
    )
    assert main(["learn-firstq", "--config", cfg, "--seed", "7", "--noiseless"]) == 0
    report = json.loads(capsys.readouterr().out)
    res = report["result"]
    assert abs(res["r_hat"] - res["r_true"]) < 2 * res["bisection"]["eps_r"]
    assert res["bisection"]["width"] <= res["bisection"]["eps_r"]
    assert res["final_learn"]["k_max"] == 10 and res["final_learn"]["k_capped"] is False
    # the default n_max = 48 holds every prepared state well inside the cutoff
    assert 0.0 <= res["edge_population"] < 1e-6
    assert res["clipped_probabilities"] == 0


def test_learn_firstq_report_splits_its_ledger_between_search_and_final_learn(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"firstq": {**FIRSTQ, "bracket": [-0.3, 0.3]}, "rpe": {"M": 50}})
    assert main(["learn-firstq", "--config", cfg, "--seed", "3"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    search, final, ledger = res["bisection"], res["final_learn"], res["ledger"]
    assert search["evolution_time"] > 0 and final["evolution_time"] > 0
    total = search["evolution_time"] + final["evolution_time"]
    assert total == pytest.approx(ledger["total_evolution_time"], rel=1e-12)
    assert search["shot_count"] + final["shot_count"] == ledger["shot_count"]


def test_spam_sweep_rows_and_one_clean_learn(tmp_path, capsys, monkeypatch):
    built = []

    class CountedDevice(cli.SimulatedDevice):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "SimulatedDevice", CountedDevice)
    norms = [1e-3, 1e-2, 3e-2]
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "generator": {"modes": 1, "d": 2, "seed": 3, "include_couplings": False},
            "sweep": {"delta_norms": norms},
        },
    )
    assert main(["spam-sweep", "--config", cfg, "--seed", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert [row["delta_norm"] for row in rows] == norms
    assert all(row["within_bound"] and 0.0 < row["observed"] <= row["bound"] for row in rows)
    # one clean learn shared by every norm, plus one biased learn per norm
    assert len(built) == 1 + len(norms)


def test_spam_sweep_validate_reports_what_the_sweep_runs(tmp_path, capsys, monkeypatch):
    cutoffs = []

    class RecordedDevice(cli.SimulatedDevice):
        def __init__(self, spec, cutoff, **kwargs):
            cutoffs.append(cutoff.n_max)
            super().__init__(spec, cutoff, **kwargs)

    monkeypatch.setattr(cli, "SimulatedDevice", RecordedDevice)
    # the sweep runs its own exact-channel schedule, so an rpe block it never
    # reads is no config error
    doc = {
        "generator": {"modes": 1, "d": 2, "seed": 3, "include_couplings": False},
        "sweep": {"delta_norms": [1e-3]},
        "rpe": {"M": 10},
    }
    cfg = write_config(tmp_path, "c.json", doc)
    assert main(["validate", "--config", cfg, "--experiment-kind", "spam-sweep"]) == 0
    checked = json.loads(capsys.readouterr().out)
    spec = random_spec(1, 2, seed=3, include_couplings=False)
    assert checked["cutoff_n_max"] == adaptive_cutoff(spec, 1.1).n_max == 13
    assert main(["spam-sweep", "--config", cfg, "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["validate"] == checked
    assert cutoffs == [checked["cutoff_n_max"]] * 2
    assert report["validate"]["c_bound"] == 5.0
