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
    # the cutoff is chosen once, in validate, and the device uses that choice
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
    assert report["result"]["diagnostics"]["inconsistent_rounds"] == 0


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
    assert res["bisection"]["fallback_used"] is False


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
