"""The cross-check oracles stay out of the runtime path.

bosonlearn.oracles holds reference implementations that only the tests
compare against; a learn or a CLI run must never load it, and the package
namespace must not export what moved there.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import bosonlearn

MOVED = (
    "rotation_matrix",
    "rotation_phases",
    "herm_expm",
    "effective_diagonal",
    "effective_exact",
    "phase_averaged_matrix",
    "COND_WARN",
    "radial_fit",
    "angular_idft",
    "predict_covariance",
    "CovarianceReport",
    "multidim_fit",
    "nb_expansion",
    "symmetrized_to_normal",
    "conjugate_spec_by_mismatch",
    "run_shot",
    "_embed",
    "annihilation_matrix",
    "creation_matrix",
    "number_matrix",
    "vacuum_state",
    "displacement_matrix",
    "squeeze_matrix",
)
RUNTIME = ("fockspace", "hamiltonian", "device", "protocol", "recovery", "bogoliubov", "cli")

PROBE = textwrap.dedent(
    """
    import json
    import sys

    import bosonlearn
    from bosonlearn import cli

    spec = bosonlearn.random_spec(1, 2, seed=3, include_couplings=False)
    device = bosonlearn.SimulatedDevice(spec, bosonlearn.adaptive_cutoff(spec, 1.0), master_seed=0)
    cfg = bosonlearn.derive_config(2, k_max=4, shots=50, l_steps=None)
    single = bosonlearn.learn_single_mode(device, 2, cfg)
    report = cli.run(
        {
            "experiment": "learn-multi",
            "generator": {"modes": 2, "d": 2, "seed": 9, "sparsity": 0.7},
            "grid": {"d": 2},
            "seed": 0,
            # the CLI ignores a workers key
            "workers": 1,
            "noiseless": True,
        }
    )
    print(json.dumps({
        "loaded": sorted(name for name in sys.modules if name.startswith("bosonlearn")),
        "exported": bosonlearn.__all__,
        "single_keys": len(single.estimates),
        "multi_worst": max(row["abs_error"] for row in report["result"]["coefficients"]),
    }))
    """
)


def test_learners_and_cli_never_load_the_oracles():
    src = str(Path(bosonlearn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["single_keys"] == 5
    assert probe["multi_worst"] < 1e-6
    assert "bosonlearn.cli" in probe["loaded"]
    assert "bosonlearn.oracles" not in probe["loaded"]
    assert not set(MOVED) & set(probe["exported"])


def test_moved_names_live_only_in_the_oracles():
    import importlib

    from bosonlearn import oracles

    for short in RUNTIME:
        module = importlib.import_module(f"bosonlearn.{short}")
        assert not set(MOVED) & set(vars(module)), short
    device = bosonlearn.SimulatedDevice
    assert not hasattr(device, "run_shot") and not hasattr(device, "_rng")
    # one device serves one noise model, fixed when it is made
    assert not hasattr(device, "set_noise")
    assert not hasattr(bosonlearn.FockCutoff, "check_mode")
    assert not {"effective_exact", "multidim_fit", "run_shot"} & set(vars(oracles))
    assert callable(oracles.literal_shot) and callable(oracles.shot_stream)
