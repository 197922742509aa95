import copy
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

import qkshots
from qkshots import ClassicalProfile, HardwareProfile
from qkshots.cli import _KEYS, _PER_RUN, _REQUIRED, _check_keys, _field, main
from qkshots.kernels import kernel_statistics
from qkshots.serialize import read_kernel_csv, read_series_csv


# the CLI parses with libyaml when PyYAML has it; both loaders must agree
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

# YAML 1.1 reads exponent literals without a sign ("1e12") as strings
EXPONENT_LITERALS = (
    "kernel: {family: fidelity}\n"
    "feature_map: {repetitions: 1, entanglement: linear}\n"
    "resources:\n"
    "  m: 10\n"
    "  shots_per_estimate: 100\n"
    "  n_values: [3, 5]\n"
    "  classical: {c0: 1e6, flops_per_second: 1e12, power_w: 1e4}\n"
)


def load_yaml(text):
    """The value of ``text``; every loader must resolve it alike."""
    loaded = [yaml.load(text, Loader=loader) for loader in LOADERS]
    assert all(value == loaded[0] for value in loaded[1:])
    return loaded[0]


def write_yaml(path, text):
    load_yaml(text)
    path.write_text(text)
    return str(path)


def write_config(tmp_path, payload, name="config.yaml"):
    return write_yaml(tmp_path / name, yaml.safe_dump(payload))


def base_config(**overrides):
    config = {
        "seed": 5,
        "dataset": {"type": "twonorm", "m": 16, "n_features": 6},
        "feature_map": {"n_qubits": 3, "repetitions": 1, "entanglement": "linear"},
        "kernel": {"family": "fidelity"},
    }
    config.update(overrides)
    return config


class TestKernelsCommand:
    def test_exact_gram_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        kernel = read_kernel_csv(tmp_path / "gram.csv")
        assert kernel.m == 16
        assert np.all(np.diag(kernel.values) == 1.0)
        meta = json.loads((tmp_path / "gram.meta.json").read_text())
        assert meta["provenance"]["config"]["seed"] == 5
        assert meta["provenance"]["version"]

    def test_sampled_gram_records_shots(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(sampling={"n_shots": 128, "p_error": 0.01, "seed": 17}),
        )
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "gram.meta.json").read_text())
        assert meta["metadata"]["seed"] == 17
        assert meta["metadata"]["n_shots"] == 128
        assert meta["metadata"]["total_shots"] == 128 * 16 * 15 // 2

    def test_invalid_entanglement_exits_two(self, tmp_path, capsys):
        payload = base_config()
        payload["feature_map"]["entanglement"] = "circular"
        cfg = write_config(tmp_path, payload)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "configuration"
        assert "entanglement" in err["message"]

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["kernels", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "configuration"

    @pytest.mark.parametrize("text", ["dataset: [1, 2\n", "a: b: c\n", "- 1\n- 2\n"])
    def test_malformed_yaml_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["kernels", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "configuration"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["kernels", "--config", cfg, "--out", str(out_a), "--seed", "1"])
        main(["kernels", "--config", cfg, "--out", str(out_b), "--seed", "2"])
        a = read_kernel_csv(out_a / "gram.csv")
        b = read_kernel_csv(out_b / "gram.csv")
        assert not np.array_equal(a.values, b.values)  # different generated data


class TestEstimateShotsCommand:
    def test_budget_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            base_config(budget={"eps": 0.8, "p_spread": 0.9, "p_ca": 0.99}),
        )
        assert main(["estimate-shots", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "shot_budgets.json").read_text())
        dataset_budget = payload["dataset_budget"]
        assert dataset_budget["n_required"] == max(
            dataset_budget["n_spread"], dataset_budget["n_ca"]
        )
        assert dataset_budget["effect_dominant"] in (
            "spread",
            "concentration_avoidance",
        )
        assert len(payload["entries"]) == 16 * 15 // 2
        assert payload["error_budget"]["p_max"] > 0

    def test_projected_budgets(self, tmp_path):
        payload = base_config(kernel={"family": "projected", "gamma": 0.5})
        payload["dataset"]["m"] = 8
        cfg = write_config(tmp_path, payload)
        assert main(["estimate-shots", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = json.loads((tmp_path / "shot_budgets.json").read_text())
        assert out["dataset_budget"]["family"] == "projected"
        assert out["dataset_budget"]["inputs"]["spread_path"] == "components"

    @pytest.mark.parametrize("family", ["fidelity", "projected"])
    def test_zero_iqr_fails_first_with_the_dataset_message(self, tmp_path, capsys, family):
        # equal points give a kernel of ones: the entry budgets would refuse
        # its zero spread too, but the dataset-level refusal comes first
        csv = tmp_path / "same.csv"
        csv.write_text("a,b,c,label\n" + "0.1,0.2,0.3,0\n0.1,0.2,0.3,1\n" * 4)
        cfg = write_config(tmp_path, base_config(
            dataset={"type": "csv", "path": str(csv), "label_column": "label",
                     "preprocess": False},
            kernel={"family": family}))
        assert main(["estimate-shots", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "ensemble IQR is zero; entries are indistinguishable and no "
                       "finite spread budget exists",
        }
        assert not (tmp_path / "shot_budgets.json").exists()


@pytest.mark.parametrize("p_error", [0.0, 0.01])
@pytest.mark.parametrize("family", ["fidelity", "projected"])
@pytest.mark.parametrize("command, eps, artifact", [
    ("estimate-shots", 1e-300, "shot_budgets.json"),
    ("sweep", 1e-160, "series.csv"),
])
def test_spread_count_past_the_float_range_exits_two(
        tmp_path, capsys, command, eps, artifact, family, p_error):
    # eps^2 underflows (1e-300) or the count overflows (1e-160)
    cfg = write_config(tmp_path, base_config(
        kernel={"family": family}, budget={"eps": eps, "p_error": p_error},
        sweep={"n_values": [2, 3, 4, 5]}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "configuration",
        "message": "eps is too small: the spread bound exceeds the float range",
    }
    assert not (tmp_path / artifact).exists()


@pytest.mark.parametrize("family", ["fidelity", "projected"])
@pytest.mark.parametrize("command, sizes", [("estimate-shots", [3]), ("sweep", [2, 3, 4, 5])])
def test_statistics_computed_once_per_kernel(tmp_path, monkeypatch, command, sizes, family):
    # once per estimate-shots call and once per swept size: the dataset
    # budget takes the statistics its caller already holds
    counted = []

    def count(kernel):
        counted.append(kernel.config.n_qubits)
        return kernel_statistics(kernel)

    for module in ("cli", "scaling", "shot_bounds"):
        monkeypatch.setattr(f"qkshots.{module}.kernel_statistics", count)
    cfg = write_config(tmp_path, base_config(kernel={"family": family},
                                             sweep={"n_values": [2, 3, 4, 5]}))
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert counted == sizes


class TestSweepCommand:
    def test_series_and_fits(self, tmp_path):
        payload = base_config(
            sweep={"n_values": [2, 3, 4, 5, 6], "extrapolate_to": [12]},
        )
        payload["dataset"]["m"] = 20
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        series = read_series_csv(tmp_path / "series.csv")
        assert {"mean", "std", "median", "iqr"} <= set(series)
        assert all(s.qubit_counts.size == 5 for s in series.values())
        fits = json.loads((tmp_path / "fits.json").read_text())["fits"]
        for name in ("mean", "median"):
            assert "dropped_prefix" in fits[name]
            assert "valid" in fits[name]

    def test_prints_and_writes_exactly_series_and_fits(self, tmp_path, capsys):
        payload = base_config(sweep={"n_values": [2, 3, 4, 5]})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(out / "series.csv"), str(out / "fits.json")]
        assert sorted(path.name for path in out.iterdir()) == ["fits.json", "series.csv"]

    def test_low_extrapolation_target_warns_but_computes(self, tmp_path, capsys):
        payload = base_config(sweep={"n_values": [2, 3, 4, 5, 6], "extrapolate_to": [3, 4, 3, 9]})
        payload["dataset"]["m"] = 20
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        fits = json.loads((tmp_path / "fits.json").read_text())["fits"]
        valid_fits = [f for f in fits.values() if f.get("valid")]
        assert len(valid_fits) > 1
        assert all(set(f["extrapolations"]) == {"3", "4", "9"} for f in valid_fits)
        # one warning per target, however many fits reach it
        assert capsys.readouterr().err.splitlines() == [
            f"warning: extrapolation target n={n} lies below the largest fitted size n=6"
            for n in (3, 4)
        ]

    def test_targets_below_one_exit_two_before_any_work(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a kernel was built before the target was refused")

        monkeypatch.setattr("qkshots.scaling.gram_matrix", refuse)
        payload = base_config(sweep={"n_values": [2, 3, 4, 5], "extrapolate_to": [-3, 0]})
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": "sweep.extrapolate_to: expected an integer >= 1, got -3",
        }
        assert not (tmp_path / "fits.json").exists()


class TestResourcesCommand:
    def test_report_with_crossover(self, tmp_path):
        payload = {
            "seed": 0,
            "kernel": {"family": "projected", "gamma": 1.0},
            "feature_map": {"repetitions": 2, "entanglement": "full"},
            "resources": {
                "m": 100,
                "shots_per_estimate": 1000,
                "n_values": [4, 8, 12, 16],
                "corrected": True,
                "error_budget": 1e-3,
                "classical": {"c0": 1e6, "flops_per_second": 1e12, "power_w": 1e4},
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        assert len(report["scenarios"]) == 4
        first = report["scenarios"][0]["quantum"]
        assert first["code_distance"] is not None
        assert "crossover_n" in report
        assert report["provenance"]["command"] == "resources"

    def test_crossover_is_the_smallest_passing_size_in_any_order(self, tmp_path):
        reports = []
        for n_values in ([8, 16, 24, 32, 40, 48], [48, 40, 32, 24, 16, 8]):
            payload = {
                "kernel": {"family": "fidelity"},
                "feature_map": {"repetitions": 2, "entanglement": "full"},
                "resources": {
                    "m": 100, "shots_per_estimate": 1024, "n_values": n_values,
                    "corrected": True, "error_budget": 1e-3, "classical": {"c0": 1e7},
                },
            }
            out = tmp_path / str(n_values[0])
            cfg = write_config(tmp_path, payload, name=f"{n_values[0]}.yaml")
            assert main(["resources", "--config", cfg, "--out", str(out)]) == 0
            reports.append(json.loads((out / "resources.json").read_text()))
        for report in reports:
            assert report["crossover_n"] == {"runtime": 24, "energy": 16}
            assert [row["n"] for row in report["scenarios"]] == [8, 16, 24, 32, 40, 48]
        assert reports[0]["scenarios"] == reports[1]["scenarios"]

    def test_ideal_report_without_classical(self, tmp_path):
        payload = {
            "kernel": {"family": "fidelity"},
            "feature_map": {"repetitions": 1, "entanglement": "linear"},
            "resources": {"m": 10, "shots_per_estimate": 100, "n_values": [3, 5]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        assert "crossover_n" not in report
        assert report["scenarios"][0]["quantum"]["code_distance"] is None


class TestCharacterizeCommand:
    def test_series_outputs(self, tmp_path):
        payload = base_config(characterize={"n_values": [2, 3, 4]})
        payload["feature_map"]["entanglement"] = "full"
        cfg = write_config(tmp_path, payload)
        assert main(["characterize", "--config", cfg, "--out", str(tmp_path)]) == 0
        series = read_series_csv(tmp_path / "characteristics.csv")
        assert set(series) == {"expressibility", "relative_entropy"}
        assert np.all(series["relative_entropy"].values > 0)


class TestConfigEdgeCases:
    def test_unknown_hardware_key_exits_two(self, tmp_path, capsys):
        payload = {
            "kernel": {"family": "fidelity"},
            "feature_map": {"repetitions": 1, "entanglement": "linear"},
            "resources": {
                "m": 10,
                "shots_per_estimate": 100,
                "n_values": [3],
                "hardware": {"gate_time": 1e-9},  # misspelled key
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": "unknown config key 'resources.hardware.gate_time'; "
                       "the closest known key is 'resources.hardware.gate_time_s'",
        }

    def test_yaml_exponent_literals_coerced(self, tmp_path):
        # profile values read as strings must still come through as numbers
        path = write_yaml(tmp_path / "raw.yaml", EXPONENT_LITERALS)
        assert main(["resources", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        assert report["scenarios"][0]["classical"]["runtime_s"] > 0

    def test_corrected_without_budget_exits_two(self, tmp_path):
        payload = {
            "kernel": {"family": "fidelity"},
            "feature_map": {"repetitions": 1, "entanglement": "linear"},
            "resources": {
                "m": 10,
                "shots_per_estimate": 100,
                "n_values": [3],
                "corrected": True,
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_qubit_cap_enforced(self, tmp_path):
        payload = base_config(qubit_cap=2)
        cfg = write_config(tmp_path, payload)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_raised_qubit_cap_allows_run(self, tmp_path):
        payload = base_config(qubit_cap=8)
        cfg = write_config(tmp_path, payload)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, payload, key, largest, cap", [
        ("kernels", base_config(qubit_cap=3, feature_map={"n_qubits": 4}),
         "feature_map.n_qubits", 4, 3),
        ("estimate-shots", base_config(qubit_cap=3, feature_map={"n_qubits": 4}),
         "feature_map.n_qubits", 4, 3),
        ("sweep", base_config(qubit_cap=3, sweep={"n_values": [2, 3, 4]}),
         "sweep.n_values", 4, 3),
        ("characterize", base_config(qubit_cap=3, characterize={"n_values": [4, 2]}),
         "characterize.n_values", 4, 3),
        ("sweep", base_config(dataset={"type": "twonorm", "m": 16, "n_features": 16},
                              sweep={"n_values": [2, 15]}),
         "sweep.n_values", 15, 14),
    ], ids=["kernels", "estimate-shots", "sweep", "characterize", "sweep-default-cap"])
    def test_qubit_count_past_the_cap_exits_two_before_any_embedding(
            self, tmp_path, capsys, monkeypatch, command, payload, key, largest, cap):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was embedded before the qubit count was refused")

        monkeypatch.setattr("qkshots.kernels.embed_batch", refuse)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "configuration", "message": f"{key}: {largest} exceeds qubit_cap = {cap}",
        }
        assert list(tmp_path.iterdir()) == [tmp_path / "config.yaml"]

    def test_resources_are_not_capped(self, tmp_path):
        # resources simulates nothing, so qubit_cap does not bound its sizes
        cfg = write_config(tmp_path, {**resources_config(n_values=[8, 16, 48]), "qubit_cap": 14})
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        assert [row["n"] for row in report["scenarios"]] == [8, 16, 48]


def resources_config(**resources):
    return {
        "kernel": {"family": "fidelity"},
        "feature_map": {"repetitions": 1, "entanglement": "linear"},
        "resources": {"m": 10, "shots_per_estimate": 100, "n_values": [3, 5], **resources},
    }


class TestOptionalSections:
    @pytest.mark.parametrize(
        "command, payload, section",
        [
            ("estimate-shots", base_config(budget=5), "budget"),
            ("sweep", base_config(budget=[1], sweep={"n_values": [2, 3]}), "budget"),
            ("kernels", base_config(sampling=[1]), "sampling"),
            ("resources", resources_config(hardware=[1, 2]), "resources.hardware"),
            ("resources", resources_config(classical=3), "resources.classical"),
        ],
    )
    def test_malformed_section_exits_two(self, tmp_path, capsys, command, payload, section):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": f"config section {section!r} must be a mapping",
        }

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("resources", resources_config(m=1), "need at least 2 points, got 1"),
            ("kernels", base_config(sampling={"n_shots": 0}), "n_shots must be >= 1, got 0"),
            ("resources", resources_config(shots_per_estimate=0),
             "n_shots must be >= 1, got 0"),
        ],
    )
    def test_invalid_counts_exit_two(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": message,
        }

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("kernels", base_config(feature_map={"n_qubits": 7})),
            ("estimate-shots", base_config(feature_map={"n_qubits": 7})),
            ("characterize", base_config(characterize={"n_values": [2, 7]})),
            ("characterize", base_config(characterize={"n_values": [2, 3, 7]})),
            ("sweep", base_config(sweep={"n_values": [2, 3, 7]})),
            # reported before the qubit cap
            ("kernels", base_config(qubit_cap=3, feature_map={"n_qubits": 7})),
            ("estimate-shots", base_config(qubit_cap=3, feature_map={"n_qubits": 7})),
        ],
    )
    def test_more_qubits_than_features_exits_two_before_any_embedding(
            self, tmp_path, capsys, monkeypatch, command, payload):
        def refuse(*args, **kwargs):
            raise AssertionError("a point was embedded before the size was refused")

        monkeypatch.setattr("qkshots.kernels.embed_batch", refuse)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": "n must be in [1, 6], got 7",
        }

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("kernels", base_config(feature_map={"n_qubits": "three"}),
             "feature_map.n_qubits: invalid literal for int() with base 10: 'three'"),
            ("kernels", base_config(feature_map={"n_qubits": 3, "repetitions": "two"}),
             "feature_map.repetitions: invalid literal for int() with base 10: 'two'"),
            ("kernels", base_config(kernel={"family": "projected", "gamma": "wide"}),
             "kernel.gamma: could not convert string to float: 'wide'"),
            ("estimate-shots", base_config(budget={"eps": "small"}),
             "budget.eps: could not convert string to float: 'small'"),
            ("kernels", base_config(qubit_cap="big"),
             "qubit_cap: invalid literal for int() with base 10: 'big'"),
            ("kernels", base_config(qubit_cap=0), "qubit_cap: expected an integer >= 1, got 0"),
            ("sweep", base_config(sweep={"n_values": [2, 3, 4, 5], "extrapolate_to": [9, "far"]}),
             "sweep.extrapolate_to: invalid literal for int() with base 10: 'far'"),
            ("resources", resources_config(corrected=True, error_budget="tiny"),
             "resources.error_budget: could not convert string to float: 'tiny'"),
            ("estimate-shots", base_config(budget={"eps": 0}), "eps must be > 0, got 0.0"),
            ("estimate-shots", base_config(budget={"p_ca": 1.5}),
             "p_ca must be in (0, 1), got 1.5"),
            ("kernels", base_config(dataset={"type": "twonorm", "m": 21}),
             "m must be even for balanced classes, got 21"),
            ("kernels", base_config(dataset={"type": "twonorm", "m": 16, "subset_size": 3}),
             "subset_size must be a positive even number, got 3"),
            ("sweep", base_config(sweep={"n_values": [2, 2, 3, 4]}),
             "sweep.n_values: qubit counts must be non-empty and strictly increasing, "
             "got [2, 2, 3, 4]"),
            ("characterize", base_config(characterize={"n_values": [2, 2, 3]}),
             "characterize.n_values: qubit counts must be non-empty and strictly increasing, "
             "got [2, 2, 3]"),
            ("kernels", base_config(dataset={"type": "random_angles", "m": 1, "n_features": 6}),
             "need at least 2 points, got 1"),
            ("kernels", base_config(dataset={"type": "random_angles", "m": 1, "n_features": 6},
                                    sampling={"n_shots": 8}),
             "need at least 2 points, got 1"),
            ("resources", resources_config(corrected="false"),
             "resources.corrected: expected true or false, got 'false'"),
            ("sweep", base_config(sweep={"n_values": [2, 3, 4, 5], "include_budgets": "false"}),
             "sweep.include_budgets: expected true or false, got 'false'"),
            ("kernels", base_config(dataset={"type": "twonorm", "m": 16, "preprocess": "no"}),
             "dataset.preprocess: expected true or false, got 'no'"),
            ("kernels", base_config(sampling={}), "sampling.n_shots is required"),
            ("resources", resources_config(hardware={"gate_time_s": -1}),
             "resources.hardware: gate_time_s must be positive"),
            # a projected sweep budgets no pairs; its dataset budget checks p_ca
            ("sweep", base_config(kernel={"family": "projected"}, budget={"p_ca": 1.5},
                                  sweep={"n_values": [2, 3]}),
             "p_ca must be in (0, 1), got 1.5"),
        ],
    )
    def test_configuration_problems_exit_two(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": message,
        }

    @pytest.mark.parametrize(
        "key", ["seed", "dataset.seed", "dataset.stratify_seed", "sampling.seed"])
    def test_negative_seeds_exit_two_naming_the_key(self, tmp_path, capsys, monkeypatch, key):
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was generated before the seed was refused")

        monkeypatch.setattr("qkshots.cli.generate_twonorm", refuse)
        payload = base_config(sampling={"n_shots": 8})
        section, _, name = key.rpartition(".")
        section_mapping(payload, section)[name] = -1
        cfg = write_config(tmp_path, payload)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": f"{key}: expected an integer >= 0, got -1",
        }

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed: expected an integer >= 0, got -1"),
        ("--threads", "0", "--threads: expected an integer >= 1, got 0"),
        ("--threads", "-4", "--threads: expected an integer >= 1, got -4"),
    ], ids=["seed-negative", "threads-zero", "threads-negative"])
    def test_bad_seed_and_thread_flags_exit_two_before_any_work(
            self, tmp_path, capsys, monkeypatch, flag, value, message):
        def refuse(*args, **kwargs):
            raise AssertionError(f"the dataset was generated before {flag} was refused")

        monkeypatch.setattr("qkshots.cli.generate_twonorm", refuse)
        cfg = write_config(tmp_path, base_config())
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path), flag, value]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": message,
        }

    @pytest.mark.parametrize("argv, named", [
        (["kernels", "--config", "{cfg}", "--seed", "abc"], "--seed"),
        (["kernels", "--config", "{cfg}", "--threads", "1.5"], "--threads"),
        (["kernels", "--seed", "3"], "--config"),
        (["kernels", "--config", "{cfg}", "--bogus"], "--bogus"),
        (["bogus", "--config", "{cfg}"], "bogus"),
        ([], "command"),
    ], ids=["seed-text", "threads-fraction", "no-config", "unknown-flag", "unknown-command",
            "no-command"])
    def test_command_line_errors_are_one_json_line(self, tmp_path, capsys, argv, named):
        cfg = write_config(tmp_path, base_config())
        assert main([arg.format(cfg=cfg) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "configuration" and named in payload["message"]

    @pytest.mark.parametrize("argv", [["--help"], ["kernels", "--help"], ["--version"]])
    def test_help_and_version_still_print_and_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and (qkshots.__version__ in out or "usage: qkshots" in out)

    @pytest.mark.parametrize(
        "command, payload, expensive",
        [
            ("sweep", base_config(sweep={"n_values": [2, 3, 2, 4]}),
             "qkshots.scaling.gram_matrix"),
            ("characterize", base_config(characterize={"n_values": [3, 2, 3]}),
             "qkshots.cli.embedding_diagnostics"),
            ("resources", resources_config(n_values=[8, 8, 16]), "qkshots.cli.quantum_cost"),
            ("sweep", base_config(sweep={"n_values": []}), "qkshots.scaling.gram_matrix"),
            ("characterize", base_config(characterize={"n_values": []}),
             "qkshots.cli.embedding_diagnostics"),
            ("resources", resources_config(n_values=[]), "qkshots.cli.quantum_cost"),
        ],
    )
    def test_empty_or_repeated_qubit_counts_exit_two_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, payload, expensive):
        # one rule for the three size lists, and the message names the key;
        # an empty list once ran characterize and resources on no sizes
        def refuse(*args, **kwargs):
            raise AssertionError(f"{expensive} ran before the sizes were refused")

        monkeypatch.setattr(expensive, refuse)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        counts = sorted(payload[command]["n_values"])
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": f"{command}.n_values: qubit counts must be non-empty and strictly "
                       f"increasing, got {counts}",
        }
        assert list(tmp_path.iterdir()) == [tmp_path / "config.yaml"]

    def test_empty_sizes_of_an_unread_section_exit_two(self, tmp_path, capsys):
        # the size rule is the key's cast, so kernels refuses it too
        cfg = write_config(tmp_path, base_config(sweep={"n_values": []}))
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": "sweep.n_values: qubit counts must be non-empty and strictly "
                       "increasing, got []",
        }
        assert list(tmp_path.iterdir()) == [tmp_path / "config.yaml"]

    @pytest.mark.parametrize("dataset, message", [
        ({"type": "twonorm", "m": 16, "n_features": 0}, "n_features must be >= 1, got 0"),
        ({"type": "twonorm", "m": 16, "n_features": -3}, "n_features must be >= 1, got -3"),
        ({"type": "twonorm", "m": 0}, "need at least 2 points, got 0"),
        ({"type": "twonorm", "m": -4}, "need at least 2 points, got -4"),
        ({"type": "random_angles", "m": -1, "n_features": 6}, "need at least 2 points, got -1"),
        ({"type": "random_angles", "m": 16, "n_features": -3},
         "n_features must be >= 1, got -3"),
    ], ids=["twonorm-no-features", "twonorm-negative-features", "twonorm-no-points",
            "twonorm-negative-points", "angles-negative-points", "angles-negative-features"])
    def test_non_positive_dataset_sizes_exit_two(self, tmp_path, capsys, recwarn, dataset,
                                                 message):
        # once NumPy warned, then refused the shape with exit 1
        cfg = write_config(tmp_path, base_config(dataset=dataset))
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            json.dumps({"error": "configuration", "message": message})]
        assert not recwarn.list

    def test_configured_classical_alpha_reaches_flops(self, tmp_path):
        cfg = write_config(tmp_path, resources_config(classical={"alpha": 1.5, "c0": 2.0}))
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        flops = [row["classical"]["flops"] for row in report["scenarios"]]
        assert flops == [2.0 * 2.0 ** (1.5 * n) * 45 for n in (3, 5)]

    @pytest.mark.parametrize("n_values", [[1, 2], [1, 2, 3, 4, 5]])
    def test_non_positive_series_is_skipped(self, tmp_path, monkeypatch, n_values):
        # the values are checked before the point count, so a short series
        # with a zero value reports the zero
        monkeypatch.setattr("qkshots.cli.embedding_diagnostics", lambda *a, **k: (0.0, 0.5))
        cfg = write_config(tmp_path, base_config(characterize={"n_values": n_values}))
        assert main(["characterize", "--config", cfg, "--out", str(tmp_path)]) == 0
        fits = json.loads((tmp_path / "characteristics_fits.json").read_text())["fits"]
        assert fits["expressibility"] == {
            "skipped": "series has non-positive or non-finite values"
        }
        if len(n_values) < 4:
            assert fits["relative_entropy"] == {"skipped": "fewer than 4 points"}
        else:
            assert fits["relative_entropy"]["valid"]

    def test_empty_classical_section_turns_on_baseline(self, tmp_path):
        cfg = write_config(tmp_path, resources_config(classical={}))
        assert main(["resources", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        assert all(row["classical"]["flops"] > 0 for row in report["scenarios"])
        assert set(report["crossover_n"]) == {"runtime", "energy"}


def _passes(cast, value) -> bool:
    """Whether ``cast`` returns ``value`` unchanged, in value and type."""
    try:
        result = cast(value)
    except (TypeError, ValueError):
        return False
    return result == value and type(result) is type(value)


def section_mapping(payload, section):
    """The mapping of the dotted ``section`` ("" for the top level) in
    ``payload``, added empty where it is absent."""
    for part in filter(None, section.split(".")):
        payload = payload.setdefault(part, {})
    return payload


class TestKeyTable:
    @pytest.mark.parametrize(
        "section, typo, closest",
        [
            ("", "sed", "seed"),
            ("", "notes", "sampling.n_shots"),
            ("dataset", "subset_sise", "dataset.subset_size"),
            ("feature_map", "repetitons", "feature_map.repetitions"),
            ("kernel", "gama", "kernel.gamma"),
            ("sampling", "n_shot", "sampling.n_shots"),
            ("budget", "esp", "budget.eps"),
            ("sweep", "extrapolate", "sweep.extrapolate_to"),
            ("characterize", "n_value", "characterize.n_values"),
            ("resources", "corected", "resources.corrected"),
            ("resources.hardware", "gate_time", "resources.hardware.gate_time_s"),
            ("resources.classical", "flops_per_sec", "resources.classical.flops_per_second"),
        ],
    )
    def test_misspelled_key_exits_two_before_any_work(
            self, tmp_path, capsys, monkeypatch, section, typo, closest):
        # every section is checked, whether or not the command reads it
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was generated before the key was refused")

        monkeypatch.setattr("qkshots.cli.generate_twonorm", refuse)
        payload = base_config()
        section_mapping(payload, section)[typo] = 0.01
        cfg = write_config(tmp_path, payload)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        key = f"{section}.{typo}" if section else typo
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": f"unknown config key {key!r}; the closest known key is {closest!r}",
        }

    # a command and a config that read every key of each section
    SECTION_RUNS = {
        "": ("kernels", base_config()),
        "dataset": ("kernels", base_config(
            dataset={"type": "twonorm", "m": 16, "n_features": 6, "subset_size": 8})),
        "feature_map": ("kernels", base_config()),
        "kernel": ("kernels", base_config()),
        "sampling": ("kernels", base_config(sampling={"n_shots": 64})),
        "budget": ("estimate-shots", base_config()),
        "sweep": ("sweep", base_config(sweep={"n_values": [2, 3, 4, 5]})),
        "resources": ("resources", resources_config(classical={})),
        "resources.hardware": ("resources", resources_config()),
        "resources.classical": ("resources", resources_config(classical={})),
    }

    @pytest.mark.parametrize("key", [
        key for key, (_, default) in _KEYS.items()
        if default is not _REQUIRED and default is not _PER_RUN
    ])
    def test_null_key_takes_its_default(self, tmp_path, monkeypatch, key):
        section, _, name = key.rpartition(".")
        command, payload = self.SECTION_RUNS[section]
        runs = []
        for variant in ("absent", "null"):
            config = copy.deepcopy(payload)
            mapping = section_mapping(config, section)
            mapping.pop(name, None)
            if variant == "null":
                mapping[name] = None
                assert _field(config, key) == _KEYS[key][1]
            work = tmp_path / variant
            work.mkdir()
            monkeypatch.chdir(work)  # without --out, out_dir (default ".") is used
            status = main([command, "--config", write_config(tmp_path, config, f"{variant}.yaml")])
            artifacts = {}
            for path in work.iterdir():
                if path.suffix == ".json":
                    artifacts[path.name] = json.loads(path.read_text())
                    del artifacts[path.name]["provenance"]
                else:
                    artifacts[path.name] = path.read_bytes()
            runs.append((status, artifacts))
        assert runs[0][0] == 0 and runs[0][1]
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("value", [5, ["results"]])
    def test_out_dir_the_cast_refuses_exits_two(self, tmp_path, capsys, monkeypatch, value):
        # out_dir is read only without --out
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, base_config(out_dir=value))
        assert main(["kernels", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": f"out_dir: expected a string, got {value!r}",
        }
        assert not (tmp_path / "gram.csv").exists()

    @pytest.mark.parametrize("payload, message", [
        # the written config sorts its keys, so resources.m is checked first
        ({"sweep": {"n_values": "abc"}, "resources": {"m": "x"}},
         "resources.m: invalid literal for int() with base 10: 'x'"),
        ({"sweep": {"n_values": "abc"}}, "sweep.n_values: expected a list of integers, got 'abc'"),
        ({"resources": {"m": float("inf")}},
         "resources.m: cannot convert float infinity to integer"),
        ({"sweep": {"n_values": [float("inf")]}},
         "sweep.n_values: cannot convert float infinity to integer"),
        ({"budget": {"eps": "tiny"}}, "budget.eps: could not convert string to float: 'tiny'"),
        ({"sweep": {"include_budgets": "false"}},
         "sweep.include_budgets: expected true or false, got 'false'"),
        ({"resources": {"hardware": {"gate_time_s": [1]}}},
         "resources.hardware.gate_time_s: float() argument must be a string or a "
         "real number, not 'list'"),
    ])
    def test_unread_values_go_through_their_casts_before_any_work(
            self, tmp_path, capsys, monkeypatch, payload, message):
        # kernels reads none of these sections, and still refuses their types
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was generated before the value was refused")

        monkeypatch.setattr("qkshots.cli.generate_twonorm", refuse)
        cfg = write_config(tmp_path, base_config(**payload))
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration", "message": message,
        }

    @pytest.mark.parametrize("key, value", [
        ("sweep.n_values", "2345"),
        ("sweep.n_values", 4),
        ("sweep.extrapolate_to", {20: 30}),
        ("characterize.n_values", "23"),
        ("resources.n_values", "8"),
    ])
    def test_size_lists_refuse_anything_but_a_list(self, tmp_path, capsys, key, value):
        # a string of digits was once iterated into one-digit sizes
        section, name = key.split(".")
        payload = base_config(sweep={"n_values": [2, 3]})
        section_mapping(payload, section)[name] = value
        cfg = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "configuration",
            "message": f"{key}: expected a list of integers, got {value!r}",
        }
        assert not (tmp_path / "series.csv").exists()

    FLOAT_KEYS = [
        "kernel.gamma", "sampling.p_error", "budget.eps", "budget.p_spread", "budget.p_ca",
        "budget.p_error", "resources.error_budget",
        *(f"resources.{section}.{f.name}"
          for section, cls in (("hardware", HardwareProfile), ("classical", ClassicalProfile))
          for f in fields(cls)),
    ]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=[".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_exit_two_naming_the_key_before_any_work(
            self, tmp_path, capsys, monkeypatch, key, value):
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was generated before the value was refused")

        monkeypatch.setattr("qkshots.cli.generate_twonorm", refuse)
        assert key in _KEYS
        payload = base_config(sampling={"n_shots": 8})
        section, _, name = key.rpartition(".")
        section_mapping(payload, section)[name] = value
        # written without write_config: NaN never equals itself, so the
        # loaders cannot be compared by value
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(payload))
        assert main(["kernels", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "configuration", "message": f"{key}: expected a finite number, got {value}",
        }

    # keys whose cast passes an integer as itself, and keys of integer lists
    INTEGER_KEYS = [key for key, (cast, _) in _KEYS.items() if _passes(cast, 3)]
    INTEGER_LIST_KEYS = [key for key, (cast, _) in _KEYS.items() if _passes(cast, [3])]

    def test_integer_keys_are_found(self):
        assert {"seed", "qubit_cap", "dataset.m", "feature_map.n_qubits",
                "resources.shots_per_estimate"} <= set(self.INTEGER_KEYS)
        assert len(self.INTEGER_KEYS) == 14
        assert len(self.INTEGER_LIST_KEYS) == 4

    @pytest.mark.parametrize("value", [2.5, True], ids=["2.5", "true"])
    @pytest.mark.parametrize("key", INTEGER_KEYS + INTEGER_LIST_KEYS)
    def test_inexact_integers_exit_two_naming_the_key_before_any_work(
            self, tmp_path, capsys, monkeypatch, key, value):
        # int() once truncated n_qubits: 2.9 to 2 qubits, and read true as 1
        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was generated before the value was refused")

        monkeypatch.setattr("qkshots.cli.generate_twonorm", refuse)
        payload = base_config(sampling={"n_shots": 8})
        section, _, name = key.rpartition(".")
        section_mapping(payload, section)[name] = [value] if key in self.INTEGER_LIST_KEYS else value
        cfg = write_config(tmp_path, payload)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "configuration", "message": f"{key}: expected an integer, got {value!r}",
        }

    def test_integral_floats_still_count(self, tmp_path):
        cfg = write_config(tmp_path, base_config(feature_map={"n_qubits": 3.0}))
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert read_kernel_csv(tmp_path / "gram.csv").config.n_qubits == 3

    def test_unread_range_problem_is_left_to_the_commands_that_read_it(self, tmp_path):
        cfg = write_config(tmp_path, base_config(budget={"eps": -1}))
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["estimate-shots", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_explicit_out_overrides_out_dir_even_when_dot(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, base_config(out_dir="results"))
        assert main(["kernels", "--config", cfg, "--out", "."]) == 0
        assert (tmp_path / "gram.csv").is_file()
        assert not (tmp_path / "results").exists()
        assert main(["kernels", "--config", cfg]) == 0
        assert (tmp_path / "results" / "gram.csv").is_file()

    def test_readme_config_reference_names_every_key_once(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config reference\n")[1].split("```yaml\n")[1].split("```")[0]
        _check_keys(load_yaml(block))

        def leaf_keys(node, prefix=""):
            # the composed node keeps a repeated key that loading would merge
            for key_node, value_node in node.value:
                key = prefix + key_node.value
                if isinstance(value_node, yaml.MappingNode):
                    yield from leaf_keys(value_node, key + ".")
                else:
                    yield key

        assert sorted(leaf_keys(yaml.compose(block))) == sorted(_KEYS)

    def test_bench_workload_configs_pass_the_key_check(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        workloads = pytest.importorskip("workloads")
        for name in workloads.WORKLOADS:
            (tmp_path / name).mkdir()
            workload, _ = workloads.build(name, tmp_path / name, seed=1)
            configs = [step.config_path for step in workload.steps if step.command]
            assert configs
            for path in configs:
                _check_keys(load_yaml(path.read_text(encoding="utf-8")))


@pytest.mark.skipif(len(LOADERS) < 2, reason="PyYAML built without libyaml")
def test_yaml_loaders_resolve_configs_alike():
    """Every config the CLI tests write goes through ``load_yaml``; these
    texts add the scalars YAML 1.1 resolves by pattern and a JSON config."""
    scalars = ("{a: 1e6, b: 1.0e+6, c: .inf, d: -.Inf, e: 0x1F, f: 0o17, g: 010, h: 1_000,"
               " i: yes, j: Off, k: ~, l: null, m: '1e3', n: 2001-12-14, o: 1:30, p: +12}\n")
    assert load_yaml(scalars)["a"] == "1e6"
    assert load_yaml(json.dumps(base_config(), indent=1)) == base_config()
    assert load_yaml(EXPONENT_LITERALS)["resources"]["classical"] == {
        "c0": "1e6", "flops_per_second": "1e12", "power_w": "1e4"}


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats roughly doubles the import time every CLI run pays
    code = "import sys, qkshots.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(qkshots.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "False"


TWONORM_20 = "dataset: {type: twonorm, m: 20}\nfeature_map: {n_qubits: 2}\n"
DOT = "out_dir: elsewhere\n" + TWONORM_20


@pytest.mark.parametrize("argv, config, code, named", [
    (["kernels"], "dataset: {type: twonorm, m: 21}\nfeature_map: {n_qubits: 2}\n"
     "kernel: {family: fidelity}\n", 2, "m must be even"),
    (["estimate-shots"], TWONORM_20 + "budget: {esp: 0.01}\n", 2, "budget.eps"),
    (["sweep"], TWONORM_20 + 'sweep: {n_values: "2345"}\n', 2, "sweep.n_values"),
    (["kernels"], DOT, 0, None),
    (["kernels", "--seed", "-1"], DOT, 2, "--seed"),
    (["kernels", "--threads", "0"], DOT, 2, "--threads"),
    (["estimate-shots"], TWONORM_20 + "budget: {eps: .nan}\n", 2, "budget.eps"),
    (["estimate-shots"], TWONORM_20 + "budget: {eps: 1.0e-300}\n", 2, "eps"),
    (["sweep"], "dataset: {type: twonorm, m: 20}\nsweep: {n_values: [2, 15]}\n", 2,
     "qubit_cap"),
    (["kernels"], "dataset: {type: twonorm, m: 20}\nfeature_map: {n_qubits: 2.5}\n", 2,
     "feature_map.n_qubits"),
    (["kernels", "--seed", "abc"], DOT, 2, "--seed"),
    (["bogus"], None, 2, "bogus"),
], ids=["odd-m", "misspelled-key", "sizes-string", "out-dot-wins", "negative-seed",
        "zero-threads", "nan-eps", "tiny-eps", "past-qubit-cap", "fractional-qubits",
        "seed-not-integer", "unknown-command"])
def test_console_errors_are_one_json_line(tmp_path, argv, config, code, named):
    """The module entry point exits 2 with one JSON line on stderr that names
    the key, flag or command at fault; an explicit --out . wins over the
    config's out_dir."""
    if config is not None:
        write_yaml(tmp_path / "config.yaml", config)
        argv = [argv[0], "--config", "config.yaml", "--out", ".", *argv[1:]]
    env = {**os.environ, "PYTHONPATH": str(Path(qkshots.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-m", "qkshots.cli", *argv], capture_output=True,
                            text=True, env=env, cwd=tmp_path)
    assert result.returncode == code, result.stderr
    if code == 0:
        assert result.stderr == ""
        assert (tmp_path / "gram.csv").is_file() and not (tmp_path / "elsewhere").exists()
        return
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "configuration"
    assert named in error["message"]


@pytest.mark.parametrize("command, config, code, artifact", [
    ("kernels", TWONORM_20 + "sampling: {n_shots: 100000000000000000000}\n", 2, None),
    ("sweep", "dataset: {type: twonorm, m: 20}\nfeature_map: {repetitions: 1}\n"
     "sweep: {n_values: [2, 3, 4, 5, 6], extrapolate_to: [5000]}\n", 0, "fits.json"),
    ("resources", "feature_map: {n_qubits: 2}\nresources: {m: 10, shots_per_estimate: 100, "
     "n_values: [8, 5000], classical: {c0: 1}}\n", 0, "resources.json"),
], ids=["shots-past-int64", "extrapolation-past-float", "classical-cost-past-float"])
def test_past_the_number_ranges_no_traceback(tmp_path, command, config, code, artifact):
    """Shot counts past int64 exit 2; extrapolations and classical costs
    past the float range are inf, written as null."""
    write_yaml(tmp_path / "config.yaml", config)
    env = {**os.environ, "PYTHONPATH": str(Path(qkshots.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "qkshots.cli", command, "--config", "config.yaml", "--out", "."],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) <= 1 and all(isinstance(json.loads(line), dict) for line in lines)
    if artifact == "fits.json":
        fits = json.loads((tmp_path / artifact).read_text())["fits"]
        assert None in [fit.get("extrapolations", {}).get("5000", 0.0) for fit in fits.values()]
    elif artifact:
        far = json.loads((tmp_path / artifact).read_text())["scenarios"][-1]["classical"]
        assert far == {"energy_j": None, "flops": None, "runtime_s": None}


class TestKernelRoundTrip:
    def test_csv_round_trip_preserves_values(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        main(["kernels", "--config", cfg, "--out", str(tmp_path)])
        kernel = read_kernel_csv(tmp_path / "gram.csv")
        again = tmp_path / "again"
        from qkshots.serialize import write_kernel_csv

        write_kernel_csv(again / "gram.csv", kernel)
        back = read_kernel_csv(again / "gram.csv")
        assert np.array_equal(back.values, kernel.values)
