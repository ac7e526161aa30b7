"""Scenario runners, config loading, CLI, and reproducibility."""

import json
import math
import subprocess
import sys

import pytest

from airfed import experiments
from airfed.cli import main as cli_main
from airfed.config import (
    ApbParams,
    CfoParams,
    ConfigError,
    E2eParams,
    ExperimentConfig,
    FrameTimingParams,
    PhyConfig,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from airfed.experiments import MetricTable, emit_report, run_scenario, write_csv, ScenarioResult


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"scenario": "apb", "bogus": 1})
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"scenario": "apb", "phy": {"n_fft": 256, "nope": 2}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "not-a-scenario"})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "apb", "trials": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "apb", "snr_db": []})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "apb", "phy": {"m_ft": 65}})


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(scenario="cfo", seed=5, snr_db=(0.0, 10.0))
    d = config_to_dict(cfg)
    cfg2 = config_from_dict(json.loads(json.dumps(d)))
    assert cfg2 == cfg


def test_load_config_from_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": "frame-timing", "seed": 9, "trials": 5}))
    cfg = load_config(str(path))
    assert cfg.scenario == "frame-timing" and cfg.seed == 9 and cfg.trials == 5
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_write_csv_header_only(tmp_path):
    table = MetricTable("empty", ("a", "b"))
    path = tmp_path / "empty.csv"
    write_csv(table, path)
    assert path.read_text() == "a,b\n"


def test_metric_table_schema_enforced():
    table = MetricTable("t", ("a", "b"))
    with pytest.raises(ValueError):
        table.add(1)


def test_emit_report_writes_everything(tmp_path):
    cfg = ExperimentConfig(scenario="apb", out_dir=str(tmp_path))
    table = MetricTable("apb", ("round", "nmse"))
    table.add(1, 0.5)
    res = ScenarioResult([table], [{"k": 1}], {"note": "x"})
    manifest = emit_report(res, cfg, tmp_path)
    assert (tmp_path / "apb.csv").exists()
    assert (tmp_path / "trace.jsonl").exists()
    assert (tmp_path / "manifest.json").exists()
    assert "apb.csv" in manifest["outputs"]
    loaded = json.loads((tmp_path / "manifest.json").read_text())
    assert loaded["config"]["scenario"] == "apb"


# ---------------------------------------------------------------------------
# scenarios (small, fast settings)
# ---------------------------------------------------------------------------

def small_cfg(scenario, tmp_path, **kw):
    base = dict(
        scenario=scenario,
        seed=2,
        trials=40,
        snr_db=(10.0,),
        out_dir=str(tmp_path),
        frame_timing=FrameTimingParams(m_ft_grid=(64,)),
        cfo=CfoParams(track_trials=20, track_updates=4),
        apb=ApbParams(rounds=4, payload_len=256),
        e2e=E2eParams(rounds=3, payload_len=256),
        train=TrainConfig(rounds=10, local_n=100, batch_size=50),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_frame_timing_scenario(tmp_path):
    cfg = small_cfg("frame-timing", tmp_path, snr_db=(float("inf"),))
    manifest = run_scenario(cfg)
    rows = (tmp_path / "frame-timing.csv").read_text().strip().split("\n")
    assert rows[0] == "m_ft,snr_db,trials,p_valid,p_correct_given_valid"
    # noise-free detection is perfect
    vals = rows[1].split(",")
    assert float(vals[3]) == 1.0 and float(vals[4]) == 1.0


def test_cfo_scenario(tmp_path):
    cfg = small_cfg("cfo", tmp_path, trials=5, snr_db=(0.0,))
    manifest = run_scenario(cfg)
    assert (tmp_path / "cfo.csv").exists() and (tmp_path / "cfo_tracking.csv").exists()
    assert manifest["summary"]["tracking_nmse_last"] < manifest["summary"]["tracking_nmse_p1"]


def test_cfo_builds_the_tone_once(tmp_path, monkeypatch):
    # the init tone draws no random numbers, so every trial at every SNR shares one
    calls = []
    real = experiments.gen_cfo_subframe
    monkeypatch.setattr(experiments, "gen_cfo_subframe", lambda *a: calls.append(a) or real(*a))
    run_scenario(small_cfg("cfo", tmp_path, trials=3, snr_db=(0.0, 10.0), phy=PhyConfig(m_cfo_init=20000)))
    assert len(calls) == 1


def test_apb_scenario(tmp_path):
    cfg = small_cfg("apb", tmp_path, snr_db=(20.0,))
    manifest = run_scenario(cfg)
    assert manifest["summary"]["frac_below_0p05"] == 1.0
    assert manifest["summary"]["frac_paired_worse_without"] == 1.0


def test_e2e_scenario(tmp_path):
    cfg = small_cfg("e2e", tmp_path, snr_db=(20.0,))
    manifest = run_scenario(cfg)
    assert manifest["summary"]["mean_nmse"] < 0.05
    header = (tmp_path / "e2e.csv").read_text().split("\n")[0]
    assert header.startswith("round,sensor,nmse_d,phi_hat,tau_hat_samples")


def test_constellation_scenario(tmp_path):
    cfg = small_cfg("constellation", tmp_path, snr_db=(30.0,))
    manifest = run_scenario(cfg)
    summary = (tmp_path / "constellation_summary.csv").read_text().strip().split("\n")
    ser = float(summary[1].split(",")[-1])
    assert ser == 0.0


def test_train_scenario_small(tmp_path):
    cfg = small_cfg("train", tmp_path, snr_db=(20.0,))
    manifest = run_scenario(cfg)
    s = manifest["summary"]
    assert s["rounds"] == 10
    assert 0.5 < s["final_loss_ratio"] < 2.0
    assert (tmp_path / "train_heatmap.csv").exists()
    assert (tmp_path / "train_dataset.csv").exists()
    model = json.loads((tmp_path / "model.json").read_text())
    assert model["layer_sizes"] == [2, 20, 20, 1]
    assert len(model["weights_ota"]) == 501


# ---------------------------------------------------------------------------
# determinism / manifest replay
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", ["frame-timing", "apb"])
def test_manifest_replay_byte_identical(tmp_path, scenario):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    cfg = small_cfg(scenario, a_dir, snr_db=(10.0,))
    run_scenario(cfg)
    replay_cfg = load_config(str(a_dir / "manifest.json"))
    run_scenario(replay_cfg, out_dir=b_dir)
    for name in ("trace.jsonl", f"{scenario}.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_smoke(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": "frame-timing", "seed": 1, "trials": 20,
        "snr_db": [10.0], "frame_timing": {"m_ft_grid": [64]},
        "out_dir": str(tmp_path / "out"),
    }))
    rc = cli_main(["frame-timing", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "out" / "frame-timing.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_overrides(tmp_path):
    rc = cli_main(["frame-timing", "--trials", "10", "--snr-db", "inf",
                   "--seed", "3", "--out", str(tmp_path / "o2")])
    assert rc == 0
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["config"]["trials"] == 10


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "apb", "wat": 1}))
    rc = cli_main(["apb", "--config", str(bad)])
    assert rc == 2


def test_cli_bad_snr_exit_code(tmp_path):
    rc = cli_main(["frame-timing", "--snr-db", "ten", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_setup_failure_exit_code(tmp_path, capsys):
    # at 0 dB sensor 0 misses a 20k-sample init preamble during set-up
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": "e2e", "seed": 0, "snr_db": [0.0], "phy": {"m_cfo_init": 20000},
        "e2e": {"rounds": 10, "payload_len": 512}, "out_dir": str(tmp_path / "out"),
    }))
    rc = cli_main(["e2e", "--config", str(cfg_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "protocol abort: session set-up failed: sensor 0: preamble not detected\n")


@pytest.mark.parametrize("fields, args, message", [
    ({"compensation": "no"}, [], "compensation must be true or false, got 'no'"),
    ({"seed": -1}, [], "seed must be >= 0, got -1"),
    ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
    ({"seed": 1.0}, [], "seed must be an integer, got 1.0"),
    ({"trials": 1.5}, [], "trials must be an integer, got 1.5"),
    ({"trials": True}, [], "trials must be an integer, got True"),
    ({"out_dir": 5}, [], "out_dir must be a non-empty string, got 5"),
    ({"snr_db": [True]}, [], "snr_db entries must be real numbers, finite or +inf, got True"),
    ({"snr_db": ["a"]}, [], "snr_db entries must be real numbers, finite or +inf, got 'a'"),
    ({}, ["--snr-db", "nan"], "snr_db entries must be real numbers, finite or +inf, got nan"),
    ({}, ["--snr-db=-inf"], "snr_db entries must be real numbers, finite or +inf, got -inf"),
])
def test_cli_rejects_bad_top_level_fields(tmp_path, capsys, fields, args, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "cfo", "out_dir": str(tmp_path / "out"), **fields}))
    rc = cli_main(["cfo", "--config", str(cfg_path), *args])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, phy, message", [
    ("e2e", {"pam_amp": 0}, "pam_amp must be finite and > 0, got 0"),
    ("e2e", {"dl_pilot_amp": 0}, "dl_pilot_amp must be finite and > 0, got 0"),
    ("e2e", {"ota_pilot_amp": 0}, "ota_pilot_amp must be finite and > 0, got 0"),
    ("e2e", {"pilot_amp": math.inf}, "pilot_amp must be finite and > 0, got inf"),
    ("e2e", {"eq_floor": math.nan}, "eq_floor must be finite and > 0, got nan"),
    ("e2e", {"clip_quantile": 0.0}, "clip_quantile must be in (0, 1], got 0.0"),
    ("e2e", {"gamma_th": -math.inf}, "gamma_th must be finite, got -inf"),
    ("apb", {"null_dc": True}, "null_dc must be false (every subcarrier carries data), got True"),
    ("cfo", {"edge_guards": 2}, "edge_guards must be 0 (every subcarrier carries data), got 2"),
])
def test_cli_rejects_bad_phy_fields(tmp_path, capsys, scenario, phy, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": scenario, "out_dir": str(tmp_path / "out"), "phy": phy}))
    rc = cli_main([scenario, "--config", str(cfg_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, section, fields, message", [
    ("e2e", "channel", {"cfo_bound_hz": math.inf}, "cfo_bound_hz must be finite and >= 0, got inf"),
    ("e2e", "channel", {"tap_decay": math.nan}, "tap_decay must be finite, got nan"),
    ("cfo", "cfo", {"track_period_s": 0}, "track_period_s must be finite and > 0, got 0"),
    ("cfo", "cfo", {"track_residual_hz": math.inf}, "track_residual_hz must be finite and > 0, got inf"),
    ("cfo", "cfo", {"track_updates": 0}, "track_updates must be an integer >= 1, got 0"),
    ("e2e", "e2e", {"round_period_s": math.nan}, "round_period_s must be finite and > 0, got nan"),
    ("e2e", "e2e", {"round_period_s": 0}, "round_period_s must be finite and > 0, got 0"),
    ("e2e", "e2e", {"turnaround_s": math.inf}, "turnaround_s must be finite and >= 0, got inf"),
    ("e2e", "e2e", {"rounds": 0}, "rounds must be an integer >= 1, got 0"),
    ("apb", "apb", {"round_period_s": -math.inf}, "round_period_s must be finite and > 0, got -inf"),
    ("apb", "apb", {"turnaround_s": -1e-4}, "turnaround_s must be finite and >= 0, got -0.0001"),
    ("apb", "apb", {"payload_len": 1.5}, "payload_len must be an integer >= 1, got 1.5"),
    ("e2e", "e2e", {"round_period_s": 1e-5},
     "e2e.round_period_s must be at least 0.000764583 s for 2 sensors "
     "(one downlink, one uplink and two turnarounds), got 1e-05"),
    ("train", "apb", {"round_period_s": 5e-4},
     "apb.round_period_s must be at least 0.000764583 s for 2 sensors "
     "(one downlink, one uplink and two turnarounds), got 0.0005"),
    ("train", "train", {"n_sensors": 0}, "n_sensors must be an integer >= 1, got 0"),
    ("constellation", "constellation", {"n_symbols": 0}, "n_symbols must be an integer >= 1, got 0"),
    ("frame-timing", "frame_timing", {"window_factor": 1}, "window_factor must be an integer >= 2, got 1"),
])
def test_cli_rejects_bad_section_fields(tmp_path, capsys, scenario, section, fields, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": scenario, "out_dir": str(tmp_path / "out"),
                                    "phy": {"m_cfo_init": 20000}, section: fields}))
    rc = cli_main([scenario, "--config", str(cfg_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_checks_the_train_period_before_the_offline_twin(tmp_path, capsys, monkeypatch):
    # 16 sensors do not fit the default 1 ms A+B round: exit 2 without training
    def offline_baseline(*args):
        raise AssertionError("the offline twin ran before the config check")

    monkeypatch.setattr(experiments, "offline_baseline", offline_baseline)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "train", "out_dir": str(tmp_path / "out"),
                                    "train": {"n_sensors": 16}}))
    rc = cli_main(["train", "--config", str(cfg_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: apb.round_period_s must be at least 0.00102708 s for 16 sensors "
        "(one downlink, one uplink and two turnarounds), got 0.001\n")
    assert not (tmp_path / "out").exists()


def test_cli_entrypoint_subprocess(tmp_path):
    rc = subprocess.run(
        [sys.executable, "-m", "airfed.cli", "frame-timing", "--trials", "5",
         "--snr-db", "inf", "--out", str(tmp_path / "sp")],
        capture_output=True, text=True,
    )
    assert rc.returncode == 0, rc.stderr
    assert "frame-timing" in rc.stdout
