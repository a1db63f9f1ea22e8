import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landauzb.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    _flat_items,
    main,
    read_record,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def small_config(**overrides):
    cfg = {
        "model": "2+1",
        "units": "natural",
        "field": {"magnetic_length": 1.0},
        "packet": {"d_x": 1.5, "d_y": 1.2, "k0x": 0.5, "a1": 0.0, "a2": 1.0},
        "time": {"t_end": 10.0, "samples": 41},
        "output": {"include_velocities": True},
    }
    cfg.update(overrides)
    return cfg


def test_trajectory_starts_at_origin(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "traj.csv"
    assert main(["trajectory", "--config", cfg, "--output", str(out)]) == EXIT_OK
    header, cols, _ = read_record(str(out))
    assert cols["x"][0] == 0.0
    assert cols["y"][0] == 0.0
    assert header["model"] == "2+1"


def test_trajectory_json_round_trip(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "traj.json"
    assert main(["trajectory", "--config", cfg, "--output", str(out),
                 "--format", "json"]) == EXIT_OK
    header, cols, _ = read_record(str(out))
    assert header["model"] == "2+1"
    assert {"t", "x", "y", "vx", "vy"} <= set(cols)
    assert cols["t"].size == 41


def test_trajectory_deterministic(tmp_path):
    cfg = write_config(tmp_path, small_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["trajectory", "--config", cfg, "--output", str(a)])
    main(["trajectory", "--config", cfg, "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_csv_and_json_agree(tmp_path):
    cfg = write_config(tmp_path, small_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.json"
    main(["trajectory", "--config", cfg, "--output", str(a)])
    main(["trajectory", "--config", cfg, "--output", str(b), "--format", "json"])
    _, cols_a, _ = read_record(str(a))
    _, cols_b, _ = read_record(str(b))
    for key in cols_a:
        assert np.array_equal(cols_a[key], cols_b[key])


def test_csv_and_json_headers_read_back_alike(tmp_path):
    cfg = write_config(tmp_path, json.loads((CONFIG_DIR / "trap_kappa_16p65.json").read_text()))
    a, b = tmp_path / "a.csv", tmp_path / "b.json"
    assert main(["trajectory", "--config", cfg, "--output", str(a)]) == EXIT_OK
    assert main(["trajectory", "--config", cfg, "--output", str(b), "--format", "json"]) == EXIT_OK
    csv_header, _, _ = read_record(str(a))
    json_header, _, _ = read_record(str(b))
    flat = dict(_flat_items("", json_header))
    assert csv_header == flat
    assert all(type(csv_header[k]) is type(v) for k, v in flat.items())
    assert csv_header["n_max"] == 37 and csv_header["model"] == "2+1"


def test_unknown_parts_rejected(tmp_path, capsys):
    payload = json.loads((CONFIG_DIR / "trap_kappa_16p65.json").read_text())
    payload["output"] = {"parts": "intra"}
    cfg = write_config(tmp_path, payload)
    assert main(["trajectory", "--config", cfg, "--output", str(tmp_path / "t.csv")]) == EXIT_CONFIG
    assert "parts" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_malformed_packet_names_invariant(tmp_path, capsys):
    bad = small_config()
    bad["packet"] = dict(bad["packet"], a1=0.4, a2=0.5)
    cfg = write_config(tmp_path, bad)
    assert main(["trajectory", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "|a1|^2+|a2|^2" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    bad = small_config()
    bad["packet"] = dict(bad["packet"], typo_key=1.0)
    cfg = write_config(tmp_path, bad)
    assert main(["trajectory", "--config", cfg]) == EXIT_CONFIG
    assert "typo_key" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["trajectory", "--config", "/nonexistent.json"]) == EXIT_CONFIG


def test_sumrules_bundled_configs(tmp_path, capsys):
    for name in ("relativistic_3p1.json", "trap_kappa_16p65.json",
                 "cyclotron_lowfield_2p1.json"):
        code = main(["sumrules", "--config", str(CONFIG_DIR / name),
                     "--output", str(tmp_path / "rules.json")])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "rules.json").read_text())
        assert doc["norm_residual"] < 1e-10
        assert doc["momentum_residual"] < 1e-10


def test_sumrules_zero_momentum(tmp_path):
    cfg = small_config()
    cfg["packet"] = dict(cfg["packet"], k0x=0.0)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "rules.json"
    assert main(["sumrules", "--config", path, "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert abs(doc["momentum_sum"]) < 1e-12


def test_sumrules_truncation_failure(tmp_path, capsys):
    cfg = small_config()
    cfg["numerics"] = {"n_max": 5}
    path = write_config(tmp_path, cfg)
    code = main(["sumrules", "--config", path])
    assert code == EXIT_TOLERANCE
    assert "tail" in capsys.readouterr().err


def test_capacity_exit_code(tmp_path):
    cfg = small_config()
    cfg["numerics"] = {"n_max": 451}
    path = write_config(tmp_path, cfg)
    assert main(["sumrules", "--config", path]) == EXIT_CAPACITY


def test_spectrum_command(tmp_path):
    cfg = write_config(tmp_path, small_config())
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--config", cfg, "--output", str(out),
                 "--format", "json"]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["spectrum"]
    kinds = {line["kind"] for line in doc["spectrum"]}
    assert kinds == {"intraband", "interband"}


def test_oracle_check_cheap_config(tmp_path):
    cfg = write_config(tmp_path, small_config(time={"t_end": 8.0, "samples": 33}))
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", cfg, "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert max(doc["channels"].values()) < 1e-6


def test_oracle_check_mixing_channel(tmp_path):
    out = tmp_path / "oracle.json"
    code = main([
        "oracle-check", "--config", str(CONFIG_DIR / "mixing_3p1.json"),
        "--output", str(out),
    ])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["mixing_active"] is True
    assert max(doc["channels"].values()) < 1e-6


def test_ion_map_reference_settings(tmp_path):
    out = tmp_path / "ion.json"
    code = main(["ion-map", "--config", str(CONFIG_DIR / "ion_trap.json"),
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert math.isclose(doc["simulated"]["kappa"], 16.65, rel_tol=6e-4)
    assert doc["laser_pairs_total"] == 8


def test_ion_map_model_flag(tmp_path):
    out = tmp_path / "ion.json"
    code = main(["ion-map", "--model", "3+1", "--eta", "0.06",
                 "--omega-tilde-hz", "68000", "--omega-hz", "1000",
                 "--output", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["laser_pairs_total"] == 12


def test_ion_map_target_kappa(tmp_path):
    out = tmp_path / "ion.json"
    code = main(["ion-map", "--eta", "0.06", "--omega-tilde-hz", "68000",
                 "--target-kappa", "1.0", "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert math.isclose(doc["simulated"]["kappa"], 1.0, rel_tol=1e-12)
    assert math.isclose(
        doc["trap"]["omega_carrier_rad_s"], 0.06 * 2 * math.pi * 68000.0, rel_tol=1e-12
    )


def test_lowfield_command(tmp_path):
    out = tmp_path / "low.json"
    code = main(["lowfield", "--config", str(CONFIG_DIR / "lowfield_zb_3p1.json"),
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert math.isclose(doc["zb_amplitude_m"], 6.5e-18, rel_tol=0.01)


def test_trap_trajectory_persistent(tmp_path):
    # the strongly relativistic trap run keeps oscillating over the window
    out = tmp_path / "trap.csv"
    code = main(["trajectory", "--config", str(CONFIG_DIR / "trap_kappa_16p65.json"),
                 "--output", str(out)])
    assert code == EXIT_OK
    _, cols, spectrum = read_record(str(out))
    y = cols["y"]
    n = y.size
    early = np.max(np.abs(y[: n // 4] - np.mean(y)))
    late = np.max(np.abs(y[-n // 4 :] - np.mean(y)))
    assert late >= 0.5 * early
    kinds = {line["kind"] for line in spectrum}
    assert kinds == {"intraband", "interband"}


def test_entry_point_subprocess(tmp_path):
    cfg = write_config(tmp_path, small_config(time={"t_end": 2.0, "samples": 9}))
    result = subprocess.run(
        [sys.executable, "-m", "landauzb.cli", "trajectory", "--config", cfg,
         "--output", "-"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("#")
