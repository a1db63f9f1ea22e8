import argparse
import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from landauzb import cli, dynamics, oracle, packet
from landauzb.cli import (
    _COMMANDS,
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TOLERANCE,
    _build_everything,
    _flat_items,
    _section,
    build_parser,
    load_config,
    main,
    read_record,
    resolve_times,
    write_record,
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


SPECTRUM_ROWS = [{"n": 0, "kind": "intraband", "frequency": 0.5, "amplitude_x": -1e-3,
                  "amplitude_y": 2.0},
                 {"n": 3, "kind": "interband", "frequency": 2.25, "amplitude_x": 0.0,
                  "amplitude_y": -7.5e-17}]


@pytest.mark.parametrize("spectrum", [None, SPECTRUM_ROWS])
@pytest.mark.parametrize("columns", [
    {"t": np.linspace(0.0, 1.0, 5), "y": [math.nan, math.inf, -0.0, 1e-300, -3.0],
     "empty": [], "\u00e9\"q": [0.1]},
    {"t": []},
    {},
])
def test_json_record_text_is_json_dumps(tmp_path, columns, spectrum):
    # the columns member is written by hand; the text must stay that of json.dumps
    header = {"model": "2+1", "n_max": 3, "field": {"kappa": 0.25, "units": "natural"},
              "note": "line\nbreak", "tail": None}
    out = tmp_path / "record.json"
    write_record(str(out), header, columns, spectrum, fmt="json")
    doc = {"header": header,
           "columns": {k: [repr(float(v)) for v in col] for k, col in columns.items()}}
    if spectrum is not None:
        doc["spectrum"] = spectrum
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=1, sort_keys=True) + "\n"


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


TRAP_SECTION = {"eta": 0.06, "omega_tilde_hz": 68000.0, "omega_hz": 1000.0, "delta_angstrom": 96.0}


@pytest.mark.parametrize("command", ["trajectory", "sumrules", "oracle-check", "lowfield"])
@pytest.mark.parametrize("config, section, value", [
    ("ion_trap", "field", {"magnetic_length": 123.0}),
    ("relativistic_3p1", "trap", TRAP_SECTION),
    ("lowfield_zb_3p1", "trap", TRAP_SECTION),
])
def test_section_the_units_do_not_read_rejected(tmp_path, capsys, command, config, section, value):
    # trap units never read a field section; natural and physical units read
    # no trap section outside ion-map
    payload = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    payload[section] = value
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, "--output", str(tmp_path / "out.json"),
                 "--format", "json"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{section} section" in err and payload["units"] in err


def test_ion_map_reads_a_trap_section_under_natural_units(tmp_path):
    payload = json.loads((CONFIG_DIR / "relativistic_3p1.json").read_text())
    payload["trap"] = TRAP_SECTION
    out = tmp_path / "ion.json"
    assert main(["ion-map", "--config", write_config(tmp_path, payload),
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["laser_pairs_total"] > 0


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
    cfg["numerics"] = {"n_max": 512}
    path = write_config(tmp_path, cfg)
    assert main(["sumrules", "--config", path]) == EXIT_CAPACITY


def test_oracle_levels_beyond_the_kx_rule_are_a_capacity_error(tmp_path, capsys):
    # the series' cut plus the guard band asks the oracle for more levels
    # than the largest (512-node) k_x rule integrates exactly
    payload = json.loads((CONFIG_DIR / "ion_trap.json").read_text())
    payload["numerics"] = {"oracle_guard": 600}
    out = tmp_path / "check.json"
    code = main(["oracle-check", "--config", write_config(tmp_path, payload),
                 "--output", str(out)])
    assert code == EXIT_CAPACITY
    err = capsys.readouterr().err
    assert "levels exceed the 512-node k_x rule" in err
    assert not out.exists()


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
    assert 0.0 < doc["kz_residual"] <= 1e-6
    assert max(doc["norm_drift"], doc["energy_drift"]) < 1e-12


def test_oracle_check_near_equal_width(tmp_path):
    # d_y within 1e-6 of L: the closed form must hold there as at any width
    payload = json.loads((CONFIG_DIR / "ion_trap.json").read_text())
    payload["packet"]["d_y"] = 1.0000001
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", cfg, "--output", str(out)]) == EXIT_OK
    assert max(json.loads(out.read_text())["channels"].values()) < 1e-6


def small_3p1_config():
    # the mixed 3+1 packet of configs/mixing_3p1.json over a short window
    cfg = json.loads((CONFIG_DIR / "mixing_3p1.json").read_text())
    cfg["time"] = {"t_end": 4.0, "samples": 17}
    return cfg


def test_oracle_check_reports_run_diagnostics(tmp_path):
    cfg = write_config(tmp_path, small_3p1_config())
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", cfg, "--output", str(out),
                 "--format", "json"]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert 0.0 < doc["kz_residual"] <= 1e-6
    assert doc["norm_drift"] < 1e-12
    assert doc["energy_drift"] < 1e-12
    assert math.isclose(doc["guiding_shift"], 0.55, rel_tol=1e-9)   # k0x L^2


def test_oracle_check_coarse_axial_rule_is_a_tolerance_failure(tmp_path, capsys, monkeypatch):
    from landauzb import oracle

    evolve = oracle.evolve_expectations
    monkeypatch.setattr(oracle, "evolve_expectations",
                        lambda *args, **kwargs: evolve(*args, **kwargs, kz_order=8))
    cfg = write_config(tmp_path, small_3p1_config())
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", cfg, "--output", str(out)]) == EXIT_TOLERANCE
    assert json.loads(out.read_text())["kz_residual"] > 1e-6
    assert "k_z aliasing bound" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sumrules", "oracle-check", "lowfield", "ion-map"])
def test_csv_format_rejected_by_json_commands(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    config = str(CONFIG_DIR / "ion_trap.json")
    argv = [command, "--config", config, "--output", str(out)]
    assert main(argv + ["--format", "csv"]) == EXIT_CONFIG
    assert command in capsys.readouterr().err
    assert not out.exists()
    if command != "oracle-check":
        assert main(argv + ["--format", "json"]) == EXIT_OK
        json.loads(out.read_text())


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


@pytest.mark.parametrize("flag, value", [
    ("--model", "3+1"), ("--eta", "0.06"), ("--omega-tilde-hz", "68000"),
    ("--omega-hz", "1000"), ("--target-kappa", "1.0"), ("--delta-angstrom", "96"),
])
def test_ion_map_flags_beside_config_rejected(tmp_path, capsys, flag, value):
    out = tmp_path / "ion.json"
    code = main(["ion-map", "--config", str(CONFIG_DIR / "ion_trap.json"),
                 flag, value, "--output", str(out)])
    assert code == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--omega-hz", "1000", "--target-kappa", "1.0"],
    ["--omega-hz", "1000", "--delta-angstrom", "0"],
    ["--target-kappa", "1e-320"],       # a magnetic length whose L^4 overflows
    ["--target-kappa", "1e300"],        # and one whose L^4 underflows
])
def test_ion_map_conflicting_or_invalid_flags_rejected(tmp_path, extra):
    out = tmp_path / "ion.json"
    code = main(["ion-map", "--eta", "0.06", "--omega-tilde-hz", "68000", *extra,
                 "--output", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["lowfield", "sumrules", "trajectory"])
@pytest.mark.parametrize("field", [{"kappa": 1e-320}, {"magnetic_length": 1e78},
                                   {"magnetic_length": 1e-85}, {"kappa": 1e300}])
def test_field_beyond_float_range_is_a_config_error(tmp_path, capsys, command, field):
    # L = inf (0.5/kappa overflows), a finite L whose L^4 overflows, and two
    # whose L^4 underflows
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path, small_config(field=field))
    assert main([command, "--config", cfg, "--output", str(out)]) == EXIT_CONFIG
    assert "fourth power" in capsys.readouterr().err
    assert not out.exists()


BAD_VALUES = [
    ("numerics", "kx_order", 300),      # not a key: the k_x rule follows from the levels
    ("numerics", "kx_order", "256"),
    ("numerics", "kz_rtol", 0),
    ("numerics", "kz_rtol", -1e-9),
    ("numerics", "kz_rtol", 1e-310),    # 1/kz_rtol overflows to inf
    ("numerics", "tail_tol", -1),
    ("numerics", "sum_rule_tol", 0),
    ("numerics", "n_max", 30.5),
    ("numerics", "n_max", "40"),
    ("numerics", "n_max", -1),
    ("numerics", "oracle_guard", -1),
    ("numerics", "oracle_guard", 0),    # an oracle on the series' own cut scans no band
    ("time", "samples", "abc"),
    ("time", "samples", 10.7),
    ("time", "t_start", 5),
    ("trap", "eta", "x"),
    ("output", "include_velocities", "no"),
    ("output", "parts", "bogus"),
    ("output", "bogus", True),          # an unknown key
]


# every command checks the whole config, including sections it never reads;
# the trajectory cases keep their original ids
@pytest.mark.parametrize("command, section, key, value", [
    pytest.param(command, *case, id="-".join(
        map(str, case if command == "trajectory" else (command, *case))))
    for command in ("trajectory", "spectrum", "sumrules", "lowfield", "oracle-check")
    for case in BAD_VALUES
])
def test_bad_config_value_names_its_key(tmp_path, capsys, command, section, key, value):
    payload = json.loads((CONFIG_DIR / "ion_trap.json").read_text())
    payload.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "t.json"
    assert main([command, "--config", cfg, "--output", str(out),
                 "--format", "json"]) == EXIT_CONFIG
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    pytest.param(command, key, value, id=f"{command}-{name}")
    for command in ("trajectory", "sumrules")
    for key, value, name in (("t_end", 10**401, "t_end-1e401"), ("t_end", -10**401, "t_end--1e401"),
                             ("samples", 10**30, "samples-1e30"))
] + [pytest.param("sumrules", "samples", cli.MAX_SAMPLES + 1, id="sumrules-samples-above-max")])
def test_integer_beyond_its_range_is_a_config_error(tmp_path, capsys, command, key, value):
    # an integer past the float range raised OverflowError in math.isfinite, and
    # 10**30 samples a ValueError in np.linspace: exit 1 with a traceback.  One
    # sample above the bound is checked on sumrules, which reads no time grid
    payload = json.loads((CONFIG_DIR / "ion_trap.json").read_text())
    payload["time"][key] = value
    out = tmp_path / "out.json"
    assert main([command, "--config", write_config(tmp_path, payload), "--output", str(out),
                 "--format", "json"]) == EXIT_CONFIG
    assert f"time.{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_integer_of_too_many_digits_is_a_config_error(tmp_path, capsys):
    # json.load raised ValueError past Python's 4300-digit integer limit
    path = tmp_path / "run.json"
    path.write_text(json.dumps(small_config()).replace('"t_end": 10.0', '"t_end": ' + "9" * 5000))
    assert main(["trajectory", "--config", str(path)]) == EXIT_CONFIG
    assert "config is not valid JSON" in capsys.readouterr().err


def test_kz_rtol_default_is_the_library_default(tmp_path):
    cfg = load_config(write_config(tmp_path, small_config()))
    assert _section(cfg, "numerics")["kz_rtol"] == dynamics.DEFAULT_KZ_RTOL


def test_spectrum_in_a_3p1_trajectory_rejected(tmp_path, capsys):
    # the line table is 2+1 only; a 3+1 run used to drop the request silently
    payload = small_3p1_config()
    payload["output"] = {"include_spectrum": True}
    out = tmp_path / "t.csv"
    assert main(["trajectory", "--config", write_config(tmp_path, payload),
                 "--output", str(out)]) == EXIT_CONFIG
    assert "output.include_spectrum" in capsys.readouterr().err
    assert not out.exists()


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


def test_import_leaves_scipy_out():
    # numpy is the only runtime dependency
    code = ("import sys, landauzb, landauzb.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_entry_point_subprocess(tmp_path):
    cfg = write_config(tmp_path, small_config(time={"t_end": 2.0, "samples": 9}))
    result = subprocess.run(
        [sys.executable, "-m", "landauzb.cli", "trajectory", "--config", cfg,
         "--output", "-"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("#")


def test_main_reuses_one_parser_across_commands(tmp_path):
    # the cached parser carries nothing from one call to the next: two
    # subcommands in one process write the bytes of two separate runs, and
    # a bad flag between them is still a usage error (exit code 2)
    cfg = write_config(tmp_path, small_config(time={"t_end": 2.0, "samples": 9}))
    commands = [["trajectory", "--config", cfg, "--format", "json"],
                ["sumrules", "--config", cfg]]
    for m, argv in enumerate(commands):
        assert main(argv + ["--output", str(tmp_path / f"inproc{m}")]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--no-such-flag"])
        assert exc.value.code == EXIT_CONFIG
    for m, argv in enumerate(commands):
        result = subprocess.run(
            [sys.executable, "-m", "landauzb.cli", *argv, "--output", str(tmp_path / f"spawn{m}")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / f"inproc{m}").read_bytes() == (tmp_path / f"spawn{m}").read_bytes()


def test_trajectory_3p1_columns_are_the_library_series(tmp_path):
    cfg_path = str(CONFIG_DIR / "relativistic_3p1.json")
    out = tmp_path / "traj.json"
    assert main(["trajectory", "--config", cfg_path, "--output", str(out),
                 "--format", "json"]) == EXIT_OK
    _, cols, _ = read_record(str(out))
    cfg = load_config(cfg_path)
    field, _, pkt, num, coeffs = _build_everything(cfg)
    traj = dynamics.trajectory_3p1(pkt, coeffs, field, resolve_times(cfg),
                                   kz_rtol=num["kz_rtol"])
    expected = {"t": traj.times, "x": traj.x, "y": traj.y, "vx": traj.vx, "vy": traj.vy}
    assert set(cols) == set(expected)
    for name, column in expected.items():
        assert np.array_equal(cols[name], column)


def test_trajectory_3p1_unmet_kz_rtol_is_a_tolerance_failure(tmp_path, capsys):
    payload = json.loads((CONFIG_DIR / "lowfield_zb_3p1.json").read_text())
    payload["numerics"] = {"kz_rtol": 7e-16}
    out = tmp_path / "t.csv"
    assert main(["trajectory", "--config", write_config(tmp_path, payload),
                 "--output", str(out)]) == EXIT_TOLERANCE
    assert "axial quadrature" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_csv_reads_back_as_the_json_table(tmp_path):
    cfg = write_config(tmp_path, small_config())
    a, b = tmp_path / "spec.csv", tmp_path / "spec.json"
    assert main(["spectrum", "--config", cfg, "--output", str(a), "--format", "csv"]) == EXIT_OK
    assert main(["spectrum", "--config", cfg, "--output", str(b), "--format", "json"]) == EXIT_OK
    csv_header, _, csv_spectrum = read_record(str(a))
    json_header, _, json_spectrum = read_record(str(b))
    assert csv_spectrum == json_spectrum and len(csv_spectrum) == json_header["lines"]
    assert csv_header == dict(_flat_items("", json_header))


def test_sumrules_residual_above_tolerance_still_writes_its_report(tmp_path, capsys):
    payload = json.loads((CONFIG_DIR / "ion_trap.json").read_text())
    payload["numerics"] = {"sum_rule_tol": 1e-16}
    out = tmp_path / "rules.json"
    assert main(["sumrules", "--config", write_config(tmp_path, payload),
                 "--output", str(out)]) == EXIT_TOLERANCE
    doc = json.loads(out.read_text())
    assert max(doc["norm_residual"], doc["momentum_residual"]) > doc["tolerance"] == 1e-16
    assert "sum-rule residual" in capsys.readouterr().err


@pytest.mark.parametrize("guard", [1, 5])
def test_oracle_guard_sets_the_leak_band(tmp_path, guard):
    # the oracle adds oracle_guard levels above n_max and scans only those
    # for leaked mass
    payload = json.loads((CONFIG_DIR / "relativistic_3p1.json").read_text())
    payload["time"] = {"t_end": 4.0, "samples": 9}
    payload["numerics"] = {"oracle_guard": guard}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", cfg, "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert max(doc["channels"].values()) < 1e-6
    assert doc["n_levels"] == _build_everything(load_config(cfg))[-1].n_max + guard


def test_oracle_check_deviation_is_a_tolerance_failure(tmp_path, capsys, monkeypatch):
    # a series that misses the oracle by 1e-5 of the position scale
    real_trajectory = cli._trajectory

    def shifted_trajectory(*args):
        traj = real_trajectory(*args)
        return dataclasses.replace(traj, x=traj.x + 1e-5 * np.max(np.abs(traj.x)))

    monkeypatch.setattr(cli, "_trajectory", shifted_trajectory)
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", str(CONFIG_DIR / "ion_trap.json"),
                 "--output", str(out)]) == EXIT_TOLERANCE
    doc = json.loads(out.read_text())
    assert 1e-6 < doc["channels"]["x"] < 1e-4
    assert "oracle deviation (x)" in capsys.readouterr().err


def test_series_truncation_is_an_oracle_leak(tmp_path, capsys):
    # a series cut at 20 levels leaves 4.9e-7 of its mass above the cut; with
    # one guard level the oracle's leak scan sees it there and refuses the run,
    # before the truncation can show only as a channel deviation
    payload = json.loads((CONFIG_DIR / "ion_trap.json").read_text())
    payload["numerics"] = {"n_max": 20, "tail_tol": 0.5, "oracle_guard": 1}
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", write_config(tmp_path, payload),
                 "--output", str(out)]) == EXIT_TOLERANCE
    assert "within 1 levels of the truncation edge" in capsys.readouterr().err
    assert not out.exists()


def test_command_table_drives_the_parser(tmp_path):
    # every subcommand is declared once, in _COMMANDS, and runs on its default format
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)
    config = str(CONFIG_DIR / "ion_trap.json")
    for name, (_, _, formats) in _COMMANDS.items():
        assert parser.parse_args([name, "--config", config]).format == formats[0]
        out = tmp_path / f"{name}.out"
        assert main([name, "--config", config, "--output", str(out)]) == EXIT_OK
        assert out.stat().st_size > 0


def test_sumrules_document_is_the_library_report(tmp_path):
    cfg_path = str(CONFIG_DIR / "relativistic_3p1.json")
    out = tmp_path / "rules.json"
    assert main(["sumrules", "--config", cfg_path, "--output", str(out)]) == EXIT_OK
    field, _, pkt, num, coeffs = _build_everything(load_config(cfg_path))
    expected = {**vars(packet.sum_rules(coeffs, pkt, field)),
                "n_max": coeffs.n_max, "tolerance": num["sum_rule_tol"]}
    assert json.loads(out.read_text()) == expected


@pytest.mark.parametrize("config, si", [("cyclotron_lowfield_2p1", False),
                                        ("lowfield_zb_3p1", True), ("ion_trap", True)])
def test_lowfield_document_is_the_library_summary(tmp_path, config, si):
    cfg_path = str(CONFIG_DIR / f"{config}.json")
    out = tmp_path / "low.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # ion_trap lies far above the weak-field range
        assert main(["lowfield", "--config", cfg_path, "--output", str(out)]) == EXIT_OK
        field, units, pkt, _, _ = _build_everything(load_config(cfg_path))
        summary = vars(dynamics.lowfield_summary(pkt, field))
    doc = json.loads(out.read_text())
    si_keys = {"cyclotron_radius_m", "zb_amplitude_m", "zb_carrier_rad_s", "omega_cyclotron_rad_s"}
    assert (units is not None) == si
    assert set(doc) == set(summary) - {"axial_width"} | (si_keys if si else set())
    assert all(doc[key] == value for key, value in summary.items() if key != "axial_width")


def test_lowfield_builds_no_level_table(tmp_path, monkeypatch):
    calls, built = [], packet.coefficient_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return built(*args, **kwargs)

    monkeypatch.setattr(packet, "coefficient_matrix", counting)
    cfg_path = str(CONFIG_DIR / "lowfield_zb_3p1.json")
    assert main(["lowfield", "--config", cfg_path, "--output", str(tmp_path / "low.json")]) == EXIT_OK
    assert calls == []
    assert main(["sumrules", "--config", cfg_path, "--output", str(tmp_path / "rules.json")]) == EXIT_OK
    assert len(calls) == 1


def nan_expectations(kz_residual):
    def evolve(pkt, field, times, **kwargs):
        nan = np.full(times.size, math.nan)
        return oracle.EvolvedExpectations(
            times=times, x=nan, y=nan, vx=nan, vy=nan, y_operator_initial=0.0,
            guiding_shift=0.0, norm_drift=0.0, energy_drift=0.0, kz_residual=kz_residual)
    return evolve


@pytest.mark.parametrize("kz_residual, message", [(math.nan, "oracle k_z aliasing bound nan"),
                                                  (0.0, "oracle deviation (x) nan")])
def test_oracle_check_nan_fails_its_gates(tmp_path, capsys, monkeypatch, kz_residual, message):
    # `value > tol` passed a NaN: an all-NaN oracle exited 0
    monkeypatch.setattr(oracle, "evolve_expectations", nan_expectations(kz_residual))
    out = tmp_path / "oracle.json"
    assert main(["oracle-check", "--config", write_config(tmp_path, small_config()),
                 "--output", str(out)]) == EXIT_TOLERANCE
    assert message in capsys.readouterr().err
    assert all(math.isnan(dev) for dev in json.loads(out.read_text())["channels"].values())


def test_sumrules_nan_residual_fails_its_gate(tmp_path, capsys, monkeypatch):
    # max(nan, x) is nan but max(x, nan) is x: each residual is its own gate
    rules = packet.sum_rules
    monkeypatch.setattr(packet, "sum_rules", lambda *args: dataclasses.replace(
        rules(*args), norm_residual=math.nan))
    assert main(["sumrules", "--config", write_config(tmp_path, small_config()),
                 "--output", str(tmp_path / "rules.json")]) == EXIT_TOLERANCE
    assert "sum-rule residual (norm) nan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trajectory", "oracle-check"])
@pytest.mark.parametrize("t_end", [1e308, 8e307])
def test_phase_overflow_is_a_config_error(tmp_path, capsys, command, t_end):
    # (w + 2) t beyond the float range wrote NaN rows and exited 0
    cfg = write_config(tmp_path, small_config(time={"t_end": t_end, "samples": 3}))
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, "--output", str(out), "--format", "json"]) == EXIT_CONFIG
    assert "float range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "oracle-check"])
@pytest.mark.parametrize("t_end", [1e200, 1e300])
def test_phases_with_no_correct_digit_are_a_config_error(tmp_path, capsys, command, t_end):
    # finite phases rounding by eps (w + 2) t >= 1e185 rad: trajectory wrote rows
    # of no correct digit and exited 0, oracle-check exited 3
    cfg = write_config(tmp_path, small_config(time={"t_end": t_end, "samples": 3}))
    out = tmp_path / "out.json"
    assert main([command, "--config", cfg, "--output", str(out), "--format", "json"]) == EXIT_CONFIG
    assert "more than a radian" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajectory", "spectrum", "sumrules", "oracle-check",
                                     "lowfield"])
def test_width_beyond_float_range_is_a_config_error(tmp_path, capsys, command):
    # d_x^2 overflowed: an OverflowError traceback on every command
    cfg = small_config()
    cfg["packet"] = dict(cfg["packet"], d_x=1e160)
    assert main([command, "--config", write_config(tmp_path, cfg), "--format", "json",
                 "--output", str(tmp_path / "out.json")]) == EXIT_CONFIG
    assert "d_x = 1e+160" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trajectory", "oracle-check", "sumrules"])
def test_axial_momentum_beyond_float_range_is_a_config_error(tmp_path, capsys, command):
    # k0z^2 overflowed in the line energies: a RuntimeWarning, or inf and NaN rows
    cfg = small_config(model="3+1")
    cfg["packet"] = dict(cfg["packet"], d_z=1.0, k0z=1e155, relax_momentum_bound=True)
    out = tmp_path / "out.json"
    assert main([command, "--config", write_config(tmp_path, cfg), "--format", "json",
                 "--output", str(out)]) == EXIT_CONFIG
    assert "k0z = 1e+155" in capsys.readouterr().err
    assert not out.exists()


def test_range_corner_is_a_tolerance_failure_not_a_crash(tmp_path, capsys):
    # L^4 and every width's square are normal floats here, but 2 L d_x d_y is
    # not: a math domain error before the prefactor became a sum of logs
    cfg = small_config(field={"magnetic_length": 1.6e-77})
    cfg["packet"] = dict(cfg["packet"], d_x=1.6e-154, d_y=1.6e-154, k0x=0.0)
    assert main(["sumrules", "--config", write_config(tmp_path, cfg),
                 "--output", str(tmp_path / "rules.json")]) == EXIT_TOLERANCE
    assert "tail mass" in capsys.readouterr().err
