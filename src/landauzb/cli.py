"""Command-line interface: config ingestion, runs, and serialization.

Commands
    trajectory    sampled positions (and optionally velocities, spectrum)
    spectrum      discrete line table of a 2+1 run
    sumrules      overlap-matrix sum-rule residuals
    oracle-check  analytic series vs brute-force evolution
    ion-map       trap settings -> simulated parameters and laser schedule
    lowfield      weak-field closed-form summary

Exit codes: 0 success, 2 config error, 3 tolerance failure, 4 capacity error.
One structured JSON config per run; trajectory and spectrum write CSV or
JSON records whose header carries every resolved parameter, the other
commands JSON only (--format csv there is a config error).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import math
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_CAPACITY = 4

_TWO_PI = 2.0 * math.pi
_SUM_RULE_TOL = 1e-10
_ORACLE_TOL = 1e-6
_REQUIRED = object()    # default of a config key that must be given


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _is_number(value) -> bool:
    """A finite JSON number; booleans and strings are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _number(section: dict, key: str, where: str, default=None, integer=False):
    """section[key] as a float (an int when `integer`), else `default`.

    A required key passes default=_REQUIRED.  A value that is not a finite
    number, or not an integer where one is asked for, is a config error that
    names the key.
    """
    if key not in section:
        return _require(section, key, where) if default is _REQUIRED else default
    value = section[key]
    if integer and not (isinstance(value, int) and not isinstance(value, bool)):
        raise ConfigError(f"{where}.{key} must be an integer, not {value!r}")
    if not _is_number(value):
        raise ConfigError(f"{where}.{key} must be a finite number, not {value!r}")
    return int(value) if integer else float(value)


def _flag(section: dict, key: str, where: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, not {value!r}")
    return value


def _as_complex(value, where: str) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if not all(_is_number(part) for part in parts):
        raise ConfigError(f"{where} must be a number or [re, im] pair")
    return complex(float(parts[0]), float(parts[1]))


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        cfg,
        {"model", "units", "field", "trap", "packet", "numerics", "time", "output"},
        "config root",
    )
    return cfg


def resolve_field(cfg: dict):
    """FieldConfig, UnitSystem and the simulated length scale, from a config."""
    from . import ionmap
    from .units import FieldConfig, UnitSystem

    units_kind = cfg.get("units", "natural")
    if units_kind not in ("natural", "physical", "trap"):
        raise ConfigError("units must be 'natural', 'physical' or 'trap'")
    unread = "field" if units_kind == "trap" else "trap"
    if unread in cfg:
        raise ConfigError(f"units '{units_kind}' leave the {unread} section unread; remove it")
    if units_kind == "trap":
        trap = resolve_trap(_require(cfg, "trap", "config"))
        units, field = ionmap.simulated_units(trap)
        return field, units, trap
    section = _require(cfg, "field", "config")
    _reject_unknown(section, {"magnetic_length", "b_tesla", "kappa"}, "field")
    if sum(k in section for k in ("magnetic_length", "b_tesla", "kappa")) != 1:
        raise ConfigError("field needs exactly one of magnetic_length, b_tesla, kappa")
    if "b_tesla" in section:
        if units_kind != "physical":
            raise ConfigError("b_tesla requires units = 'physical'")
        field = FieldConfig.from_tesla(_number(section, "b_tesla", "field"))
    elif "kappa" in section:
        field = FieldConfig.from_kappa(_number(section, "kappa", "field"))
    else:
        field = FieldConfig.from_magnetic_length(_number(section, "magnetic_length", "field"))
    units = UnitSystem.electron() if units_kind == "physical" else None
    return field, units, None


def resolve_trap(section: dict):
    from . import ionmap
    from .units import ATOMIC_MASS

    _reject_unknown(
        section,
        {"eta", "omega_tilde_hz", "omega_hz", "delta_angstrom", "ion_mass_amu", "nu_hz"},
        "trap",
    )
    delta = _number(section, "delta_angstrom", "trap")
    ion_mass = _number(section, "ion_mass_amu", "trap")
    nu = _number(section, "nu_hz", "trap")
    return ionmap.TrapParams(
        eta=_number(section, "eta", "trap", _REQUIRED),
        omega_tilde=_TWO_PI * _number(section, "omega_tilde_hz", "trap", _REQUIRED),
        omega_carrier=_TWO_PI * _number(section, "omega_hz", "trap", _REQUIRED),
        delta=None if delta is None else delta * 1e-10,
        ion_mass=None if ion_mass is None else ion_mass * ATOMIC_MASS,
        trap_freqs=None if nu is None else (_TWO_PI * nu,) * 3,
    )


def resolve_packet(cfg: dict, field):
    from .packet import GaussianPacket

    model = cfg.get("model", "2+1")
    if model not in ("2+1", "3+1"):
        raise ConfigError("model must be '2+1' or '3+1'")
    section = _require(cfg, "packet", "config")
    _reject_unknown(
        section,
        {"d_x", "d_y", "d_z", "k0x", "k0z", "a1", "a2", "unit", "relax_momentum_bound"},
        "packet",
    )
    unit = section.get("unit", "lambda_c")
    if unit == "lambda_c":
        scale = 1.0
    elif unit == "magnetic_length":
        scale = field.magnetic_length
    elif unit == "delta":
        scale = field.magnetic_length / math.sqrt(2.0)
    else:
        raise ConfigError("packet unit must be lambda_c, magnetic_length or delta")
    a1 = _as_complex(section.get("a1", 0.0), "packet.a1")
    a2 = _as_complex(section.get("a2", 1.0), "packet.a2")
    d_z = _number(section, "d_z", "packet")
    return GaussianPacket(
        d_x=_number(section, "d_x", "packet", _REQUIRED) * scale,
        d_y=_number(section, "d_y", "packet", _REQUIRED) * scale,
        d_z=None if d_z is None else d_z * scale,
        k0x=_number(section, "k0x", "packet", 0.0) / scale,
        k0z=_number(section, "k0z", "packet", 0.0) / scale,
        a1=a1,
        a2=a2,
        dimensionality=model,
        relax_momentum_bound=_flag(section, "relax_momentum_bound", "packet", False),
    )


def resolve_times(cfg: dict):
    import numpy as np

    section = _require(cfg, "time", "config")
    _reject_unknown(section, {"t_start", "t_end", "samples"}, "time")
    if _number(section, "t_start", "time", 0.0) != 0.0:
        raise ConfigError("time.t_start must be 0 (trajectories start at the origin)")
    t_end = _number(section, "t_end", "time", _REQUIRED)
    samples = _number(section, "samples", "time", _REQUIRED, integer=True)
    if t_end <= 0 or samples < 2:
        raise ConfigError("time needs t_end > 0 and samples >= 2")
    return np.linspace(0.0, t_end, samples)


def resolve_numerics(cfg: dict) -> dict:
    from .packet import DEFAULT_N_MAX

    section = cfg.get("numerics", {})
    _reject_unknown(
        section,
        {"n_max", "tail_tol", "kx_order", "kz_rtol", "oracle_guard", "sum_rule_tol"},
        "numerics",
    )
    num = {
        "n_max": _number(section, "n_max", "numerics", integer=True),
        "tail_tol": _number(section, "tail_tol", "numerics", 1e-10),
        "kx_order": _number(section, "kx_order", "numerics", integer=True),
        "kz_rtol": _number(section, "kz_rtol", "numerics", 1e-9),
        "oracle_guard": _number(section, "oracle_guard", "numerics", 20, integer=True),
        "sum_rule_tol": _number(section, "sum_rule_tol", "numerics", _SUM_RULE_TOL),
    }
    for key in ("n_max", "oracle_guard"):
        if num[key] is not None and num[key] < 0:
            raise ConfigError(f"numerics.{key} must be non-negative, not {num[key]}")
    # the k_x rule is exact for the levels built only above their count
    levels = (DEFAULT_N_MAX if num["n_max"] is None else num["n_max"]) + 1
    if num["kx_order"] is not None and num["kx_order"] < levels:
        raise ConfigError(f"numerics.kx_order = {num['kx_order']} is below exactness: "
                          f"the {levels} levels built need at least {levels} nodes")
    return num


def _build_everything(cfg: dict):
    from .packet import coefficient_matrix

    field, units, trap = resolve_field(cfg)
    pkt = resolve_packet(cfg, field)
    num = resolve_numerics(cfg)
    coeffs = coefficient_matrix(
        pkt, field, n_max=num["n_max"], tail_tol=num["tail_tol"], kx_order=num["kx_order"]
    )
    return field, units, trap, pkt, num, coeffs


def _header(cfg, field, units, pkt, coeffs, extra=None) -> dict:
    from . import __version__

    head = {
        "generator": f"landauzb {__version__}",
        "model": pkt.dimensionality,
        "units": cfg.get("units", "natural"),
        "length_unit": "lambda_c",
        "time_unit": "t_c",
        "velocity_unit": "c",
        "magnetic_length": field.magnetic_length,
        "omega": field.omega,
        "omega_cyclotron": field.omega_cyclotron,
        "kappa": field.kappa,
        "packet": {
            "d_x": pkt.d_x,
            "d_y": pkt.d_y,
            "d_z": pkt.d_z,
            "k0x": pkt.k0x,
            "k0z": pkt.k0z,
            "a1": [pkt.a1.real, pkt.a1.imag],
            "a2": [pkt.a2.real, pkt.a2.imag],
        },
        "n_max": coeffs.n_max,
        "tail_mass": coeffs.tail_mass,
        "kx_order": coeffs.kx_order,
    }
    if units is not None:
        head["compton_length_m"] = units.compton_length
        head["compton_time_s"] = units.compton_time
        head["magnetic_length_m"] = field.magnetic_length * units.compton_length
    if extra:
        head.update(extra)
    return head


def _flat_items(prefix: str, value):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flat_items(f"{prefix}{k}." if prefix else f"{k}.", v)
    else:
        yield prefix.rstrip("."), value


def _json_text(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _emit(path, text: str) -> None:
    """Write text to path, or to stdout when path is None or '-'."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_record(path, header, columns, spectrum=None, fmt="csv"):
    """Serialize a run; `columns` is an ordered {name: array} mapping."""
    if fmt == "json":
        doc = {
            "header": header,
            "columns": {k: [repr(float(x)) for x in v] for k, v in columns.items()},
        }
        if spectrum is not None:
            doc["spectrum"] = spectrum
        text = _json_text(doc)
    elif fmt == "csv":
        lines = [f"# {k} = {v!r}" for k, v in _flat_items("", header)]
        names = list(columns)
        lines.append(",".join(names))
        arrays = [columns[k] for k in names]
        for row in zip(*arrays):
            lines.append(",".join(repr(float(x)) for x in row))
        if spectrum is not None:
            lines.append("")
            lines.append("n,kind,frequency,amplitude_x,amplitude_y")
            for line in spectrum:
                lines.append(
                    f"{line['n']},{line['kind']},{float(line['frequency'])!r},"
                    f"{float(line['amplitude_x'])!r},{float(line['amplitude_y'])!r}"
                )
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError("format must be 'csv' or 'json'")
    _emit(path, text)


def read_record(path):
    """Parse a record written by write_record; returns (header, columns, spectrum)."""
    import numpy as np

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        cols = {k: np.array([float(x) for x in v]) for k, v in doc["columns"].items()}
        return doc["header"], cols, doc.get("spectrum")
    header = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, val = lines[i][1:].partition("=")
        header[key.strip()] = ast.literal_eval(val.strip())
        i += 1
    names = lines[i].split(",")
    i += 1
    rows = []
    while i < len(lines) and lines[i]:
        rows.append([float(x) for x in lines[i].split(",")])
        i += 1
    columns = {name: np.array([r[j] for r in rows]) for j, name in enumerate(names)}
    spectrum = None
    if i < len(lines) - 1:
        spectrum = []
        for line in lines[i + 2 :]:   # past the blank line and the column names
            if not line:
                continue
            vals = line.split(",")
            spectrum.append(
                {
                    "n": int(vals[0]),
                    "kind": vals[1],
                    "frequency": float(vals[2]),
                    "amplitude_x": float(vals[3]),
                    "amplitude_y": float(vals[4]),
                }
            )
    return header, columns, spectrum


def _spectrum_rows(pkt, coeffs, field) -> list[dict]:
    """The 2+1 line table as record rows (n, kind, frequency, amplitudes)."""
    from . import dynamics

    lines = dynamics.spectral_decomposition(pkt, coeffs, field)
    return [dataclasses.asdict(line) for line in lines]


def cmd_trajectory(args) -> int:
    from . import dynamics

    cfg = load_config(args.config)
    field, units, trap, pkt, num, coeffs = _build_everything(cfg)
    times = resolve_times(cfg)
    out_cfg = cfg.get("output", {})
    _reject_unknown(
        out_cfg, {"include_velocities", "include_spectrum", "parts"}, "output"
    )
    parts = out_cfg.get("parts", "all")
    if parts not in dynamics.PARTS:
        raise ConfigError(f"output.parts must be one of {dynamics.PARTS}, not {parts!r}")
    if pkt.dimensionality == "2+1":
        traj = dynamics.trajectory_2p1(pkt, coeffs, field, times, parts=parts)
    else:
        traj = dynamics.trajectory_3p1(
            pkt, coeffs, field, times, parts=parts, kz_rtol=num["kz_rtol"]
        )
    columns = {"t": traj.times, "x": traj.x, "y": traj.y}
    if _flag(out_cfg, "include_velocities", "output", True):
        columns["vx"] = traj.vx
        columns["vy"] = traj.vy
    spectrum = None
    if _flag(out_cfg, "include_spectrum", "output", False) and pkt.dimensionality == "2+1":
        spectrum = _spectrum_rows(pkt, coeffs, field)
    header = _header(
        cfg, field, units, pkt, coeffs,
        extra={
            "parts": traj.parts,
            "y_operator_initial": traj.y_operator_initial,
            "subtracted_constant": traj.subtracted_constant,
        },
    )
    write_record(args.output, header, columns, spectrum, fmt=args.format)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    field, units, trap, pkt, num, coeffs = _build_everything(cfg)
    if pkt.dimensionality != "2+1":
        raise ConfigError("spectrum is defined for the 2+1 model")
    spectrum = _spectrum_rows(pkt, coeffs, field)
    header = _header(cfg, field, units, pkt, coeffs, extra={"lines": len(spectrum)})
    if args.format == "csv":
        write_record(args.output, header, {"t": []}, spectrum, fmt="csv")
    else:
        write_record(args.output, header, {}, spectrum, fmt="json")
    return EXIT_OK


def cmd_sumrules(args) -> int:
    from .packet import sum_rules

    cfg = load_config(args.config)
    field, units, trap, pkt, num, coeffs = _build_everything(cfg)
    rep = sum_rules(coeffs, pkt, field)
    doc = {
        "n_max": coeffs.n_max,
        "tail_mass": rep.tail_mass,
        "norm_sum": rep.norm_sum,
        "norm_residual": rep.norm_residual,
        "momentum_sum": rep.momentum_sum,
        "momentum_expected": rep.momentum_expected,
        "momentum_residual": rep.momentum_residual,
        "tolerance": num["sum_rule_tol"],
    }
    _emit(args.output, _json_text(doc))
    worst = max(rep.norm_residual, rep.momentum_residual)
    if worst > num["sum_rule_tol"]:
        print(
            f"sum-rule residual {worst:.3e} exceeds {num['sum_rule_tol']:g} "
            f"(tail mass {rep.tail_mass:.3e})",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    import numpy as np

    from . import dynamics, oracle

    cfg = load_config(args.config)
    field, units, trap, pkt, num, coeffs = _build_everything(cfg)
    times = resolve_times(cfg)
    if pkt.dimensionality == "2+1":
        traj = dynamics.trajectory_2p1(pkt, coeffs, field, times)
    else:
        traj = dynamics.trajectory_3p1(pkt, coeffs, field, times, kz_rtol=num["kz_rtol"])
    evolved = oracle.evolve_expectations(
        pkt, field, times, n_levels=coeffs.n_max + num["oracle_guard"]
    )
    pos_scale = max(np.max(np.abs(evolved.x)), np.max(np.abs(evolved.y)), 1e-300)
    rows = [
        ("x", float(np.max(np.abs(traj.x - evolved.x)) / pos_scale)),
        ("y", float(np.max(np.abs(traj.y - evolved.y)) / pos_scale)),
        ("vx", float(np.max(np.abs(traj.vx - evolved.vx)))),
        ("vy", float(np.max(np.abs(traj.vy - evolved.vy)))),
    ]
    doc = {
        "channels": {name: dev for name, dev in rows},
        "position_scale": pos_scale,
        "tolerance": _ORACLE_TOL,
        "n_levels": coeffs.n_max + num["oracle_guard"],
        "mixing_active": bool(
            pkt.dimensionality == "3+1" and pkt.is_two_component and pkt.k0z != 0.0
        ),
        "kz_residual": evolved.kz_residual,
        "norm_drift": evolved.norm_drift,
        "energy_drift": evolved.energy_drift,
        "guiding_shift": evolved.guiding_shift,
    }
    _emit(args.output, _json_text(doc))
    # an uncertified reference makes the channel deviations meaningless
    if evolved.kz_residual > _ORACLE_TOL:
        print(f"oracle k_z half-grid residual {evolved.kz_residual:.3e} exceeds "
              f"{_ORACLE_TOL:g}", file=sys.stderr)
        return EXIT_TOLERANCE
    worst = max(dev for _, dev in rows)
    if worst > _ORACLE_TOL:
        print(f"oracle deviation {worst:.3e} exceeds {_ORACLE_TOL:g}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_ion_map(args) -> int:
    from . import ionmap

    flags = {"--model": args.model, "--eta": args.eta,
             "--omega-tilde-hz": args.omega_tilde_hz, "--omega-hz": args.omega_hz,
             "--target-kappa": args.target_kappa, "--delta-angstrom": args.delta_angstrom}
    if args.config:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ConfigError(f"ion-map reads the trap and model from --config; "
                              f"{', '.join(given)} would be ignored")
        cfg = load_config(args.config)
        trap = resolve_trap(_require(cfg, "trap", "config"))
        model = cfg.get("model", "2+1")
    else:
        if args.eta is None or args.omega_tilde_hz is None:
            raise ConfigError("ion-map needs --config or --eta plus --omega-tilde-hz")
        if (args.omega_hz is None) == (args.target_kappa is None):
            raise ConfigError("ion-map needs exactly one of --omega-hz and --target-kappa")
        if args.target_kappa is not None:
            omega = ionmap.invert_kappa(
                args.target_kappa, args.eta, _TWO_PI * args.omega_tilde_hz
            )
        else:
            omega = _TWO_PI * args.omega_hz
        trap = ionmap.TrapParams(
            eta=args.eta,
            omega_tilde=_TWO_PI * args.omega_tilde_hz,
            omega_carrier=omega,
            delta=96e-10 if args.delta_angstrom is None else args.delta_angstrom * 1e-10,
        )
        model = args.model or "2+1"
    schedule = ionmap.excitation_schedule(model)
    doc = ionmap.schedule_document(schedule, trap)
    _emit(args.output, _json_text(doc))
    return EXIT_OK


def cmd_lowfield(args) -> int:
    from . import dynamics

    cfg = load_config(args.config)
    field, units, trap, pkt, num, coeffs = _build_everything(cfg)
    summary = dynamics.lowfield_summary(pkt, field)
    doc = {
        "kappa": summary.kappa,
        "cyclotron_radius": summary.cyclotron_radius,
        "omega_cyclotron": summary.omega_cyclotron,
        "zb_amplitude": summary.zb_amplitude,
        "zb_carrier": summary.zb_carrier,
    }
    if units is not None:
        doc["cyclotron_radius_m"] = summary.cyclotron_radius * units.compton_length
        doc["zb_amplitude_m"] = summary.zb_amplitude * units.compton_length
        doc["zb_carrier_rad_s"] = summary.zb_carrier / units.compton_time
        doc["omega_cyclotron_rad_s"] = summary.omega_cyclotron / units.compton_time
    _emit(args.output, _json_text(doc))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landauzb",
        description="Relativistic wave-packet dynamics in a magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt="csv"):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output", default=None, help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
        return p

    common(sub.add_parser("trajectory", help="positions/velocities time series"))
    common(sub.add_parser("spectrum", help="discrete line table (2+1)"))
    common(sub.add_parser("sumrules", help="overlap sum-rule residuals"), "json")
    common(sub.add_parser("oracle-check", help="series vs brute-force evolution"), "json")
    common(sub.add_parser("lowfield", help="weak-field closed-form summary"), "json")

    ion = sub.add_parser("ion-map", help="trap settings -> simulated parameters")
    ion.add_argument("--config", default=None)
    ion.add_argument("--output", default=None)
    ion.add_argument("--format", choices=("csv", "json"), default="json")
    ion.add_argument("--model", choices=("2+1", "3+1"), default=None,
                     help="default 2+1")
    ion.add_argument("--eta", type=float, default=None)
    ion.add_argument("--omega-tilde-hz", type=float, default=None)
    ion.add_argument("--omega-hz", type=float, default=None)
    ion.add_argument("--target-kappa", type=float, default=None)
    ion.add_argument("--delta-angstrom", type=float, default=None)
    return parser


_RECORD_COMMANDS = ("trajectory", "spectrum")   # the others write JSON only
_COMMANDS = {
    "trajectory": cmd_trajectory,
    "spectrum": cmd_spectrum,
    "sumrules": cmd_sumrules,
    "oracle-check": cmd_oracle_check,
    "ion-map": cmd_ion_map,
    "lowfield": cmd_lowfield,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    from . import hermite
    from .oracle import TruncationLeakError
    from .packet import PacketError, QuadratureConvergenceError, TruncationError
    from .units import UnitError

    try:
        from .ionmap import TrapError
        if args.command not in _RECORD_COMMANDS and args.format != "json":
            raise ConfigError(f"{args.command} writes JSON only; --format {args.format} "
                              "is not supported")
        return _COMMANDS[args.command](args)
    except (ConfigError, PacketError, UnitError, TrapError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, QuadratureConvergenceError, TruncationLeakError) as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except hermite.CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
