"""Command-line interface: config ingestion, runs, and serialization.

Commands
    trajectory    sampled positions (and optionally velocities, spectrum)
    spectrum      discrete line table of a 2+1 run
    sumrules      overlap-matrix sum-rule residuals
    oracle-check  analytic series vs dense-evolution comparison
    ion-map       trap settings -> simulated parameters and laser schedule
    lowfield      weak-field closed-form summary

Exit codes: 0 success, 2 config error, 3 tolerance failure, 4 capacity error.
One structured JSON config per run; outputs are CSV or JSON records whose
header carries every resolved parameter.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_CAPACITY = 4

_TWO_PI = 2.0 * math.pi
_AMU = 1.66053906660e-27
_SUM_RULE_TOL = 1e-10
_ORACLE_TOL = 1e-6


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{where} must be a number or [re, im] pair")


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
        field = FieldConfig.from_tesla(float(section["b_tesla"]))
    elif "kappa" in section:
        field = FieldConfig.from_kappa(float(section["kappa"]))
    else:
        field = FieldConfig.from_magnetic_length(float(section["magnetic_length"]))
    units = UnitSystem.electron() if units_kind == "physical" else None
    return field, units, None


def resolve_trap(section: dict):
    from . import ionmap

    _reject_unknown(
        section,
        {"eta", "omega_tilde_hz", "omega_hz", "delta_angstrom", "ion_mass_amu", "nu_hz"},
        "trap",
    )
    eta = float(_require(section, "eta", "trap"))
    omega_tilde = _TWO_PI * float(_require(section, "omega_tilde_hz", "trap"))
    omega = _TWO_PI * float(_require(section, "omega_hz", "trap"))
    delta = section.get("delta_angstrom")
    ion_mass = section.get("ion_mass_amu")
    nu = section.get("nu_hz")
    return ionmap.TrapParams(
        eta=eta,
        omega_tilde=omega_tilde,
        omega_carrier=omega,
        delta=None if delta is None else float(delta) * 1e-10,
        ion_mass=None if ion_mass is None else float(ion_mass) * _AMU,
        trap_freqs=None if nu is None else (
            _TWO_PI * float(nu), _TWO_PI * float(nu), _TWO_PI * float(nu)
        ),
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
    d_z = section.get("d_z")
    return GaussianPacket(
        d_x=float(_require(section, "d_x", "packet")) * scale,
        d_y=float(_require(section, "d_y", "packet")) * scale,
        d_z=None if d_z is None else float(d_z) * scale,
        k0x=float(section.get("k0x", 0.0)) / scale,
        k0z=float(section.get("k0z", 0.0)) / scale,
        a1=a1,
        a2=a2,
        dimensionality=model,
        relax_momentum_bound=bool(section.get("relax_momentum_bound", False)),
    )


def resolve_times(cfg: dict):
    import numpy as np

    section = _require(cfg, "time", "config")
    _reject_unknown(section, {"t_start", "t_end", "samples"}, "time")
    t_start = float(section.get("t_start", 0.0))
    if t_start != 0.0:
        raise ConfigError("time.t_start must be 0 (trajectories start at the origin)")
    t_end = float(_require(section, "t_end", "time"))
    samples = int(_require(section, "samples", "time"))
    if t_end <= 0 or samples < 2:
        raise ConfigError("time needs t_end > 0 and samples >= 2")
    return np.linspace(0.0, t_end, samples)


def resolve_numerics(cfg: dict) -> dict:
    section = cfg.get("numerics", {})
    _reject_unknown(
        section,
        {"n_max", "tail_tol", "kx_order", "kz_rtol", "oracle_guard", "sum_rule_tol"},
        "numerics",
    )
    return {
        "n_max": section.get("n_max"),
        "tail_tol": float(section.get("tail_tol", 1e-10)),
        "kx_order": section.get("kx_order"),
        "kz_rtol": float(section.get("kz_rtol", 1e-9)),
        "oracle_guard": int(section.get("oracle_guard", 20)),
        "sum_rule_tol": float(section.get("sum_rule_tol", _SUM_RULE_TOL)),
    }


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
        i += 1
        spec_names = lines[i].split(",")
        spectrum = []
        for line in lines[i + 1 :]:
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
        del spec_names
    return header, columns, spectrum


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
    if out_cfg.get("include_velocities", True):
        columns["vx"] = traj.vx
        columns["vy"] = traj.vy
    spectrum = None
    if out_cfg.get("include_spectrum", False) and pkt.dimensionality == "2+1":
        spectrum = [
            {
                "n": l.n,
                "kind": l.kind,
                "frequency": l.frequency,
                "amplitude_x": l.amplitude_x,
                "amplitude_y": l.amplitude_y,
            }
            for l in dynamics.spectral_decomposition(pkt, coeffs, field)
        ]
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
    from . import dynamics

    cfg = load_config(args.config)
    field, units, trap, pkt, num, coeffs = _build_everything(cfg)
    if pkt.dimensionality != "2+1":
        raise ConfigError("spectrum is defined for the 2+1 model")
    lines = dynamics.spectral_decomposition(pkt, coeffs, field)
    spectrum = [
        {
            "n": l.n,
            "kind": l.kind,
            "frequency": l.frequency,
            "amplitude_x": l.amplitude_x,
            "amplitude_y": l.amplitude_y,
        }
        for l in lines
    ]
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
    }
    _emit(args.output, _json_text(doc))
    worst = max(dev for _, dev in rows)
    if worst > _ORACLE_TOL:
        print(f"oracle deviation {worst:.3e} exceeds {_ORACLE_TOL:g}", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_ion_map(args) -> int:
    from . import ionmap

    if args.config:
        cfg = load_config(args.config)
        trap = resolve_trap(_require(cfg, "trap", "config"))
        model = cfg.get("model", "2+1")
    else:
        if args.eta is None or args.omega_tilde_hz is None:
            raise ConfigError("ion-map needs --config or --eta plus --omega-tilde-hz")
        if args.target_kappa is not None:
            omega = ionmap.invert_kappa(
                args.target_kappa, args.eta, _TWO_PI * args.omega_tilde_hz
            )
        elif args.omega_hz is not None:
            omega = _TWO_PI * args.omega_hz
        else:
            raise ConfigError("ion-map needs --omega-hz or --target-kappa")
        trap = ionmap.TrapParams(
            eta=args.eta,
            omega_tilde=_TWO_PI * args.omega_tilde_hz,
            omega_carrier=omega,
            delta=args.delta_angstrom * 1e-10 if args.delta_angstrom else 96e-10,
        )
        model = args.model
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

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output", default=None, help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    common(sub.add_parser("trajectory", help="positions/velocities time series"))
    common(sub.add_parser("spectrum", help="discrete line table (2+1)"))
    common(sub.add_parser("sumrules", help="overlap sum-rule residuals"))
    common(sub.add_parser("oracle-check", help="series vs dense evolution"))
    common(sub.add_parser("lowfield", help="weak-field closed-form summary"))

    ion = sub.add_parser("ion-map", help="trap settings -> simulated parameters")
    ion.add_argument("--config", default=None)
    ion.add_argument("--output", default=None)
    ion.add_argument("--format", choices=("csv", "json"), default="json")
    ion.add_argument("--model", choices=("2+1", "3+1"), default="2+1")
    ion.add_argument("--eta", type=float, default=None)
    ion.add_argument("--omega-tilde-hz", type=float, default=None)
    ion.add_argument("--omega-hz", type=float, default=None)
    ion.add_argument("--target-kappa", type=float, default=None)
    ion.add_argument("--delta-angstrom", type=float, default=None)
    return parser


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
    from .dynamics import QuadratureConvergenceError
    from .oracle import TruncationLeakError
    from .packet import PacketError, TruncationError
    from .units import UnitError

    try:
        from .ionmap import TrapError
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
