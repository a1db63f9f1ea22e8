"""Command-line interface: config ingestion, runs, and serialization.

One table, `_COMMANDS`, declares every command: its run, help text and
output formats.  Exit codes: 0 success, 2 config error, 3 tolerance failure,
4 capacity error; a run's gates fail at the first value not within its
tolerance, a NaN included.
One structured JSON config per run, each key declared once in `SCHEMA`.
Every command checks the whole config, and an error names `section.key`;
a section is required only by the commands that read it, and
`output.include_spectrum` is 2+1 only.  The commands with both formats write
CSV or JSON records whose header carries every resolved parameter, the
others JSON only (--format csv there is a config error).
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, dynamics, hermite, ionmap, oracle, packet
from .ionmap import TrapError
from .oracle import TruncationLeakError
from .packet import PacketError, QuadratureConvergenceError, TruncationError
from .units import ATOMIC_MASS, FieldConfig, TimeRangeError, UnitError, UnitSystem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_CAPACITY = 4

_TWO_PI = 2.0 * math.pi
_ORACLE_TOL = 1e-6
_REQUIRED = object()    # default of a config key that must be given


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _is_number(value) -> bool:
    """A JSON number within the float range; booleans and strings are not numbers."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _complex(value) -> complex | None:
    """A number or [re, im] pair as a complex; None for anything else."""
    parts = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
    if not all(_is_number(part) for part in parts):
        return None
    return complex(float(parts[0]), float(parts[1]))


class _Kind(NamedTuple):
    """What a config value must be: a test, its typed form, and the words for it."""

    accepts: Callable[[object], bool]
    convert: Callable
    text: str


def _one_of(values: tuple) -> _Kind:
    return _Kind(lambda value: value in values, str, f"one of {values}")


NUMBER = _Kind(_is_number, float, "a finite number")
POSITIVE = _Kind(lambda v: _is_number(v) and v > 0, float, "a positive number")
TOLERANCE = _Kind(lambda v: _is_number(v) and v > 0 and 1.0 / v < math.inf, float,
                  "a positive number with a finite reciprocal")
ZERO = _Kind(lambda v: _is_number(v) and v == 0, float,
             "0 (trajectories start at the origin)")
COUNT = _Kind(lambda v: type(v) is int and v >= 0, int, "a non-negative integer")
# the largest time grid: a trajectory run holds about 0.8 kB per sample, 8 GB here
MAX_SAMPLES = 10**7
SAMPLES = _Kind(lambda v: type(v) is int and 2 <= v <= MAX_SAMPLES, int,
                f"an integer from 2 to {MAX_SAMPLES:,}")
# the oracle's levels above n_max, the band it scans for leaked mass: with none, it
# shares the series' cut and no scan sees the truncation
GUARD = _Kind(lambda v: type(v) is int and v >= 1, int, "a positive integer")
FLAG = _Kind(lambda v: isinstance(v, bool), bool, "true or false")
COMPLEX = _Kind(lambda v: _complex(v) is not None, _complex, "a number or [re, im] pair")

# key -> (kind, default) at the config root, section -> key -> (kind, default)
# below it.  Every section the file holds is checked by every command; a
# default of None means "not given", for the resolvers to decide.
SCHEMA = {
    "model": (_one_of(("2+1", "3+1")), "2+1"),
    "units": (_one_of(("natural", "physical", "trap")), "natural"),
    "field": {   # exactly one key, see resolve_field
        "magnetic_length": (NUMBER, None),
        "b_tesla": (NUMBER, None),
        "kappa": (NUMBER, None),
    },
    "trap": {
        "eta": (NUMBER, _REQUIRED),
        "omega_tilde_hz": (NUMBER, _REQUIRED),
        "omega_hz": (NUMBER, _REQUIRED),
        "delta_angstrom": (NUMBER, None),
        "ion_mass_amu": (NUMBER, None),
        "nu_hz": (NUMBER, None),
    },
    "packet": {
        "d_x": (NUMBER, _REQUIRED),
        "d_y": (NUMBER, _REQUIRED),
        "d_z": (NUMBER, None),
        "k0x": (NUMBER, 0.0),
        "k0z": (NUMBER, 0.0),
        "a1": (COMPLEX, 0j),
        "a2": (COMPLEX, 1 + 0j),
        "unit": (_one_of(("lambda_c", "magnetic_length", "delta")), "lambda_c"),
        "relax_momentum_bound": (FLAG, False),
    },
    "numerics": {
        "n_max": (COUNT, None),
        "tail_tol": (POSITIVE, packet.DEFAULT_TAIL_TOL),
        "kz_rtol": (TOLERANCE, dynamics.DEFAULT_KZ_RTOL),
        "oracle_guard": (GUARD, oracle.GUARD_BAND),
        "sum_rule_tol": (POSITIVE, 1e-10),
    },
    "time": {
        "t_start": (ZERO, 0.0),
        "t_end": (POSITIVE, _REQUIRED),
        "samples": (SAMPLES, _REQUIRED),
    },
    "output": {
        "include_velocities": (FLAG, True),
        "include_spectrum": (FLAG, False),
        "parts": (_one_of(dynamics.PARTS), "all"),
    },
}


def _checked(raw, schema: dict, where: str = "") -> dict:
    """`raw` checked against `schema`, typed, with its defaults filled in.

    A nested dict in `schema` is a section: checked when `raw` holds it, left
    out when not (see `_section`).  `where` names `raw` in messages.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object")
    prefix = f"{where}." if where else ""
    unknown = [prefix + key for key in raw if key not in schema]
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    out = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            if key in raw:
                out[key] = _checked(raw[key], spec, prefix + key)
            continue
        kind, default = spec
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing key {prefix + key}")
            out[key] = default
        elif not kind.accepts(raw[key]):
            raise ConfigError(f"{prefix + key} must be {kind.text}, not {raw[key]!r}")
        else:
            out[key] = kind.convert(raw[key])
    return out


def _section(cfg: dict, name: str) -> dict:
    """Section `name` of a loaded config, or its defaults when the file has none."""
    return cfg[name] if name in cfg else _checked({}, SCHEMA[name], name)


def load_config(path: str) -> dict:
    """The config at `path`, checked whole against SCHEMA."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:     # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config is not valid JSON: {exc}")
    return _checked(raw, SCHEMA)


def resolve_field(cfg: dict):
    """FieldConfig and UnitSystem (None for natural units) of a loaded config."""
    units_kind = cfg["units"]
    unread = "field" if units_kind == "trap" else "trap"
    if unread in cfg:
        raise ConfigError(f"units '{units_kind}' leave the {unread} section unread; remove it")
    if units_kind == "trap":
        units, field = ionmap.simulated_units(resolve_trap(_section(cfg, "trap")))
        return field, units
    section = _section(cfg, "field")
    if sum(value is not None for value in section.values()) != 1:
        raise ConfigError(f"field needs exactly one of {', '.join(section)}")
    if section["b_tesla"] is not None:
        if units_kind != "physical":
            raise ConfigError("b_tesla requires units = 'physical'")
        field = FieldConfig.from_tesla(section["b_tesla"])
    elif section["kappa"] is not None:
        field = FieldConfig.from_kappa(section["kappa"])
    else:
        field = FieldConfig.from_magnetic_length(section["magnetic_length"])
    units = UnitSystem.electron() if units_kind == "physical" else None
    return field, units


def resolve_trap(section: dict):
    delta, ion_mass, nu = section["delta_angstrom"], section["ion_mass_amu"], section["nu_hz"]
    return ionmap.TrapParams(
        eta=section["eta"],
        omega_tilde=_TWO_PI * section["omega_tilde_hz"],
        omega_carrier=_TWO_PI * section["omega_hz"],
        delta=None if delta is None else delta * 1e-10,
        ion_mass=None if ion_mass is None else ion_mass * ATOMIC_MASS,
        trap_freqs=None if nu is None else (_TWO_PI * nu,) * 3,
    )


def resolve_packet(cfg: dict, field):
    section = _section(cfg, "packet")
    scale = {
        "lambda_c": 1.0,
        "magnetic_length": field.magnetic_length,
        "delta": field.magnetic_length / math.sqrt(2.0),
    }[section["unit"]]
    d_z = section["d_z"]
    return packet.GaussianPacket(
        d_x=section["d_x"] * scale,
        d_y=section["d_y"] * scale,
        d_z=None if d_z is None else d_z * scale,
        k0x=section["k0x"] / scale,
        k0z=section["k0z"] / scale,
        a1=section["a1"],
        a2=section["a2"],
        dimensionality=cfg["model"],
        relax_momentum_bound=section["relax_momentum_bound"],
    )


def resolve_times(cfg: dict):
    section = _section(cfg, "time")
    return np.linspace(0.0, section["t_end"], section["samples"])


def _build_everything(cfg: dict):
    field, units = resolve_field(cfg)
    pkt = resolve_packet(cfg, field)
    num = _section(cfg, "numerics")
    coeffs = packet.coefficient_matrix(pkt, field, n_max=num["n_max"], tail_tol=num["tail_tol"])
    return field, units, pkt, num, coeffs


def _header(cfg, field, units, pkt, coeffs, extra=None) -> dict:
    head = {
        "generator": f"landauzb {__version__}",
        "model": pkt.dimensionality,
        "units": cfg["units"],
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
    values = {k: list(map(repr, np.asarray(v, dtype=float).tolist())) for k, v in columns.items()}
    if fmt == "json":
        doc = {"header": header}
        if spectrum is not None:
            doc["spectrum"] = spectrum
        # "columns" (first in key order) as json's slow indent=1 encoder writes it
        cols = [f"  {json.dumps(k)}: " + ('[\n   "' + '",\n   "'.join(v) + '"\n  ]' if v else "[]")
                for k, v in sorted(values.items())]
        text = ('{\n "columns": ' + ("{\n" + ",\n".join(cols) + "\n }" if cols else "{}")
                + ",\n" + _json_text(doc)[2:])
    elif fmt == "csv":
        lines = [f"# {k} = {v!r}" for k, v in _flat_items("", header)]
        lines.append(",".join(values))
        lines += map(",".join, zip(*values.values()))
        if spectrum is not None:
            lines += ["", "n,kind,frequency,amplitude_x,amplitude_y"]
            lines += (f"{line['n']},{line['kind']},{float(line['frequency'])!r},"
                      f"{float(line['amplitude_x'])!r},{float(line['amplitude_y'])!r}"
                      for line in spectrum)
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError("format must be 'csv' or 'json'")
    _emit(path, text)


def read_record(path):
    """Parse a record written by write_record; returns (header, columns, spectrum)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        cols = {k: np.array(v, dtype=float) for k, v in doc["columns"].items()}
        return doc["header"], cols, doc.get("spectrum")
    table, _, spec = text.partition("\n\n")     # the spectrum follows a blank line
    n_head = table.startswith("#") + table.count("\n#")    # the "# key = value" lines lead
    *head, names, body = (table + "\n").split("\n", n_head + 1)
    header = {}
    for line in head:
        key, _, val = line[1:].partition("=")
        header[key.strip()] = ast.literal_eval(val.strip())
    rows = np.fromiter(map(float, body.replace(",", " ").split()), dtype=float)
    columns = dict(zip(names.split(","), rows.reshape(-1, names.count(",") + 1).T))
    spectrum = None
    if spec:
        spectrum = [
            {"n": int(n), "kind": kind, "frequency": float(freq),
             "amplitude_x": float(amp_x), "amplitude_y": float(amp_y)}
            for n, kind, freq, amp_x, amp_y in (row.split(",") for row in spec.splitlines()[1:])
        ]
    return header, columns, spectrum


def _spectrum_rows(pkt, coeffs, field) -> list[dict]:
    """The 2+1 line table as record rows (n, kind, frequency, amplitudes)."""
    return [dict(vars(line)) for line in dynamics.spectral_decomposition(pkt, coeffs, field)]


def _trajectory(cfg: dict, built, parts: str = "all"):
    """The series trajectory of the config's model over its time grid."""
    field, _, pkt, num, coeffs = built
    times = resolve_times(cfg)
    if pkt.dimensionality == "2+1":
        return dynamics.trajectory_2p1(pkt, coeffs, field, times, parts=parts)
    return dynamics.trajectory_3p1(pkt, coeffs, field, times, parts=parts,
                                   kz_rtol=num["kz_rtol"])


def cmd_trajectory(cfg, args) -> list:
    out_cfg = _section(cfg, "output")
    if out_cfg["include_spectrum"] and cfg["model"] != "2+1":
        raise ConfigError("output.include_spectrum is defined for the 2+1 model only")
    built = field, units, pkt, _, coeffs = _build_everything(cfg)
    traj = _trajectory(cfg, built, out_cfg["parts"])
    columns = {"t": traj.times, "x": traj.x, "y": traj.y}
    if out_cfg["include_velocities"]:
        columns.update(vx=traj.vx, vy=traj.vy)
    spectrum = _spectrum_rows(pkt, coeffs, field) if out_cfg["include_spectrum"] else None
    header = _header(cfg, field, units, pkt, coeffs, extra={
        "parts": traj.parts,
        "y_operator_initial": traj.y_operator_initial,
        "subtracted_constant": traj.subtracted_constant,
    })
    write_record(args.output, header, columns, spectrum, fmt=args.format)
    return []


def cmd_spectrum(cfg, args) -> list:
    field, units, pkt, _, coeffs = _build_everything(cfg)
    if pkt.dimensionality != "2+1":
        raise ConfigError(f"{args.command} is defined for the 2+1 model")
    spectrum = _spectrum_rows(pkt, coeffs, field)
    header = _header(cfg, field, units, pkt, coeffs, extra={"lines": len(spectrum)})
    # a CSV record needs a column row ahead of the table
    columns = {"t": []} if args.format == "csv" else {}
    write_record(args.output, header, columns, spectrum, fmt=args.format)
    return []


def cmd_sumrules(cfg, args) -> list:
    field, _, pkt, num, coeffs = _build_everything(cfg)
    rep = packet.sum_rules(coeffs, pkt, field)
    tol = num["sum_rule_tol"]
    _emit(args.output, _json_text({**vars(rep), "n_max": coeffs.n_max, "tolerance": tol}))
    return [("sum-rule residual (norm)", rep.norm_residual, tol),
            ("sum-rule residual (momentum)", rep.momentum_residual, tol)]


def cmd_oracle_check(cfg, args) -> list:
    built = field, _, pkt, num, coeffs = _build_everything(cfg)
    traj = _trajectory(cfg, built)
    guard = num["oracle_guard"]     # levels added above n_max: the band scanned for leaks
    evolved = oracle.evolve_expectations(
        pkt, field, traj.times, n_levels=coeffs.n_max + guard, guard=guard
    )
    pos_scale = max(np.max(np.abs(evolved.x)), np.max(np.abs(evolved.y)), 1e-300)
    scales = {"x": pos_scale, "y": pos_scale, "vx": 1.0, "vy": 1.0}
    channels = {name: float(np.max(np.abs(getattr(traj, name) - getattr(evolved, name))) / scale)
                for name, scale in scales.items()}
    _emit(args.output, _json_text({
        "channels": channels,
        "position_scale": pos_scale,
        "tolerance": _ORACLE_TOL,
        "n_levels": coeffs.n_max + guard,
        "mixing_active": bool(
            pkt.dimensionality == "3+1" and pkt.is_two_component and pkt.k0z != 0.0
        ),
        "kz_residual": evolved.kz_residual,
        "norm_drift": evolved.norm_drift,
        "energy_drift": evolved.energy_drift,
        "guiding_shift": evolved.guiding_shift,
    }))
    # an uncertified reference makes the channel deviations meaningless: its gate leads
    return [("oracle k_z aliasing bound", evolved.kz_residual, _ORACLE_TOL)] + [
        (f"oracle deviation ({name})", dev, _ORACLE_TOL) for name, dev in channels.items()]


def cmd_ion_map(cfg, args) -> list:
    flags = {"--model": args.model, "--eta": args.eta,
             "--omega-tilde-hz": args.omega_tilde_hz, "--omega-hz": args.omega_hz,
             "--target-kappa": args.target_kappa, "--delta-angstrom": args.delta_angstrom}
    if cfg is not None:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ConfigError(f"{args.command} reads the trap and model from --config; "
                              f"{', '.join(given)} would be ignored")
        trap, model = resolve_trap(_section(cfg, "trap")), cfg["model"]
    else:
        if args.eta is None or args.omega_tilde_hz is None:
            raise ConfigError(f"{args.command} needs --config or --eta plus --omega-tilde-hz")
        if (args.omega_hz is None) == (args.target_kappa is None):
            raise ConfigError(f"{args.command} needs exactly one of --omega-hz and --target-kappa")
        omega_tilde = _TWO_PI * args.omega_tilde_hz
        trap = ionmap.TrapParams(
            eta=args.eta,
            omega_tilde=omega_tilde,
            omega_carrier=(_TWO_PI * args.omega_hz if args.target_kappa is None
                           else ionmap.invert_kappa(args.target_kappa, args.eta, omega_tilde)),
            delta=96e-10 if args.delta_angstrom is None else args.delta_angstrom * 1e-10,
        )
        model = args.model or "2+1"
    doc = ionmap.schedule_document(ionmap.excitation_schedule(model), trap)
    _emit(args.output, _json_text(doc))
    return []


def cmd_lowfield(cfg, args) -> list:
    # a closed form in the packet and field: no level table, so no truncation gate
    field, units = resolve_field(cfg)
    pkt = resolve_packet(cfg, field)
    summary = dynamics.lowfield_summary(pkt, field)
    doc = {key: value for key, value in vars(summary).items() if key != "axial_width"}
    if units is not None:
        doc["cyclotron_radius_m"] = summary.cyclotron_radius * units.compton_length
        doc["zb_amplitude_m"] = summary.zb_amplitude * units.compton_length
        doc["zb_carrier_rad_s"] = summary.zb_carrier / units.compton_time
        doc["omega_cyclotron_rad_s"] = summary.omega_cyclotron / units.compton_time
    _emit(args.output, _json_text(doc))
    return []


# name -> (run, help, formats), the first format the default.  run(cfg, args)
# writes the command's output and returns its gates, (what, value, tolerance)
# triples.  cmd_ion_map alone may run without --config (cfg None), from its own flags.
_COMMANDS = {
    "trajectory": (cmd_trajectory, "positions/velocities time series", ("csv", "json")),
    "spectrum": (cmd_spectrum, "discrete line table (2+1)", ("csv", "json")),
    "sumrules": (cmd_sumrules, "overlap sum-rule residuals", ("json",)),
    "oracle-check": (cmd_oracle_check, "series vs brute-force evolution", ("json",)),
    "ion-map": (cmd_ion_map, "trap settings -> simulated parameters", ("json",)),
    "lowfield": (cmd_lowfield, "weak-field closed-form summary", ("json",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="landauzb",
        description="Relativistic wave-packet dynamics in a magnetic field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, text, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=run is not cmd_ion_map,
                       help="JSON run configuration")
        p.add_argument("--output", default=None, help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=formats[0])
        if run is cmd_ion_map:
            p.add_argument("--model", choices=("2+1", "3+1"), default=None, help="default 2+1")
            for flag in ("--eta", "--omega-tilde-hz", "--omega-hz", "--target-kappa",
                         "--delta-angstrom"):
                p.add_argument(flag, type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, formats = _COMMANDS[args.command]
    try:
        if args.format not in formats:
            raise ConfigError(f"{args.command} writes JSON only; --format {args.format} "
                              "is not supported")
        cfg = None if args.config is None else load_config(args.config)
        gates = run(cfg, args)
    except (ConfigError, PacketError, UnitError, TrapError, TimeRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, QuadratureConvergenceError, TruncationLeakError) as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except hermite.CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    for what, value, tol in gates:
        if not value <= tol:        # a NaN fails too
            print(f"{what} {value:.3e} exceeds {tol:g}", file=sys.stderr)
            return EXIT_TOLERANCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
