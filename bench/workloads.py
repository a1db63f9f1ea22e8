"""The three benchmark workloads: inputs from a seed, one job, and its gate.

Each workload is a pair of functions.  ``<name>_inputs(seed, workdir)`` builds
everything a job needs (packets, time grids, config files) and is what the
set-up probe times in a fresh interpreter.  ``<name>_job(inputs)`` is the
timed unit of work; ``<name>_check(inputs, result)`` gates its output and
returns the failures it found plus the job's resolved sizes.

The seed picks the job order and the spinor phases: a global phase on every
packet and, for two-component packets, a relative phase between a1 and a2.
The phases leave |a1|^2, |a2|^2, the level cutoff and the axial rules
unchanged, so every seed does the same amount of work, while no two seeds
pass the program the same input.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from landauzb import FieldConfig, GaussianPacket, cli, dynamics, ionmap, oracle
from landauzb import packet as packet_mod
from landauzb.units import COMPTON_LENGTH

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TWO_PI = 2.0 * math.pi
ORACLE_TOL = 1e-6          # criterion 2 and the oracle-check exit gate
SUM_RULE_TOL = 1e-10       # criterion 1 and the sumrules exit gate
DEFAULT_KZ_RTOL = 1e-9     # trajectory_3p1 / CLI default axial-rule target
CLOSED_FORM_RTOL = 1e-12   # lowfield and ion-map are closed forms
# A rule certified to kz_rtol by a doubling probe on nine samples is compared
# with a reference that carries its own error of the same size, at every
# sample; the gate allows ten times the target so that any algorithm meeting
# its stated accuracy passes.
REFERENCE_MARGIN = 10.0


def phases(rng: random.Random, two_component: bool, relative=None):
    """(global, relative) spinor phases; the relative one only if two-component."""
    theta = rng.uniform(0.0, TWO_PI)
    if not two_component:
        return theta, 0.0
    return theta, rng.uniform(0.0, TWO_PI) if relative is None else relative


def phased(a1: float, a2: float, theta: float, phi: float) -> tuple[complex, complex]:
    """Amplitudes |a1| e^{i theta}, |a2| e^{i (theta + phi)}."""
    return a1 * cmath.exp(1j * theta), a2 * cmath.exp(1j * (theta + phi))


def max_rel(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(scale, 1e-300)


# --------------------------------------------------------------------- certify


@dataclass(frozen=True)
class Pair:
    """One series-vs-oracle comparison of acceptance criterion 2."""

    label: str
    packet: GaussianPacket
    field: FieldConfig
    times: np.ndarray
    guard: int             # oracle levels above the packet's cutoff


def critical_field_pair(theta: float, t_end: float = 200.0, samples: int = 101) -> Pair:
    """The critical-field 3+1 packet of configs/relativistic_3p1.json (k0z = 0).

    Criterion 2 samples 200 t_c at 401 points; the oracle's axial rule depends
    on the window only, and 101 points (every fourth of the 401) keep the
    same 2048 nodes at two thirds of the single-thread cost.
    """
    a1, a2 = phased(0.0, 1.0, theta, 0.0)
    pkt = GaussianPacket(d_x=1.5, d_y=1.5, d_z=1.8, k0x=0.998, a1=a1, a2=a2,
                         dimensionality="3+1")
    return Pair("critical-field 3+1", pkt, FieldConfig.from_magnetic_length(1.0),
                np.linspace(0.0, t_end, samples), 20)


def trap_pair(theta: float, phi: float) -> Pair:
    """The kappa = 16.65 trap packet, two equal spinor components."""
    trap = ionmap.TrapParams(eta=0.06, omega_tilde=TWO_PI * 68e3,
                             omega_carrier=TWO_PI * 1000.0, delta=96e-10)
    _, field = ionmap.simulated_units(trap)
    L = field.magnetic_length
    amp = math.sqrt(0.5)
    a1, a2 = phased(amp, amp, theta, phi)
    pkt = GaussianPacket(d_x=0.9 * L, d_y=L, k0x=math.sqrt(2.0) / L, a1=a1, a2=a2,
                         dimensionality="2+1", relax_momentum_bound=True)
    return Pair("trap 2+1", pkt, field, np.linspace(0.0, 200.0, 801), 21)


def certify_inputs(seed: int, workdir: Path | None = None) -> list[Pair]:
    rng = random.Random(seed)
    pairs = [critical_field_pair(phases(rng, False)[0]), trap_pair(*phases(rng, True))]
    rng.shuffle(pairs)
    return pairs


def run_pair(pair: Pair):
    coeffs = packet_mod.coefficient_matrix(pair.packet, pair.field)
    if pair.packet.dimensionality == "2+1":
        traj = dynamics.trajectory_2p1(pair.packet, coeffs, pair.field, pair.times)
    else:
        traj = dynamics.trajectory_3p1(pair.packet, coeffs, pair.field, pair.times)
    evolved = oracle.evolve_expectations(
        pair.packet, pair.field, pair.times, n_levels=coeffs.n_max + pair.guard
    )
    return coeffs, traj, evolved


def pair_deviation(traj, evolved) -> tuple[float, float]:
    """(position deviation relative to the oracle's scale, velocity deviation in c)."""
    scale = max(float(np.max(np.abs(evolved.x))), float(np.max(np.abs(evolved.y))))
    pos = max(max_rel(traj.x, evolved.x, scale), max_rel(traj.y, evolved.y, scale))
    vel = max(max_rel(traj.vx, evolved.vx, 1.0), max_rel(traj.vy, evolved.vy, 1.0))
    return pos, vel


def certify_job(pairs: list[Pair]):
    return [run_pair(p) for p in pairs]


def certify_check(pairs: list[Pair], result) -> tuple[list[str], dict]:
    errors, sizes = [], {}
    for pair, (coeffs, traj, evolved) in zip(pairs, result):
        pos, vel = pair_deviation(traj, evolved)
        sizes[pair.label] = {"n_max": coeffs.n_max, "pos_dev": pos, "vel_dev": vel}
        if not (pos <= ORACLE_TOL and vel <= ORACLE_TOL):
            errors.append(f"{pair.label}: position deviation {pos:.3e}, "
                          f"velocity deviation {vel:.3e} (tolerance {ORACLE_TOL:g})")
    return errors, sizes


# -------------------------------------------------------------------- envelope


@dataclass(frozen=True)
class Signal:
    """One analytic_signal call and the accuracy target it is asked to meet."""

    label: str
    packet: GaussianPacket
    field: FieldConfig
    times: np.ndarray
    parts: str
    kz_rtol: float


def persistence_signal(theta: float) -> Signal:
    """Criterion 6: the kappa = 0.116 3+1 trap packet over 1200 t_c."""
    field = FieldConfig.from_kappa((0.06 * 68000.0 / 12000.0) ** 2)
    L = field.magnetic_length
    a1, a2 = phased(0.0, 1.0, theta, 0.0)
    pkt = GaussianPacket(d_x=L, d_y=L, d_z=L, k0x=math.sqrt(2.0) / L, a1=a1, a2=a2,
                         dimensionality="3+1", relax_momentum_bound=True)
    return Signal("persistence", pkt, field, np.linspace(0.0, 1200.0, 401), "all", 1e-7)


def decay_signal(theta: float) -> Signal:
    """Criterion 4: the sixth 20 T decay window, [1.04e10, 1.44e10] t_c."""
    field = FieldConfig.from_tesla(20.0)
    a1, a2 = phased(0.0, 1.0, theta, 0.0)
    pkt = GaussianPacket(d_x=2.0e4, d_y=1.8e4, d_z=1.5e4, k0x=8.72e7 * COMPTON_LENGTH,
                         a1=a1, a2=a2, dimensionality="3+1")
    edges = np.geomspace(2.0e9, 2.0e10, 8)
    return Signal("decay", pkt, field, np.linspace(edges[5], edges[6], 257),
                  "interband", 1e-6)


def envelope_inputs(seed: int, workdir: Path | None = None) -> list[Signal]:
    rng = random.Random(seed)
    signals = [persistence_signal(phases(rng, False)[0]), decay_signal(phases(rng, False)[0])]
    rng.shuffle(signals)
    return signals


def run_signal(sig: Signal):
    coeffs = packet_mod.coefficient_matrix(sig.packet, sig.field)
    return coeffs, dynamics.analytic_signal(
        sig.packet, coeffs, sig.field, sig.times, parts=sig.parts, kz_rtol=sig.kz_rtol
    )


def envelope_job(signals: list[Signal]):
    return [run_signal(s) for s in signals]


def envelope_check(signals: list[Signal], result) -> tuple[list[str], dict]:
    ref = np.load(REFERENCE_DIR / "envelope.npz")
    errors, sizes = [], {}
    for sig, (coeffs, values) in zip(signals, result):
        expected = ref[sig.label]
        dev = max_rel(values, expected, float(np.max(np.abs(expected))))
        sizes[sig.label] = {"n_max": coeffs.n_max, "rel_dev": dev}
        if int(ref[sig.label + ".n_max"]) != coeffs.n_max:
            sizes[sig.label]["size_shift"] = f"n_max {int(ref[sig.label + '.n_max'])} -> {coeffs.n_max}"
        tol = REFERENCE_MARGIN * sig.kz_rtol
        if not dev <= tol:
            errors.append(f"{sig.label}: deviation from reference {dev:.3e} (tolerance {tol:g})")
    return errors, sizes


# ------------------------------------------------------------------- cli-sweep

# Commands that take under a second each at the seed.  The 3+1 oracle-check
# runs and the two long 3+1 trajectories (relativistic_3p1, collapse_revival
# _3p1) are left out: certify and envelope time those code paths.
TRAJECTORY_3P1 = ("mixing_3p1", "lowfield_zb_3p1")
PHASE_GRID = (0.0, 0.5 * math.pi, math.pi)   # reference relative phases


@dataclass(frozen=True)
class Command:
    command: str
    config: str            # bundled config name, without .json
    fmt: str

    @property
    def key(self) -> str:
        return f"{self.command}/{self.config}/{self.fmt}"


@dataclass(frozen=True)
class SweepInputs:
    commands: list[Command]
    configs: dict          # name -> the phased config written to workdir
    relative_phase: dict   # name -> relative spinor phase (two-component only)
    workdir: Path

    def config_path(self, name: str) -> Path:
        return self.workdir / f"{name}.json"

    def output_path(self, cmd: Command) -> Path:
        return self.workdir / f"{cmd.command}-{cmd.config}.{cmd.fmt}"

    def argv(self, cmd: Command) -> list[str]:
        argv = [cmd.command, "--config", str(self.config_path(cmd.config)),
                "--output", str(self.output_path(cmd))]
        if cmd.command != "ion-map":
            argv += ["--format", cmd.fmt]
        return argv


def bundled_configs() -> dict:
    return {p.stem: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(CONFIG_DIR.glob("*.json"))}


def sweep_commands(configs: dict) -> list[Command]:
    cmds = []
    for name, cfg in configs.items():
        two_d = cfg.get("model", "2+1") == "2+1"
        if two_d or name in TRAJECTORY_3P1:
            cmds += [Command("trajectory", name, "csv"), Command("trajectory", name, "json")]
        if two_d:
            cmds += [Command("spectrum", name, "csv"), Command("oracle-check", name, "json")]
        cmds += [Command("sumrules", name, "json"), Command("lowfield", name, "json")]
        if "trap" in cfg:
            cmds.append(Command("ion-map", name, "json"))
    return cmds


def is_two_component(cfg: dict) -> bool:
    pk = cfg["packet"]
    return abs(complex(*_pair(pk.get("a1", 0.0)))) > 0 and abs(complex(*_pair(pk.get("a2", 1.0)))) > 0


def _pair(value) -> tuple[float, float]:
    return (float(value[0]), float(value[1])) if isinstance(value, list) else (float(value), 0.0)


def with_phases(cfg: dict, theta: float, phi: float) -> dict:
    """The config with a1, a2 rotated by the global and relative phases."""
    out = json.loads(json.dumps(cfg))
    pk = out["packet"]
    a1 = abs(complex(*_pair(pk.get("a1", 0.0))))
    a2 = abs(complex(*_pair(pk.get("a2", 1.0))))
    b1, b2 = phased(a1, a2, theta, phi)
    pk["a1"], pk["a2"] = [b1.real, b1.imag], [b2.real, b2.imag]
    return out


def sweep_inputs(seed: int, workdir: Path, relative=None) -> SweepInputs:
    rng = random.Random(seed)
    base = bundled_configs()
    configs, rel = {}, {}
    for name, cfg in base.items():
        two = is_two_component(cfg)
        theta, phi = phases(rng, two, relative)
        configs[name] = with_phases(cfg, theta, phi)
        if two:
            rel[name] = phi
    workdir.mkdir(parents=True, exist_ok=True)
    for name, cfg in configs.items():
        (workdir / f"{name}.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    cmds = sweep_commands(base)
    rng.shuffle(cmds)
    return SweepInputs(cmds, configs, rel, workdir)


class RecordCapture:
    """Keeps what cli.write_record was asked to write, keyed by output path."""

    def __init__(self):
        self.records: dict[str, tuple] = {}
        self._original = None

    def install(self):
        self._original = cli.write_record
        original = self._original

        def capture(path, header, columns, spectrum=None, fmt="csv"):
            self.records[str(path)] = (dict(columns), spectrum)
            return original(path, header, columns, spectrum, fmt=fmt)

        cli.write_record = capture

    def remove(self):
        cli.write_record = self._original


def sweep_job(inputs: SweepInputs):
    out = {}
    for cmd in inputs.commands:
        code = cli.main(inputs.argv(cmd))
        path = inputs.output_path(cmd)
        if code != 0:
            out[cmd.key] = (code, None)
        elif cmd.command in ("trajectory", "spectrum"):
            out[cmd.key] = (code, cli.read_record(path))
        else:
            with open(path, "r", encoding="utf-8") as fh:
                out[cmd.key] = (code, json.load(fh))
    return out


def sesquilinear(refs: list[np.ndarray], phi: float) -> np.ndarray:
    """Value at relative phase phi from values at phi = 0, pi/2, pi.

    Expectation values are sesquilinear in (a1, a2), so at fixed |a1|, |a2|
    they read A + B cos(phi) + C sin(phi).
    """
    r0, r90, r180 = (np.asarray(r, dtype=float) for r in refs)
    mean = 0.5 * (r0 + r180)
    return mean + 0.5 * (r0 - r180) * math.cos(phi) + (r90 - mean) * math.sin(phi)


def _expected(ref_cols, ref_docs, key: str, inputs: SweepInputs) -> dict:
    """Reference columns for `key` at the input's relative phase."""
    command, name, _ = key.split("/")
    names = ref_docs["columns"][key]
    if command == "trajectory" and name in ref_docs["phased"]:
        phi = inputs.relative_phase[name]
        return {c: sesquilinear([ref_cols[f"{key}@{i}/{c}"] for i in range(len(PHASE_GRID))], phi)
                for c in names}
    return {c: ref_cols[f"{key}/{c}"] for c in names}


def _compare_columns(got: dict, want: dict, tol: float) -> str | None:
    if set(got) != set(want):
        return f"columns {sorted(got)} != reference {sorted(want)}"
    for name, ref in want.items():
        if got[name].shape != ref.shape:
            return f"column {name}: {got[name].size} rows, reference {ref.size}"
        dev = max_rel(got[name], ref, float(np.max(np.abs(ref))) if ref.size else 1.0)
        if not dev <= tol:
            return f"column {name}: deviation {dev:.3e} (tolerance {tol:g})"
    return None


def _compare_spectrum(got, want, tol: float) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} spectral lines, reference {len(want)}"
    scale = max(max(abs(l["amplitude_x"]), abs(l["amplitude_y"])) for l in want)
    for a, b in zip(got, want):
        if (a["n"], a["kind"]) != (b["n"], b["kind"]):
            return f"line {a['n']}/{a['kind']} != reference {b['n']}/{b['kind']}"
        if abs(a["frequency"] - b["frequency"]) > tol * abs(b["frequency"]):
            return f"line {a['n']}/{a['kind']}: frequency {a['frequency']!r}"
        for k in ("amplitude_x", "amplitude_y"):
            if abs(a[k] - b[k]) > tol * scale:
                return f"line {a['n']}/{a['kind']}: {k} {a[k]!r}"
    return None


def _compare_doc(got, want, rtol: float, where: str = "") -> str | None:
    if isinstance(want, dict):
        if set(got) != set(want):
            return f"{where or 'document'} keys {sorted(got)} != {sorted(want)}"
        for k in want:
            err = _compare_doc(got[k], want[k], rtol, f"{where}.{k}")
            if err:
                return err
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            err = _compare_doc(a, b, rtol, f"{where}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, float) and not isinstance(got, bool):
        if not abs(got - want) <= rtol * abs(want):
            return f"{where}: {got!r} != reference {want!r}"
        return None
    return None if got == want else f"{where}: {got!r} != reference {want!r}"


def load_sweep_reference():
    cols = np.load(REFERENCE_DIR / "cli_sweep.npz")
    with open(REFERENCE_DIR / "cli_sweep.json", "r", encoding="utf-8") as fh:
        docs = json.load(fh)
    return cols, docs


def sweep_check(inputs: SweepInputs, result, written: dict, reference) -> tuple[list[str], dict]:
    ref_cols, ref_docs = reference
    errors, sizes = [], {}
    for cmd in inputs.commands:
        code, got = result[cmd.key]
        if code != 0:
            errors.append(f"{cmd.key}: exit code {code}")
            continue
        cfg = inputs.configs[cmd.config]
        kz_rtol = float(cfg.get("numerics", {}).get("kz_rtol", DEFAULT_KZ_RTOL))
        err = None
        if cmd.command in ("trajectory", "spectrum"):
            _, columns, spectrum = got
            w_cols, w_spec = written[str(inputs.output_path(cmd))]
            if cmd.command == "trajectory":
                # round trip first: read_record must return what was written
                if set(columns) != set(w_cols) or not all(
                    np.array_equal(columns[k], np.asarray(w_cols[k], dtype=float)) for k in w_cols
                ):
                    err = "read-back columns differ from the written ones"
                else:
                    want = _expected(ref_cols, ref_docs, cmd.key, inputs)
                    err = _compare_columns(columns, want, REFERENCE_MARGIN * kz_rtol)
            if err is None and w_spec is not None:
                if spectrum != w_spec:
                    err = "read-back spectrum differs from the written one"
                else:
                    err = _compare_spectrum(spectrum, ref_docs["spectra"][cmd.config],
                                            SUM_RULE_TOL)
        elif cmd.command == "sumrules":
            sizes[cmd.config] = got["n_max"]
            worst = max(got["norm_residual"], got["momentum_residual"])
            want = ref_docs["docs"][cmd.key]
            if not worst <= SUM_RULE_TOL:
                err = f"sum-rule residual {worst:.3e} (tolerance {SUM_RULE_TOL:g})"
            elif got["n_max"] != want["n_max"]:
                sizes[cmd.config] = f"n_max {want['n_max']} -> {got['n_max']} (size shift)"
            elif abs(got["norm_sum"] - want["norm_sum"]) > SUM_RULE_TOL:
                err = f"norm_sum {got['norm_sum']!r} != reference {want['norm_sum']!r}"
        elif cmd.command == "oracle-check":
            worst = max(got["channels"].values())
            if not worst <= ORACLE_TOL:
                err = f"oracle deviation {worst:.3e} (tolerance {ORACLE_TOL:g})"
            elif got["n_levels"] != ref_docs["docs"][cmd.key]["n_levels"]:
                err = f"oracle levels {got['n_levels']} != {ref_docs['docs'][cmd.key]['n_levels']}"
        else:
            err = _compare_doc(got, ref_docs["docs"][cmd.key], CLOSED_FORM_RTOL)
        if err:
            errors.append(f"{cmd.key}: {err}")
    return errors, sizes


def oracle_deviations(result) -> list[float]:
    """Channel deviations reported by the sweep's oracle-check commands."""
    return [max(doc["channels"].values()) for key, (code, doc) in result.items()
            if key.startswith("oracle-check/") and code == 0]



INPUTS = {"certify": certify_inputs, "envelope": envelope_inputs, "cli-sweep": sweep_inputs}
