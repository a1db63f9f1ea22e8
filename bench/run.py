"""landauzb benchmark: one workload per run, timed end to end or per layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that holds ``src/landauzb`` and
``configs``.  Jobs run back to back in this process (closed loop, one
client) after one untimed warm-up, until ``--seconds`` have passed and at
least one job has run.  Times are scaled to a reference machine speed by
``speed.py``'s probe, so that the host's drifting speed does not show in
them; raw wall times go to standard error.  Every job's output is checked;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Details (job times,
resolved sizes, failures) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
BLAS_THREADS = 1  # one CPU per run; see README.md, Steadiness
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_BRACKET = 50  # probes around each set-up spawn, which runs no probe itself
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("certify", "envelope", "cli-sweep")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, workdir: Path, clock) -> float:
    """Median time of a fresh interpreter importing landauzb and building inputs."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir / "setup")]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        token = clock.start()
        spawn(cmd)
        seconds = clock.stop(token)
        if i:  # the first spawn warms the file cache and is not counted
            samples.append(seconds)
    return statistics.median(samples)


def spawn(cmd: list[str]) -> None:
    """Run cmd to its end; kill it after SETUP_TIMEOUT_S.

    The wait blocks in waitpid: subprocess's own timeout polls with sleeps
    of up to 50 ms, which would show as steps in the set-up time.
    """
    proc = subprocess.Popen(cmd)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, cmd)


class Workload:
    """Inputs, warm-up, job and gate of one workload, bound to a seed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import workloads as w

        self.name = name
        self.inputs = w.INPUTS[name](seed, workdir)
        self.capture = None
        if name == "certify":
            self._job, self._check = w.certify_job, w.certify_check
        elif name == "envelope":
            self._job, self._check = w.envelope_job, w.envelope_check
        else:
            self.reference = w.load_sweep_reference()
            self.capture = w.RecordCapture()
            self.capture.install()
            self._job = w.sweep_job
            self._check = lambda inputs, result: w.sweep_check(
                inputs, result, self.capture.records, self.reference)

    def warm_up(self) -> None:
        """First calls pay for lazy imports, BLAS start-up and page faults."""
        import workloads as w

        if self.name == "certify":
            pair = w.critical_field_pair(0.0, t_end=1.0, samples=3)
            coeffs = w.packet_mod.coefficient_matrix(pair.packet, pair.field)
            w.dynamics.trajectory_3p1(pair.packet, coeffs, pair.field, pair.times)
            w.oracle.evolve_expectations(pair.packet, pair.field, pair.times,
                                         n_levels=coeffs.n_max + pair.guard, kz_order=2)
            w.run_pair(w.trap_pair(0.0, 0.0))
        elif self.name == "envelope":
            for sig in self.inputs:
                w.run_signal(w.Signal(sig.label, sig.packet, sig.field, sig.times[:9],
                                      sig.parts, sig.kz_rtol))
        else:
            self._job(self.inputs)

    def job(self):
        return self._job(self.inputs)

    def check(self, result):
        return self._check(self.inputs, result)

    def close(self) -> None:
        if self.capture is not None:
            self.capture.remove()


class Loop:
    """Closed loop over one workload: timings, failures and the last sizes."""

    def __init__(self, workload: Workload, clock=None):
        from speed import WallClock

        self.workload = workload
        self.clock = clock or WallClock()
        self.times: list[float] = []
        self.failed = 0
        self.sizes: dict = {}
        self.results: list = []

    def run(self, seconds: float, keep=False) -> None:
        start = time.perf_counter()
        while not self.times or time.perf_counter() - start < seconds:
            token = self.clock.start()
            try:
                result = self.workload.job()
            except Exception:
                self.times.append(self.clock.stop(token))
                self.failed += 1
                log(f"job failed:\n{traceback.format_exc()}")
                continue
            self.times.append(self.clock.stop(token))
            errors, self.sizes = self.workload.check(result)
            if errors:
                self.failed += 1
                for err in errors:
                    log(f"check failed: {err}")
            if keep:
                self.results.append(result)

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workdir: Path) -> tuple[Loop, dict]:
    from speed import SpeedProbe

    setup_clock = SpeedProbe(SETUP_BRACKET)
    setup_s = setup_seconds(args.workload, args.seed, workdir, setup_clock)
    workload = Workload(args.workload, args.seed, workdir / "run")
    clock = SpeedProbe()
    try:
        workload.warm_up()
        loop = Loop(workload, clock)
        with clock.sampling():
            loop.run(args.seconds)
    finally:
        workload.close()
    log(json.dumps({"setup_wall_s": setup_clock.wall, "setup_speed": setup_clock.speed,
                    "job_wall_s": clock.wall, "job_speed": clock.speed}))
    metrics = {
        "job_s": {"value": loop.median, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }
    return loop, metrics


def per_layer(args, workdir: Path) -> tuple[Loop, dict]:
    import layers

    workload = Workload(args.workload, args.seed, workdir / "run")
    try:
        workload.warm_up()
        plain = Loop(workload)
        plain.run(args.seconds)
        traced = Loop(workload)
        tracer = layers.traced_run(traced, args.seconds)
        metrics = layers.metrics(args.workload, workload, plain, traced, tracer)
    finally:
        workload.close()
    plain.times += traced.times
    plain.failed += traced.failed
    return plain, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "landauzb" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        log(f"bench: {ROOT} holds no landauzb source tree (src/landauzb, configs)")
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]
    warnings.simplefilter("ignore")

    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            run = per_layer if args.trace else end_to_end
            loop, metrics = run(args, Path(tmp))
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    log(json.dumps({
        "workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
        "jobs": len(loop.times), "job_times_s": loop.times, "sizes": loop.sizes,
    }, default=str))
    attempted = len(loop.times)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
