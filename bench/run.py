"""End-to-end and per-layer benchmark of the cvboson command line.

Each workload is a closed loop with one client in one fresh Python process:
an op is one in-process call of `cvboson.cli.main(argv)` with `--threads 1`,
and the next op starts when the previous one returns. Ops run in whole
cycles (the workload's command sequence) until `--seconds` have passed.
Every op reads its own freshly generated Haar unitary, so
no in-process cache can profit from a repeated input that a real CLI user,
who starts a new process per command, would never repeat.

    python3 bench/run.py --workload sample-dprcv1 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the last output line is a JSON object holding every
end-to-end metric of BENCHMARK.json. With --trace 1 untraced and traced
cycles alternate, and the last line holds every per-layer metric.
`--workload all` runs every workload traced, each in its own process, which
prints every metric of both kinds by name with its unit. Output checks run
after the timed window and count towards `failed`.
"""

import os

# One BLAS thread, like the one-client, one-thread CLI ops; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so file names in outputs do not depend on it

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cvboson
from cvboson.io import read_unitary_json
matrix, _ = read_unitary_json(sys.argv[2])
cvboson.check_unitary(matrix)
elapsed = time.perf_counter() - start
if not cvboson.__file__.startswith(sys.argv[1]):
    raise SystemExit("cvboson was imported from " + cvboson.__file__)
print(repr(elapsed))
"""


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload cycle; `label` names its median wall time."""

    label: str
    kind: str  # "sample", "exact-dist" or "sweep-t"
    modes: int
    photons: int
    detector: str = ""
    t: float | None = None
    shots: int = 0
    points: int = 0


WORKLOADS = {
    "sample-dprcv1": (
        Command("sample_dprcv1_s", "sample", 12, 4, "dprcv1", t=0.01, shots=200_000),
    ),
    "exact-sweep": (
        Command("exact_dist_s", "exact-dist", 12, 4, t=0.01),
        Command("sweep_report_s", "sweep-t", 12, 4, points=12),
    ),
    "cv-samplers": (
        Command("sample_prcv1_s", "sample", 8, 4, "prcv1", shots=10_000),
        Command("sample_cv1_s", "sample", 4, 3, "cv1", shots=20),
    ),
}
SETUP_REPEATS = 5
# Inputs are generated before timing for at most this many cycles per second
# of window; a window that uses them all up ends early.
MAX_CYCLES_PER_SECOND = 4
# Samples of the first cycles get the chi-square test against the exact table,
# which costs as much as the op; every op gets the other checks. A sampler
# defect shows in every op, and the bound keeps the run inside its time budget.
STAT_CHECKED_CYCLES = 4


@dataclass
class Op:
    index: int
    cycle: int
    command: Command
    u: object
    argv: list
    outputs: list
    code: int | None = None
    wall: float = 0.0
    error: str = ""
    sha256: dict = field(default_factory=dict)


def _seed10(rng):
    """A 10-digit seed, so seeds printed into CSV headers have a fixed width."""
    return int(rng.integers(10**9, 10**10))


def make_ops(commands, rng, cycles, workdir):
    """Write one fresh Haar unitary per command per op and build each op's argv."""
    from cvboson.fock import haar_unitary
    from cvboson.io import write_unitary_json

    ops = []
    for cycle in range(cycles):
        for command in commands:
            index = len(ops)
            stem = f"{workdir}/op{index:05d}"
            unitary_seed = _seed10(rng)
            u = haar_unitary(command.modes, unitary_seed)
            write_unitary_json(f"{stem}.json", u, meta={"seed": unitary_seed})
            argv = [command.kind, "--unitary", f"{stem}.json", "--photons", str(command.photons)]
            outputs = [f"{stem}.csv"]
            if command.kind == "sample":
                argv += ["--detector", command.detector]
                if command.t is not None:
                    argv += ["--t", repr(command.t)]
                argv += ["--shots", str(command.shots), "--seed", str(_seed10(rng)),
                         "--threads", "1"]
            elif command.kind == "exact-dist":
                argv += ["--t", repr(command.t)]
            else:
                outputs.append(f"{stem}.report.json")
                argv += ["--points", str(command.points), "--report", outputs[1]]
            argv += ["--out", outputs[0]]
            ops.append(Op(index, cycle, command, u, argv, outputs))
    return ops


def timed_window(ops, per_cycle, seconds, call, min_cycles=1):
    """Run whole cycles of ops until `seconds` have passed; returns the ops run."""
    done = []
    start = time.perf_counter()
    for first in range(0, len(ops), per_cycle):
        for op in ops[first:first + per_cycle]:
            t0 = time.perf_counter()
            op.code = call(op)
            op.wall = time.perf_counter() - t0
            done.append(op)
        if time.perf_counter() - start >= seconds and len(done) >= min_cycles * per_cycle:
            break
    return done


def _call_main(op, recorder=None):
    """One op: cvboson.cli.main(argv), traced by `recorder` when one is given."""
    import cvboson.cli

    try:
        if recorder is None:
            return cvboson.cli.main(op.argv)
        recorder.install()
        try:
            return recorder.run_op(op.index, cvboson.cli.main, op.argv)
        finally:
            recorder.uninstall()
    except Exception:  # an op that raises is a failed op; the loop goes on
        op.error = traceback.format_exc(limit=3)
        return None


def ops_per_s(ops, per_cycle):
    """Ops completed per second, at the median wall time of a whole cycle.

    A median rather than the window mean, so that one op caught in a slow
    spell of the shared host does not move the run's figure.
    """
    cycles = {}
    for op in ops:
        cycles[op.cycle] = cycles.get(op.cycle, 0.0) + op.wall
    return per_cycle / statistics.median(cycles.values())


def check_op(op):
    """Run the output checks of one op; sets op.error when the op failed."""
    import checks

    if op.code != 0:
        op.error = op.error or f"exit code {op.code}"
        return
    command = op.command
    try:
        op.sha256 = {Path(p).name: checks.sha256(p) for p in op.outputs}
        if command.kind == "sample":
            checks.check_sample(op.outputs[0], command.detector, op.u, command.photons,
                                command.shots, command.t,
                                statistical=op.cycle < STAT_CHECKED_CYCLES)
        elif command.kind == "exact-dist":
            checks.check_exact_dist(op.outputs[0], op.u, command.photons, command.t)
        else:
            checks.check_sweep(op.outputs[0], op.outputs[1], op.u, command.photons,
                               command.points)
    except Exception as exc:  # a check that cannot run fails its op; the others still run
        op.error = f"{type(exc).__name__}: {exc}"


def setup_times(unitary_path, repeats):
    """Seconds to import cvboson and read and validate a unitary, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), unitary_path],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def tail_percentile(values):
    """(q, value) for the highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100)[q - 1]


def machine_info():
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cvboson").rglob("*.py")))


def run_workload(name, commands, seed, seconds, trace, setup_repeats=SETUP_REPEATS,
                 corrupt=None):
    """Set up, run the timed window, check every op, and return the results.

    `corrupt`, if given, is called on each op before its checks (self-test).
    """
    import numpy as np

    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    per_cycle = len(commands)
    ops = make_ops(commands, rng, max(2, int(MAX_CYCLES_PER_SECOND * seconds)), workdir)
    setup = setup_times(ops[0].argv[2], setup_repeats)

    # A traced run alternates untraced and traced cycles, so drifts in machine
    # speed fall on both alike and their difference is the tracing overhead.
    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder()

    def traced(op):
        return trace and op.cycle % 2 == 1

    done = timed_window(ops, per_cycle, seconds,
                        lambda op: _call_main(op, recorder if traced(op) else None),
                        min_cycles=2 if trace else 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = [op for op in done if not traced(op)]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), "src_lines": src_lines(),
        "setup_s_samples": setup, "window_s": sum(op.wall for op in plain), "ops": len(plain),
        "cycles": len(plain) // per_cycle,
        "op_wall_s": {c.label: [op.wall for op in plain if op.command is c] for c in commands},
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_per_s(plain, per_cycle),
            "first_cmd_s": statistics.median(op.wall for op in plain if op.command is commands[0]),
            "last_cmd_s": statistics.median(op.wall for op in plain if op.command is commands[-1]),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        recorder.write(workdir / "spans.json")
        traced_ops = [op for op in done if traced(op)]
        result["traced_ops_per_s"] = ops_per_s(traced_ops, per_cycle)
        result["per_layer"] = per_layer_metrics(recorder, traced_ops)
        result["per_layer"]["trace.overhead_ops_per_s"] = (
            result["traced_ops_per_s"] - result["end_to_end"]["ops_per_s"])

    for op in done:
        if corrupt is not None:
            corrupt(op)
        check_op(op)
    result["attempted"] = len(done)
    result["failed"] = sum(1 for op in done if op.error)
    result["errors"] = [f"op {op.index} ({op.argv[0]}): {op.error}"
                        for op in done if op.error]
    result["sha256"] = {op.index: op.sha256 for op in done}
    result["cycle0_sha256"] = _digest([op.sha256 for op in done if op.cycle == 0])

    for op in ops:
        for path in [op.argv[2]] + op.outputs:
            Path(path).unlink(missing_ok=True)
    with open(workdir / "result.json", "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def _digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def per_layer_metrics(recorder, ops):
    """Median over whole cycles of each layer's per-cycle total."""
    per_op = recorder.per_op()
    by_cycle = {}
    for op in ops:
        totals = by_cycle.setdefault(op.cycle, {})
        for metric, value in per_op.get(op.index, {}).items():
            totals[metric] = totals.get(metric, 0.0) + value
    names = set().union(*by_cycle.values()) if by_cycle else set()
    metrics = {name: statistics.median(c.get(name, 0.0) for c in by_cycle.values())
               for name in names}
    ratios = [
        c.get("distribution.amplitude_table.distinct", 0.0) / c["distribution.amplitude_table.calls"]
        for c in by_cycle.values() if c.get("distribution.amplitude_table.calls")
    ]
    if ratios:
        metrics["distribution.amplitude_table.reuse_ratio"] = statistics.median(ratios)
    metrics["trace.cycles"] = len(by_cycle)
    return metrics


# Per-layer counts the tracer derives from arguments or files rather than observes.
COMPUTED = {
    "permanent.ops": "computed as sum of (2^n - 1) n over Ryser calls",
    "rng.uniforms": "computed as shots x per_shot over shot_uniforms calls",
    "io.write_csv.bytes": "computed from the written file sizes",
    "sampler.shots": "taken from the sampler's shots argument",
}


def report(result, spec, commands):
    """Print every metric by name with its unit, then the JSON result line."""
    e2e = result["end_to_end"]
    machine = result["machine"]
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']}")
    print(f"src lines: {result['src_lines']} (informational, not a gated metric)")
    print(f"workload {result['workload']}: closed loop, one client, --threads 1, "
          f"{result['ops']} untraced ops in {result['cycles']} cycles, {result['window_s']:.2f} s")
    print(f"  setup_s = {e2e['setup_s']:.4f} s (median of {len(result['setup_s_samples'])} "
          "fresh interpreters)")
    print(f"  ops_per_s = {e2e['ops_per_s']:.4f} 1/s ({len(commands)} ops / median cycle wall "
          f"of {result['cycles']} cycles; window mean {result['ops'] / result['window_s']:.4f})")
    for position, command in (("first_cmd_s", commands[0]), ("last_cmd_s", commands[-1])):
        walls = result["op_wall_s"][command.label]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                     else "no tail percentile: fewer than 11 samples")
        print(f"  {position} = {command.label} = {e2e[position]:.4f} s (median of {len(walls)}, "
              f"min {min(walls):.4f}, max {max(walls):.4f}; {tail_text})")
    print(f"  peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB (ru_maxrss of this process"
          f"{', tracer included' if result['trace'] else ''})")
    print(f"  error_rate = {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    for line in result["errors"][:10]:
        print(f"  FAILED {line.strip()}")
    print(f"  sha256 of cycle 0 outputs: {result['cycle0_sha256']}")

    if result["trace"]:
        layers = result["per_layer"]
        print(f"per-layer: median per traced cycle over {layers['trace.cycles']} cycles")
        for metric in spec["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            value = layers.get(name)
            if value is None:
                print(f"  {name} = 0 {unit} (absent: not on this workload's path)")
                continue
            note = ""
            if name == "distribution.amplitude_table.reuse_ratio":
                note = (f" = {layers.get('distribution.amplitude_table.distinct', 0):g} distinct "
                        f"(U, N) / {layers['distribution.amplitude_table.calls']:g} calls")
            elif name in COMPUTED:
                note = f" ({COMPUTED[name]})"
            elif name == "trace.overhead_ops_per_s":
                note = (f" (traced {result['traced_ops_per_s']:.4f} minus "
                        f"untraced {e2e['ops_per_s']:.4f} ops/s, alternate cycles)")
            print(f"  {name} = {value:.6g} {unit}{note}")
        print("  povm, verify: not on any workload's path; no numbers are reported for them")
        kind, values = "per_layer", result["per_layer"]
    else:
        kind, values = "end_to_end", e2e
    # a per-layer metric with no span on this workload's path reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0) if result["trace"]
                                          else values[m["name"]]), "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "cvboson" / "__init__.py").is_file():
        print(f"error: no cvboson source tree at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import cvboson

    if not Path(cvboson.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: cvboson was imported from {cvboson.__file__}", file=sys.stderr)
        return 2

    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            done = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", "1"], check=False)
            code = code or done.returncode
        return code

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    commands = WORKLOADS[args.workload]
    result = run_workload(args.workload, commands, args.seed, args.seconds, bool(args.trace))
    report(result, spec, commands)
    return 0


if __name__ == "__main__":
    sys.exit(main())
