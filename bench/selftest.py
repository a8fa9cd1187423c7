"""Fast self-test of the benchmark at tiny sizes (about 15 seconds).

    python3 bench/selftest.py

Runs every workload with tiny inputs, traced and untraced, and asserts that:
every metric of BENCHMARK.json is emitted with its unit and error_rate is 0;
every per-layer metric is non-zero on some workload and has an entry in
layers.json; the outputs of cycle 0 hash the same on two runs with one seed;
deliberately corrupted outputs raise error_rate; and the benchmark exits
non-zero, printing no result, where the source tree is missing.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = 7
TINY = {
    "sample-dprcv1": (
        run.Command("sample_dprcv1_s", "sample", 5, 2, "dprcv1", t=0.5, shots=3000),
    ),
    "exact-sweep": (
        run.Command("exact_dist_s", "exact-dist", 5, 2, t=0.01),
        run.Command("sweep_report_s", "sweep-t", 5, 2, points=6),
    ),
    "cv-samplers": (
        run.Command("sample_prcv1_s", "sample", 4, 2, "prcv1", shots=2000),
        run.Command("sample_cv1_s", "sample", 2, 2, "cv1", shots=100),
    ),
}


def tiny_run(name, trace=False, corrupt=None):
    return run.run_workload(name, TINY[name], SEED, 1, trace, setup_repeats=1, corrupt=corrupt)


def result_line(result, spec, commands):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result, spec, commands)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_emitted(line, metrics):
    assert line["correct"] and line["failed"] == 0, line
    assert line["attempted"] >= 1, line
    for metric in metrics:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (metric, emitted)
        assert isinstance(emitted["value"], float), (metric, emitted)
    assert set(line["metrics"]) == {m["name"] for m in metrics}, line


def drop_last_row(op):
    lines = Path(op.outputs[0]).read_text().splitlines(keepends=True)
    Path(op.outputs[0]).write_text("".join(lines[:-1]))


def flip_first_mode(op):
    """Flip mode 0 of every click pattern: the right shape, the wrong distribution."""
    lines = Path(op.outputs[0]).read_text().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    for i in range(start, len(lines)):
        shot, outcome = lines[i].split(",")
        lines[i] = f"{shot},{'1' if outcome[0] == '0' else '0'}{outcome[1:]}"
    Path(op.outputs[0]).write_text("".join(lines))


def perturb_report(op):
    if op.command.kind != "sweep-t":
        return
    report = json.loads(Path(op.outputs[1]).read_text())
    report["perm_sq_true"] *= 1 + 1e-6
    Path(op.outputs[1]).write_text(json.dumps(report))


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    with open(Path(__file__).with_name("layers.json")) as handle:
        layers = json.load(handle)["layers"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}, "layers.json is out of date"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(TINY)

    nonzero = set()
    digests = {}
    for name, commands in TINY.items():
        result = tiny_run(name, trace=True)
        check_emitted(result_line(result, spec, commands), spec["per_layer"])
        check_emitted(result_line(dict(result, trace=False), spec, commands), spec["end_to_end"])
        assert all(v > 0 for v in result["end_to_end"].values()), result["end_to_end"]
        nonzero |= {k for k, v in result["per_layer"].items() if v}
        digests[name] = result["cycle0_sha256"]
        print(f"ok   {name}: every metric emitted, error_rate 0")
    missing = {m["name"] for m in spec["per_layer"]} - nonzero - {"trace.overhead_ops_per_s"}
    assert not missing, f"per-layer metrics zero on every workload: {sorted(missing)}"

    again = tiny_run("cv-samplers")
    assert again["cycle0_sha256"] == digests["cv-samplers"], "sample hashes differ for one seed"
    print("ok   same seed, same sha256 of the cycle-0 outputs")

    # (workload, corruption, number of ops it must fail)
    corruptions = [(name, drop_last_row, lambda r: r["attempted"]) for name in TINY] + [
        # only the first cycles get the chi-square test that catches this
        ("sample-dprcv1", flip_first_mode, lambda r: min(r["attempted"], run.STAT_CHECKED_CYCLES)),
        # cycles alternate exact-dist and sweep-t; only the sweep's report is perturbed
        ("exact-sweep", perturb_report, lambda r: r["attempted"] // 2),
    ]
    for name, corrupt, expected in corruptions:
        result = tiny_run(name, corrupt=corrupt)
        assert result["failed"] == expected(result), (name, corrupt.__name__, result["errors"])
        print(f"ok   {name}: {corrupt.__name__} raises error_rate to "
              f"{result['failed']}/{result['attempted']}")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sample-dprcv1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok   without src/ the benchmark exits non-zero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
