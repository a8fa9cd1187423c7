"""Tests for file formats and the command-line interface."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvboson import cli, fock, sampler
from cvboson.cli import main
from cvboson.distribution import distribution_table
from cvboson.errors import SIZE_LIMITS
from cvboson.estimate import SweepFit
from cvboson.fock import haar_unitary
from cvboson.io import fmt17, read_unitary_json, write_csv, write_unitary_json
from cvboson.povm import detector_curves
from cvboson.sampler import SampleBatch
from cvboson.special import dark_count_probability, detector_efficiency


def _read_csv(path):
    """Read a CSV written by write_csv; returns (metadata dict, header, rows of strings)."""
    meta = {}
    rows = []
    header = None
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
        handle.seek(0)
        reader = csv.reader(row for row in handle if not row.startswith("#"))
        for record in reader:
            if header is None:
                header = record
            else:
                rows.append(record)
    return meta, header, rows


class TestUnitaryJson:
    def test_round_trip_is_bit_exact(self, tmp_path):
        u = haar_unitary(5, 77)
        path = tmp_path / "u.json"
        write_unitary_json(path, u, meta={"seed": 77})
        back, meta = read_unitary_json(path)
        assert np.array_equal(back, u)
        assert meta["seed"] == 77

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"modes": 2, "re": [[1, 0]], "im": [[0, 0]]}')
        with pytest.raises(ValueError):
            read_unitary_json(path)


class TestCsv:
    def test_metadata_and_full_precision(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 1 / 3
        write_csv(path, ["a", "b"], [f"1,{fmt17(value)}\r\n"], {"seed": 5})
        meta, header, rows = _read_csv(path)
        assert meta["seed"] == "5"
        assert "version" in meta
        assert header == ["a", "b"]
        assert float(rows[0][1]) == value  # 17 significant digits round-trip

    def test_fmt17_round_trips_doubles(self):
        rng = np.random.default_rng(1)
        for x in rng.standard_normal(50):
            assert float(fmt17(float(x))) == float(x)


class TestCli:
    def test_gen_unitary_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen-unitary", "--modes", "4", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen-unitary", "--modes", "4", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        u, meta = read_unitary_json(a)
        assert meta["seed"] == 7
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    def test_exact_dist_normalized(self, tmp_path):
        upath = tmp_path / "u.json"
        main(["gen-unitary", "--modes", "4", "--seed", "3", "--out", str(upath)])
        out = tmp_path / "dist.csv"
        code = main(
            [
                "exact-dist",
                "--unitary",
                str(upath),
                "--photons",
                "2",
                "--t",
                "0.01",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        meta, header, rows = _read_csv(out)
        assert header == ["pattern", "probability"]
        assert len(rows) == 16
        assert rows[0][0] == "0000"  # lexicographic pattern order
        total = sum(float(r[1]) for r in rows)
        assert abs(total - 1) <= 1e-10
        assert meta["t"] == fmt17(0.01)

    def test_sample_reproducible_and_thread_stable(self, tmp_path):
        upath = tmp_path / "u.json"
        main(["gen-unitary", "--modes", "3", "--seed", "5", "--out", str(upath)])
        files = []
        for name, threads in (("s1.csv", "1"), ("s2.csv", "1"), ("s4.csv", "4")):
            out = tmp_path / name
            code = main(
                [
                    "sample",
                    "--unitary",
                    str(upath),
                    "--photons",
                    "2",
                    "--detector",
                    "dprcv1",
                    "--t",
                    "0.1",
                    "--shots",
                    "500",
                    "--seed",
                    "11",
                    "--threads",
                    threads,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2]
        meta, header, rows = _read_csv(tmp_path / "s1.csv")
        assert header == ["shot", "outcome"]
        assert meta["seed"] == "11" and meta["detector"] == "dprcv1"
        assert set(rows[0][1]) <= {"0", "1"}

    def test_sample_prcv_and_cv_outcome_formats(self, tmp_path):
        upath = tmp_path / "u.json"
        main(["gen-unitary", "--modes", "2", "--seed", "2", "--out", str(upath)])
        out = tmp_path / "r.csv"
        main(
            [
                "sample",
                "--unitary",
                str(upath),
                "--photons",
                "1",
                "--detector",
                "prcv1",
                "--shots",
                "20",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        _, _, rows = _read_csv(out)
        radii = [float(x) for x in rows[0][1].split(",")]
        assert len(radii) == 2 and all(r >= 0 for r in radii)
        out2 = tmp_path / "c.csv"
        main(
            [
                "sample",
                "--unitary",
                str(upath),
                "--photons",
                "1",
                "--detector",
                "cv1",
                "--shots",
                "10",
                "--seed",
                "4",
                "--out",
                str(out2),
            ]
        )
        _, _, rows2 = _read_csv(out2)
        parts = [float(x) for x in rows2[0][1].split(",")]
        assert len(parts) == 4  # re, im per mode

    def test_detector_curves_file(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            ["detector-curves", "--t-max", "3", "--points", "301", "--out", str(out)]
        )
        assert code == 0
        _, header, rows = _read_csv(out)
        assert header == ["t", "eta", "p_dark"]
        assert len(rows) == 301
        t_values = np.array([float(r[0]) for r in rows])
        eta = np.array([float(r[1]) for r in rows])
        p_dark = np.array([float(r[2]) for r in rows])
        np.testing.assert_allclose(eta, detector_efficiency(t_values), rtol=1e-15)
        np.testing.assert_allclose(p_dark, dark_count_probability(t_values), rtol=1e-15)

    def test_sweep_csv_and_report(self, tmp_path):
        upath = tmp_path / "u.json"
        main(["gen-unitary", "--modes", "1", "--seed", "9", "--out", str(upath)])
        out = tmp_path / "sweep.csv"
        report = tmp_path / "report.json"
        code = main(
            [
                "sweep-t",
                "--unitary",
                str(upath),
                "--photons",
                "1",
                "--t-min",
                "1e-4",
                "--t-max",
                "1e-2",
                "--points",
                "8",
                "--out",
                str(out),
                "--report",
                str(report),
            ]
        )
        assert code == 0
        meta, header, rows = _read_csv(out)
        assert header == ["t", "p_exact", "p_over_tN", "delta"]
        assert len(rows) == 8
        assert abs(float(meta["linear_coeff"]) + 1.5) < 0.02
        for row in rows:
            t, p_exact, ratio, delta = map(float, row)
            assert p_exact == pytest.approx(ratio * t, rel=1e-12)
        payload = json.loads(report.read_text())
        assert payload["perm_sq_true"] == pytest.approx(1.0, abs=1e-12)
        assert payload["effective_factor_g_prime"] == pytest.approx(
            (1 + 2 * abs(payload["error_term_E"]) / payload["lower_bound_L"])
            * payload["mult_factor_g"],
            rel=1e-12,
        )

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CVBOSON_SEED", "123")
        out = tmp_path / "u.json"
        assert main(["gen-unitary", "--modes", "2", "--out", str(out)]) == 0
        _, meta = read_unitary_json(out)
        assert meta["seed"] == 123

    def test_exit_code_usage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CVBOSON_SEED", raising=False)
        assert main(["gen-unitary", "--modes", "2", "--out", str(tmp_path / "u.json")]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["sample", "--unitary", "missing.json", "--photons", "1",
                     "--detector", "fock", "--shots", "1", "--seed", "0",
                     "--out", str(tmp_path / "o.csv")]) == 1
        capsys.readouterr()

    def test_exit_code_guard(self, tmp_path, capsys):
        upath = tmp_path / "big.json"
        main(["gen-unitary", "--modes", "13", "--seed", "0", "--out", str(upath)])
        code = main(
            [
                "exact-dist",
                "--unitary",
                str(upath),
                "--photons",
                "1",
                "--t",
                "0.1",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_non_unitary_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        path.write_text(
            json.dumps(
                {"modes": 2, "re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]}
            )
        )
        code = main(
            [
                "exact-dist",
                "--unitary",
                str(path),
                "--photons",
                "1",
                "--t",
                "0.1",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1
        capsys.readouterr()

    def test_exact_dist_stdout(self, tmp_path, capsys):
        upath = tmp_path / "u.json"
        main(["gen-unitary", "--modes", "2", "--seed", "1", "--out", str(upath)])
        code = main(["exact-dist", "--unitary", str(upath), "--photons", "1", "--t", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        total = sum(float(line.split(",")[1]) for line in lines)
        assert abs(total - 1) <= 1e-10

    def test_verify_quick_passes_on_clean_build(self, capsys):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out

    def test_verify_failure_maps_to_invariant_exit_code(self, monkeypatch, capsys):
        from cvboson import cli
        from cvboson.verify import CheckResult

        monkeypatch.setattr(
            cli,
            "run_checks",
            lambda level: [CheckResult("doomed", False, "synthetic failure", 0.0)],
        )
        assert main(["verify", "--level", "quick"]) == 3
        capsys.readouterr()

    def test_rerun_from_header_metadata_reproduces_file(self, tmp_path):
        upath = tmp_path / "u.json"
        main(["gen-unitary", "--modes", "3", "--seed", "6", "--out", str(upath)])
        first = tmp_path / "first.csv"
        main(
            [
                "sample",
                "--unitary",
                str(upath),
                "--photons",
                "1",
                "--detector",
                "dprcv1",
                "--t",
                "0.25",
                "--shots",
                "100",
                "--seed",
                "42",
                "--out",
                str(first),
            ]
        )
        meta, _, _ = _read_csv(first)
        second = tmp_path / "second.csv"
        main(
            [
                "sample",
                "--unitary",
                meta["unitary"],
                "--photons",
                meta["photons"],
                "--detector",
                meta["detector"],
                "--t",
                meta["t"],
                "--shots",
                meta["shots"],
                "--seed",
                meta["seed"],
                "--out",
                str(second),
            ]
        )
        assert first.read_bytes() == second.read_bytes()


# sha256 of small seeded output files, pinned before the sample, exact-dist and
# sweep paths were vectorised. A new summation order in the exact pattern sums
# moves the last digits of the exact-dist and sweep-t outputs; any other change
# to their bytes is a format change.
GOLDEN_OUTPUTS = {
    "fock": (
        ["sample", "--photons", "2", "--detector", "fock", "--shots", "300", "--seed", "11"],
        {"out.csv": "c71982afd767d6645759788d44721fb2aabd99e1d7569e1315ea6978deebc003"},
    ),
    "dprcv1": (
        ["sample", "--photons", "3", "--detector", "dprcv1", "--t", "0.2",
         "--shots", "300", "--seed", "12"],
        {"out.csv": "05cedb6a495a695e7104ba590b1a731dfb2484cff9c746c5e1a188b876c5aac6"},
    ),
    "prcv1": (
        ["sample", "--photons", "2", "--detector", "prcv1", "--shots", "40", "--seed", "13"],
        {"out.csv": "305ea18419a2cb073bce1a0bf84932d01d90a8eb85e0a97856df3b6ac0fdcf96"},
    ),
    "cv1": (
        ["sample", "--photons", "2", "--detector", "cv1", "--shots", "4", "--seed", "14"],
        {"out.csv": "7e9808377dbd6ab49f5ce4682b562799324a2107954342e1b6f812daa3e17ff6"},
    ),
    "exact-dist": (
        ["exact-dist", "--photons", "3", "--t", "0.05"],
        {"out.csv": "f35c83861d27e85d0f629d38d50ed026c30ec3a6e07dc0057c548c220bc03923"},
    ),
    "sweep-t": (
        ["sweep-t", "--photons", "3", "--report", "report.json"],
        {"out.csv": "6366509b9d2b427cf4fac2936ffb9870f08726afdf2355b127084076c3dc11c3",
         "report.json": "f5a4001e0b5328f594cae3032884a1ff0034a58e759f6372120557737077e29a"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_output_bytes_match_golden_hash(name, tmp_path, monkeypatch):
    # relative paths keep the `unitary=` header line independent of tmp_path
    monkeypatch.chdir(tmp_path)
    modes = "3" if name == "cv1" else "5"
    assert main(["gen-unitary", "--modes", modes, "--seed", "3", "--out", "u.json"]) == 0
    argv, digests = GOLDEN_OUTPUTS[name]
    argv = argv[:1] + ["--unitary", "u.json"] + argv[1:] + ["--out", "out.csv"]
    assert main(argv) == 0
    for path, digest in digests.items():
        assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest, path


def _csv_writer_lines(kind, outcomes):
    """The sample rows as csv.writer renders them, one Python call per cell."""
    rows = []
    for shot, row in enumerate(outcomes):
        if kind == "dprcv1":
            cell = "".join(str(int(x)) for x in row)
        elif kind == "fock":
            cell = ",".join(str(int(x)) for x in row)
        elif kind == "prcv1":
            cell = ",".join(fmt17(x) for x in row)
        else:
            cell = ",".join(f"{fmt17(x.real)},{fmt17(x.imag)}" for x in row)
        rows.append([shot, cell])
    return _csv_writer_text(rows)


@pytest.mark.parametrize("kind", ["dprcv1", "fock", "prcv1", "cv1"])
@pytest.mark.parametrize("modes", [1, 2, 5])
def test_chunked_outcome_lines_match_csv_writer(kind, modes):
    # 97-shot blocks make the shot numbers cross 10, 100 and 1000 within and
    # across blocks
    rng = np.random.default_rng(modes)
    shots = 1203
    if kind == "dprcv1":
        outcomes = rng.integers(0, 2, (shots, modes))
    elif kind == "fock":
        outcomes = rng.integers(0, 5, (shots, modes))
    else:
        scale = 10.0 ** rng.integers(-30, 30, (shots, 2 * modes))
        values = rng.standard_normal((shots, 2 * modes)) * scale
        values[0, 0], values[1, -1] = -0.0, 1e308
        outcomes = np.abs(values[:, :modes]) if kind == "prcv1" else values.view(complex)
    blocks = [(first, outcomes[first : first + 97]) for first in range(0, shots, 97)]
    batch = SampleBatch(0, None, kind, shots, modes, lambda: iter(blocks))
    lines = "".join(cli._outcome_lines(batch)).splitlines(keepends=True)
    assert lines == _csv_writer_lines(kind, outcomes).splitlines(keepends=True)


def test_sample_memory_does_not_grow_with_shots(tmp_path):
    # each block is formatted and written as it is drawn, so four times the
    # shots keep the same peak; holding every shot grew it about fourfold
    upath = tmp_path / "u.json"
    write_unitary_json(upath, haar_unitary(4, 5))
    peaks = []
    for shots in (100_000, 400_000):
        argv = ["sample", "--unitary", str(upath), "--photons", "2", "--detector", "dprcv1",
                "--t", "0.1", "--shots", str(shots), "--seed", "1", "--out",
                str(tmp_path / "s.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_sweep_report_shots_beyond_outcome_limit(tmp_path, monkeypatch):
    # the frequency estimator counts hits block by block and never holds the
    # batch's outcomes, so their size limit does not bound --shots
    monkeypatch.setitem(SIZE_LIMITS, "sample outcome values", 100)
    upath = tmp_path / "u.json"
    write_unitary_json(upath, haar_unitary(4, 5))
    argv = ["sweep-t", "--unitary", str(upath), "--photons", "2", "--out",
            str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"), "--shots", "5000",
            "--seed", "1"]
    assert main(argv) == 0
    assert json.loads((tmp_path / "r.json").read_text())["perm_sq_estimate"] >= 0


_BEAM_SPLITTER = np.array([[1, 1], [1, -1]]) / np.sqrt(2)  # |Per|^2 = 0 at two photons


@pytest.mark.parametrize(
    "u,flags,message",
    [
        (haar_unitary(4, 5), ["--lower-bound", "0"], "lower bound must be positive"),
        (haar_unitary(4, 5), ["--lower-bound", "-1"], "lower bound must be positive"),
        (haar_unitary(4, 5), ["--lower-bound", "1000"], "is below its lower bound"),
        (haar_unitary(4, 5), ["--g", "0.5"], "multiplicative factor must exceed 1"),
        (_BEAM_SPLITTER, [], "lower bound must be positive, got 0.0"),
    ],
    ids=["zero-L", "negative-L", "L-above-perm-sq", "g-below-one", "zero-permanent"],
)
def test_invalid_report_input_is_usage_error(u, flags, message, tmp_path, capsys):
    # the report is built before either file is written, so a failure leaves neither
    upath, out, report = tmp_path / "u.json", tmp_path / "s.csv", tmp_path / "r.json"
    write_unitary_json(upath, u)
    argv = ["sweep-t", "--unitary", str(upath), "--photons", "2", "--out", str(out),
            "--report", str(report)]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists() and not report.exists()


def test_sample_with_no_shots_writes_header_only(tmp_path):
    upath = tmp_path / "u.json"
    main(["gen-unitary", "--modes", "3", "--seed", "5", "--out", str(upath)])
    out = tmp_path / "s.csv"
    assert main(["sample", "--unitary", str(upath), "--photons", "1", "--detector",
                 "dprcv1", "--t", "0.1", "--shots", "0", "--seed", "1", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["shot", "outcome"] and rows == []


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--detector", "fock", "--shots", "-1"], "shots must be >= 0"),
        (["--detector", "dprcv1", "--t", "0.1", "--shots", "-1"], "shots must be >= 0"),
        (["--detector", "prcv1", "--shots", "-1"], "shots must be >= 0"),
        (["--detector", "cv1", "--shots", "-1"], "shots must be >= 0"),
        (["--detector", "dprcv1", "--t", "inf", "--shots", "5"], "positive and finite"),
        (["--detector", "dprcv1", "--t", "nan", "--shots", "5"], "positive and finite"),
        (["--detector", "dprcv1", "--shots", "5"], "--t is required for the dprcv1 detector"),
        (["--detector", "fock", "--t", "0.3", "--shots", "5"],
         "--t is not read by fock, only by the dprcv1 detector"),
        (["--detector", "prcv1", "--t", "0.3", "--shots", "5"],
         "--t is not read by prcv1, only by the dprcv1 detector"),
        (["--detector", "cv1", "--t", "0.3", "--shots", "5"],
         "--t is not read by cv1, only by the dprcv1 detector"),
        (["--detector", "fock", "--shots", "5", "--threads", "0"],
         "threads must be a positive integer"),
        (["--detector", "cv1", "--shots", "5", "--threads", "-3"],
         "threads must be a positive integer"),
        (["--detector", "dprcv1", "--t", "0.1", "--shots", "5", "--threads", "0"],
         "threads must be a positive integer"),
        (["--detector", "fock", "--shots", "5", "--photons", "-1"], "photons must be >= 0"),
        (["--detector", "dprcv1", "--t", "0.1", "--shots", "5", "--photons", "-1"],
         "photons must be >= 0"),
    ],
)
def test_invalid_sample_input_is_usage_error(flags, message, tmp_path, capsys):
    upath = tmp_path / "u.json"
    main(["gen-unitary", "--modes", "2", "--seed", "5", "--out", str(upath)])
    capsys.readouterr()
    out = tmp_path / "s.csv"
    argv = ["sample", "--unitary", str(upath), "--photons", "1", "--seed", "1", "--out", str(out)]
    assert main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--shots", "100"], "--shots only apply with --report"),
        (["--g", "0.5"], "--g only apply with --report"),
        (["--lower-bound", "-3"], "--lower-bound only apply with --report"),
        (["--shots", "100", "--seed", "1", "--g", "2", "--lower-bound", "1e-3"],
         "--shots, --g, --lower-bound only apply with --report"),
        (["--seed", "1"], "--seed is only read with a nonzero --shots"),
        (["--seed", "1", "--report", "r.json"], "--seed is only read with a nonzero --shots"),
        (["--seed", "1", "--shots", "0", "--report", "r.json"],
         "--seed is only read with a nonzero --shots"),
    ],
    ids=["shots", "g", "lower-bound", "all", "seed", "seed-with-report", "seed-zero-shots"],
)
def test_sweep_flag_nothing_reads_is_usage_error(flags, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_unitary_json("u.json", haar_unitary(4, 5))
    argv = ["sweep-t", "--unitary", "u.json", "--photons", "2", "--out", "s.csv"]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "r.json").exists()


def test_exact_dist_rejects_infinite_threshold(tmp_path, capsys):
    upath = tmp_path / "u.json"
    main(["gen-unitary", "--modes", "2", "--seed", "5", "--out", str(upath)])
    assert main(["exact-dist", "--unitary", str(upath), "--photons", "1", "--t", "inf"]) == 1
    assert "positive and finite" in capsys.readouterr().err


def test_sweep_beyond_pattern_limit_is_guard_violation(tmp_path, capsys):
    # 5 photons in 16 modes have C(20, 5) = 15504 occupation patterns
    upath = tmp_path / "u.json"
    main(["gen-unitary", "--modes", "16", "--seed", "3", "--out", str(upath)])
    out = tmp_path / "s.csv"
    assert main(["sweep-t", "--unitary", str(upath), "--photons", "5", "--out", str(out)]) == 2
    assert "guard violation" in capsys.readouterr().err
    assert not out.exists()


def test_unitary_beyond_mode_limit_is_guard_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(SIZE_LIMITS, "unitary modes", 4)
    monkeypatch.setattr(fock, "gaussian_matrix", lambda *args: pytest.fail("drew a matrix"))
    out = tmp_path / "u.json"
    assert main(["gen-unitary", "--modes", "5", "--seed", "3", "--out", str(out)]) == 2
    assert "guard violation: unitary modes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_honour_the_umask(umask, mode, tmp_path):
    upath, out = tmp_path / "u.json", tmp_path / "s.csv"
    sweep, report = tmp_path / "sweep.csv", tmp_path / "r.json"
    previous = os.umask(umask)
    try:
        assert main(["gen-unitary", "--modes", "2", "--seed", "5", "--out", str(upath)]) == 0
        assert main(["sample", "--unitary", str(upath), "--photons", "1", "--detector", "fock",
                     "--shots", "3", "--seed", "1", "--out", str(out)]) == 0
        assert main(["sweep-t", "--unitary", str(upath), "--photons", "1", "--out", str(sweep),
                     "--report", str(report)]) == 0
    finally:
        os.umask(previous)
    paths = (upath, out, sweep, report)
    assert [path.stat().st_mode & 0o777 for path in paths] == [mode] * 4


@pytest.mark.parametrize(
    "flags",
    [
        ["exact-dist", "--photons", "1", "--t", "0.1"],
        ["sample", "--photons", "1", "--detector", "dprcv1", "--t", "0.1", "--shots", "5",
         "--seed", "1"],
        ["sample", "--photons", "1", "--detector", "fock", "--shots", "5", "--seed", "1"],
        ["sweep-t", "--photons", "1", "--report", "r.json"],
    ],
    ids=["exact-dist", "sample-dprcv1", "sample-fock", "sweep-t"],
)
def test_nan_unitary_is_usage_error(flags, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # json writes and reads the bare token NaN, so a unitary file can hold it
    nan_row = [float("nan"), 0.0]
    (tmp_path / "u.json").write_text(json.dumps({"modes": 2, "re": [nan_row, [0.0, 1.0]],
                                                 "im": [[0.0, 0.0], [0.0, 0.0]], "seed": 1}))
    assert main(flags[:1] + ["--unitary", "u.json", "--out", "out.csv"] + flags[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix is not unitary") and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("photons", ["-1", "5"])
def test_sweep_photons_outside_zero_to_modes_is_usage_error(photons, tmp_path, capsys):
    upath, out = tmp_path / "u.json", tmp_path / "s.csv"
    write_unitary_json(upath, haar_unitary(4, 5))
    argv = ["sweep-t", "--unitary", str(upath), "--photons", photons, "--out", str(out)]
    assert main(argv) == 1
    assert "error: photons must be >= 0 and <= M, got N=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,keys",
    [
        (["detector-curves", "--points", "3"], ["command", "t_max", "points", "version"]),
        (["exact-dist", "--unitary", "plain.json", "--photons", "1", "--t", "0.1"],
         ["command", "unitary", "photons", "t", "detector", "version"]),
        (["sample", "--unitary", "seeded.json", "--photons", "1", "--detector", "prcv1",
          "--shots", "2", "--seed", "4"],
         ["command", "unitary", "photons", "detector", "shots", "seed", "unitary_seed",
          "version"]),
        (["sweep-t", "--unitary", "splitter.json", "--photons", "2"],
         ["command", "unitary", "photons", "t_min", "t_max", "points", "perm_sq_true",
          "degenerate", "version"]),
    ],
    ids=["detector-curves", "unseeded-unitary", "sample-without-t", "degenerate-sweep"],
)
def test_csv_header_keys_in_order(argv, keys, tmp_path, monkeypatch):
    # the goldens pin the headers of the seeded, non-degenerate runs
    monkeypatch.chdir(tmp_path)
    write_unitary_json("plain.json", haar_unitary(2, 5))
    write_unitary_json("seeded.json", haar_unitary(2, 5), meta={"seed": 5})
    write_unitary_json("splitter.json", _BEAM_SPLITTER)
    assert main(argv + ["--out", "out.csv"]) == 0
    meta, _, _ = _read_csv(tmp_path / "out.csv")
    assert list(meta) == keys
    if "degenerate" in meta:
        assert meta["degenerate"] == "True"


def test_import_leaves_scipy_unloaded():
    import cvboson

    src = str(Path(cvboson.__file__).resolve().parents[1])
    code = "import sys, cvboson, cvboson.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


def _data_text(path):
    """The header and rows of a CSV written by write_csv, line ends kept."""
    lines = Path(path).read_bytes().decode().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


def _csv_writer_text(rows, lineterminator="\r\n"):
    """Rows as csv.writer renders them, floats through fmt17, one call per cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=lineterminator)
    for row in rows:
        writer.writerow([fmt17(cell) if isinstance(cell, float) else cell for cell in row])
    return buffer.getvalue()


@pytest.mark.parametrize("modes,photons,t", [(1, 1, 1e-3), (5, 3, 2.5), (12, 4, 0.37)])
def test_exact_dist_lines_match_csv_writer(modes, photons, t, tmp_path, capsys):
    # 1024-row blocks: M = 12 writes 4 of them
    u = haar_unitary(modes, modes)
    upath = tmp_path / "u.json"
    write_unitary_json(upath, u)
    argv = ["exact-dist", "--unitary", str(upath), "--photons", str(photons), "--t", repr(t)]
    assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
    assert main(argv) == 0
    probs = distribution_table(u, photons, t).probabilities().tolist()
    rows = [[format(index, f"0{modes}b"), p] for index, p in enumerate(probs)]
    assert _data_text(tmp_path / "d.csv") == _csv_writer_text([["pattern", "probability"]] + rows)
    assert capsys.readouterr().out == _csv_writer_text(rows, "\n")


# floats at the edges of %.17g rendering: signed zero, the smallest subnormal,
# exponent switches and the largest decades
_EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e-5, 1e308, 0.1, 1 / 3, -2.5e-310]


@pytest.mark.parametrize("edges", [False, True])
def test_sweep_lines_match_csv_writer(edges, tmp_path, monkeypatch):
    fits = []
    sweep = cli.deviation_sweep
    if edges:
        t_values = np.array([1e-5, 5e-324, 0.1, 1e-16, 0.05, 1e-300, 0.07, 3e-3])
        fit = SweepFit(t_values, np.array(_EDGE_VALUES), 0.5, 2.0, 0.25, False)
        monkeypatch.setattr(cli, "deviation_sweep", lambda *args: fits.append(fit) or fit)
    else:
        monkeypatch.setattr(cli, "deviation_sweep", lambda *a: fits.append(sweep(*a)) or fits[-1])
    upath, out = tmp_path / "u.json", tmp_path / "s.csv"
    write_unitary_json(upath, haar_unitary(5, 2))
    argv = ["sweep-t", "--unitary", str(upath), "--photons", "3", "--points", "8", "--out"]
    assert main(argv + [str(out)]) == 0
    (fit,) = fits
    rows = [["t", "p_exact", "p_over_tN", "delta"]]
    for t, delta in zip(fit.t_values, fit.deviations):
        ratio = fit.perm_sq_true + delta
        rows.append([float(t), ratio * float(t) ** 3, ratio, delta])
    assert _data_text(out) == _csv_writer_text(rows)


@pytest.mark.parametrize("edges", [False, True])
def test_detector_curve_lines_match_csv_writer(edges, tmp_path, monkeypatch):
    tables = []
    edge_table = np.reshape(_EDGE_VALUES + [7.0], (3, 3))
    curves = (lambda grid: edge_table) if edges else detector_curves
    monkeypatch.setattr(cli, "detector_curves", lambda g: tables.append(curves(g)) or tables[-1])
    out = tmp_path / "c.csv"
    assert main(["detector-curves", "--t-max", "7", "--points", "57", "--out", str(out)]) == 0
    rows = [["t", "eta", "p_dark"]] + [[float(x) for x in row] for row in tables[0]]
    assert _data_text(out) == _csv_writer_text(rows)


@pytest.mark.parametrize("points", [100_001, 10**12])
@pytest.mark.parametrize("command", ["sweep-t", "detector-curves"])
def test_threshold_points_beyond_limit_are_guard_violations(command, points, tmp_path, capsys,
                                                             monkeypatch):
    # the guard precedes the grid: a 10**12-point grid would exhaust memory
    for grid in ("geomspace", "linspace"):
        monkeypatch.setattr(cli.np, grid, lambda *args: pytest.fail("built the grid"))
    upath, out = tmp_path / "u.json", tmp_path / "s.csv"
    write_unitary_json(upath, haar_unitary(3, 1))
    unitary = ["--unitary", str(upath), "--photons", "1"] if command == "sweep-t" else []
    argv = [command, *unitary, "--points", str(points), "--out", str(out)]
    assert main(argv) == 2
    assert "guard violation: threshold points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("detector", ["fock", "dprcv1", "prcv1", "cv1"])
def test_sample_bytes_do_not_depend_on_threads_or_blocks(detector, tmp_path, monkeypatch):
    # 7-shot blocks give many thread-pool windows, each drawn while the one
    # before it is written
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 8)
    upath = tmp_path / "u.json"
    write_unitary_json(upath, haar_unitary(3, 4))
    argv = ["sample", "--unitary", str(upath), "--photons", "2", "--detector", detector,
            "--shots", "100", "--seed", "9"] + (["--t", "0.3"] if detector == "dprcv1" else [])
    outputs = set()
    for block in (sampler._BLOCK_SHOTS, 7):
        monkeypatch.setattr(sampler, "_BLOCK_SHOTS", block)
        for threads in ("1", "2", "4"):
            out = tmp_path / f"{block}-{threads}.csv"
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
    assert len(outputs) == 1
