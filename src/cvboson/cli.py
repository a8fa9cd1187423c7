"""Command-line interface.

Subcommands: gen-unitary, exact-dist, sample, sweep-t, detector-curves,
verify. Long flag names only. Every output file carries the producing
command's parameters in its metadata header, so any file can be regenerated
from its own header. Exit codes: 0 success, 1 usage or input error,
2 size-guard violation, 3 invariant failure.

A default seed may be supplied through the CVBOSON_SEED environment variable.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys

import numpy as np

from .distribution import click_rows, distribution_table
from .errors import GuardLimitError, InvariantViolation, check_size
from .estimate import build_estimate_report, deviation_sweep, estimate_perm_from_samples
from .fock import haar_unitary
from .io import fmt17, read_unitary_json, write_csv, write_json, write_unitary_json
from .povm import detector_curves
from .sampler import sample_cv1, sample_dprcv1, sample_fock, sample_prcv1
from .verify import run_checks
from .version import VERSION

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_INVARIANT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap that to a usage error."""

    def error(self, message):
        raise UsageError(message)


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("CVBOSON_SEED")
    if env is None:
        raise UsageError("no --seed given and CVBOSON_SEED is not set")
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"CVBOSON_SEED must be an integer, got {env!r}") from exc


def _csv_meta(args, u_meta=None, **fields):
    """The metadata of every CSV header: the command; for a command that reads
    a unitary file (its metadata `u_meta`) the file and the photon count; the
    command's own `fields` in order, floats at 17 digits and None left out;
    then the unitary file's seed as unitary_seed, when it records one."""
    meta = {"command": args.command}
    if u_meta is not None:
        meta.update(unitary=args.unitary, photons=args.photons)
    for key, value in fields.items():
        if value is not None:
            meta[key] = fmt17(value) if isinstance(value, float) else value
    if u_meta and "seed" in u_meta:
        meta["unitary_seed"] = u_meta["seed"]
    return meta


def _cmd_gen_unitary(args):
    seed = _default_seed(args.seed)
    u = haar_unitary(args.modes, seed)
    write_unitary_json(
        args.out,
        u,
        meta={"seed": seed, "generator": "haar", "version": VERSION},
    )
    return EXIT_OK


def _cmd_exact_dist(args):
    u, u_meta = read_unitary_json(args.unitary)
    table = distribution_table(u, args.photons, args.t)
    meta = _csv_meta(args, u_meta, t=args.t, detector="dprcv1")
    if args.out:
        write_csv(args.out, ["pattern", "probability"], _table_lines(table, "\r\n"), meta)
    else:
        sys.stdout.writelines(_table_lines(table, "\n"))
    return EXIT_OK


def _table_lines(table, end):
    """`pattern,probability` lines ending in `end`, in blocks of 1024 rows."""
    probs = table.probabilities()
    for first in range(0, probs.size, 1024):
        block = probs[first : first + 1024]
        digits = click_rows(np.arange(first, first + block.size), table.modes) + ord("0")
        patterns = digits.astype(np.uint8).view(f"S{table.modes}")[:, 0].astype(str)
        yield _float_lines(f"%s,%.17g{end}", [patterns, block])


def _digit_lines(first, values, sep):
    """`shot,outcome` CSV lines for rows of single-digit counts, built as bytes.

    Each line is laid out in a fixed-width uint8 row: the shot number right
    aligned in a field padded with NUL bytes, the outcome digits (joined by
    commas and quoted when `sep`, as the csv module quotes a comma-holding
    cell), then CRLF. Dropping the NUL padding leaves the lines back to back.
    """
    count, width = values.shape
    shots = np.arange(first, first + count)
    places = len(str(first + count - 1))
    quote = sep and width > 1
    cell = 2 * width - 1 if quote else width
    line = np.zeros((count, places + 1 + quote * 2 + cell + 2), dtype=np.uint8)
    for place in range(places):
        power = 10 ** (places - 1 - place)
        digit = (shots // power) % 10 + ord("0")
        line[:, place] = np.where((shots >= power) | (power == 1), digit, 0)
    line[:, places] = ord(",")
    start = places + 1 + quote
    if quote:
        line[:, start - 1] = line[:, start + cell] = ord('"')
        line[:, start + 1 : start + cell : 2] = ord(",")
        line[:, start : start + cell : 2] = values + ord("0")
    else:
        line[:, start : start + cell] = values + ord("0")
    line[:, -2:] = (ord("\r"), ord("\n"))
    flat = line.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _float_lines(line, columns):
    """`line` %-formatted with each row of `columns` (equal-length arrays) at once."""
    rows = zip(*(column.tolist() for column in columns))
    return (line * len(columns[0])) % tuple(itertools.chain.from_iterable(rows))


def _outcome_lines(batch):
    """CSV text of the `shot,outcome` rows of a batch, one str per block of
    shots, each block drawn as it is formatted.

    dprcv1 outcomes are 0/1 strings, fock outcomes comma-joined occupations,
    prcv1 outcomes comma-joined radii and cv1 outcomes comma-joined re/im
    pairs; the bytes are those csv.writer gives for these cells. Occupations
    are single digits because the fock sampler is guarded at N <= 4 photons.
    """
    for first, rows in batch.blocks():
        if batch.kind in ("dprcv1", "fock"):
            yield _digit_lines(first, rows, sep=batch.kind == "fock")
        else:
            values = rows.view(np.float64) if batch.kind == "cv1" else rows
            cell = ",".join(["%.17g"] * values.shape[1])
            line = f'%d,"{cell}"\r\n' if values.shape[1] > 1 else f"%d,{cell}\r\n"
            yield _float_lines(line, [np.arange(first, first + len(values)), *values.T])


def _cmd_sample(args):
    if (args.detector == "dprcv1") == (args.t is None):
        rule = "required for" if args.t is None else f"not read by {args.detector}, only by"
        raise UsageError(f"--t is {rule} the dprcv1 detector")
    u, u_meta = read_unitary_json(args.unitary)
    seed = _default_seed(args.seed)
    if args.detector == "dprcv1":
        batch = sample_dprcv1(u, args.photons, args.t, args.shots, seed, threads=args.threads)
    else:
        sampler = {"fock": sample_fock, "prcv1": sample_prcv1, "cv1": sample_cv1}[args.detector]
        batch = sampler(u, args.photons, args.shots, seed, threads=args.threads)
    meta = _csv_meta(args, u_meta, detector=args.detector, shots=args.shots, seed=seed, t=args.t)
    write_csv(args.out, ["shot", "outcome"], _outcome_lines(batch), meta)
    return EXIT_OK


def _cmd_sweep_t(args):
    report_flags = {"--shots": args.shots, "--g": args.g, "--lower-bound": args.lower_bound}
    unread = [flag for flag, value in report_flags.items() if value is not None]
    if unread and not args.report:
        raise UsageError(f"{', '.join(unread)} only apply with --report")
    if args.seed is not None and not args.shots:
        raise UsageError("--seed is only read with a nonzero --shots")
    check_size("threshold points", args.points)
    u, u_meta = read_unitary_json(args.unitary)
    t_grid = np.geomspace(args.t_min, args.t_max, args.points)
    sweep = deviation_sweep(u, args.photons, t_grid)
    fit = (None, None) if sweep.degenerate else (sweep.linear_coeff, sweep.quadratic_bound)
    meta = _csv_meta(
        args, u_meta, t_min=args.t_min, t_max=args.t_max, points=args.points,
        perm_sq_true=sweep.perm_sq_true, degenerate=sweep.degenerate,
        linear_coeff=fit[0], quadratic_bound=fit[1],
    )
    ratio = sweep.perm_sq_true + sweep.deviations
    if args.report:  # built first, so that bad report inputs leave no file behind
        t_work = float(t_grid[0])
        if args.shots:
            seed = _default_seed(args.seed)
            batch = sample_dprcv1(u, args.photons, t_work, args.shots, seed)
            p_tilde = estimate_perm_from_samples(batch, args.photons).value
        else:
            p_tilde = float(ratio[0])  # exact ratio at the working threshold
        g = {} if args.g is None else {"g": args.g}  # else the report's default factor
        report = build_estimate_report(
            u, args.photons, t_work, p_tilde=p_tilde, lower_bound=args.lower_bound, **g
        )
    # Python's float power: numpy's array power rounds some t^N differently
    p_exact = ratio * [t**args.photons for t in sweep.t_values.tolist()]
    columns = [sweep.t_values, p_exact, ratio, sweep.deviations]
    lines = _float_lines("%.17g,%.17g,%.17g,%.17g\r\n", columns)
    write_csv(args.out, ["t", "p_exact", "p_over_tN", "delta"], [lines], meta)
    if args.report:
        write_json(args.report, dataclasses.asdict(report))
    return EXIT_OK


def _cmd_detector_curves(args):
    check_size("threshold points", args.points)
    with np.errstate(invalid="ignore"):  # --t-max inf: 0 * inf; detector_curves rejects NaN
        grid = np.linspace(0.0, args.t_max, args.points)
    table = detector_curves(grid)
    meta = _csv_meta(args, t_max=args.t_max, points=args.points)
    lines = _float_lines("%.17g,%.17g,%.17g\r\n", table.T)
    write_csv(args.out, ["t", "eta", "p_dark"], [lines], meta)
    return EXIT_OK


def _cmd_verify(args):
    results = run_checks(args.level)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.seconds:.2f}s): {result.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_INVARIANT
    print(f"all {len(results)} checks passed")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="cvboson", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cvboson {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-unitary", help="generate a Haar-random unitary JSON file")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_unitary)

    p = sub.add_parser("exact-dist", help="exact click-pattern distribution CSV")
    p.add_argument("--unitary", required=True)
    p.add_argument("--photons", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact_dist)

    p = sub.add_parser("sample", help="draw reproducible measurement samples")
    p.add_argument("--unitary", required=True)
    p.add_argument("--photons", type=int, required=True)
    p.add_argument(
        "--detector", choices=("fock", "dprcv1", "prcv1", "cv1"), required=True
    )
    p.add_argument("--t", type=float)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep-t", help="threshold sweep of the first-N-clicks probability")
    p.add_argument("--unitary", required=True)
    p.add_argument("--photons", type=int, required=True)
    p.add_argument("--t-min", type=float, default=1e-4)
    p.add_argument("--t-max", type=float, default=1e-2)
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="also write an estimate report JSON here")
    p.add_argument("--shots", type=int, help="sample-based estimate for the report")
    p.add_argument("--seed", type=int)
    p.add_argument("--g", type=float)
    p.add_argument("--lower-bound", type=float)
    p.set_defaults(func=_cmd_sweep_t)

    p = sub.add_parser("detector-curves", help="efficiency and dark-count curves CSV")
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--points", type=int, default=301)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detector_curves)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardLimitError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
