"""Output checks for benchmark ops, run after the timed window.

Each check raises CheckFailed with the reason; the benchmark counts an op as
failed when its exit code is not 0 or any check on its outputs fails.
"""

import csv
import hashlib
import json
import math

import numpy as np

from cvboson.distribution import distribution_table, prob_dprcv
from cvboson.permanent import permanent_naive

# A correct sampler fails the chi-square check with probability P_MIN per op.
P_MIN = 1e-6
# prcv1 and cv1 radii R = |alpha|^2 are coarse-grained to click patterns at this
# threshold; G(0.5, 0) = 0.090 and G(0.5, 1) = 0.242, so empty and occupied
# modes click at clearly different rates.
COARSE_T = 0.5
SUM_TOL = 1e-10
REL_TOL = 1e-12


class CheckFailed(Exception):
    pass


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _require(condition, reason):
    if not condition:
        raise CheckFailed(reason)


def _read_csv(path, header):
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    rows = list(csv.reader([line for line in lines if not line.startswith("#")]))
    _require(rows and rows[0] == header, f"{path}: header {rows[:1]} is not {header}")
    return rows[1:]


def _pattern_index(clicks):
    """Row index of each click pattern in the lexicographic 2^M table (mode 0 is the MSB)."""
    clicks = np.asarray(clicks, dtype=np.int64)
    weights = 1 << np.arange(clicks.shape[1] - 1, -1, -1, dtype=np.int64)
    return clicks @ weights


def chi_square_pvalue(observed, probs):
    """Pearson chi-square p-value of counts against exact probabilities.

    Patterns expected fewer than 5 times are pooled into one bin, which is
    merged into the smallest remaining bin when its own expectation is
    below 5. An observation of a probability-zero pattern gives p = 0.
    """
    from scipy.stats import chi2

    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(probs, dtype=float) * observed.sum()
    if np.any(observed[expected <= 0] > 0):
        return 0.0
    big = expected >= 5
    obs_bins, exp_bins = list(observed[big]), list(expected[big])
    rest_obs, rest_exp = observed[~big].sum(), expected[~big].sum()
    if rest_exp >= 5 or not exp_bins:
        obs_bins.append(rest_obs)
        exp_bins.append(rest_exp)
    elif rest_exp > 0:
        smallest = int(np.argmin(exp_bins))
        obs_bins[smallest] += rest_obs
        exp_bins[smallest] += rest_exp
    if len(exp_bins) < 2:
        return 1.0
    obs_bins, exp_bins = np.array(obs_bins), np.array(exp_bins)
    stat = float((((obs_bins - exp_bins) ** 2) / exp_bins).sum())
    return float(chi2.sf(stat, len(exp_bins) - 1))


def check_sample(path, detector, u, photons, shots, t, statistical=True):
    """Shape of a sample CSV, then (if `statistical`) a chi-square test of its
    click patterns against the exact DPRCV-1 table (prcv1 and cv1 radii
    coarse-grained)."""
    modes = u.shape[0]
    rows = _read_csv(path, ["shot", "outcome"])
    _require(len(rows) == shots, f"{path}: {len(rows)} rows, expected {shots}")
    _require(set(map(len, rows)) == {2}, f"{path}: a row does not have 2 fields")
    shot_column = [row[0] for row in rows]
    if shot_column != list(map(str, range(shots))):
        bad = next(i for i, s in enumerate(shot_column) if s != str(i))
        raise CheckFailed(f"{path}: bad row {bad}: {rows[bad]}")
    outcomes = [row[1] for row in rows]
    if detector == "dprcv1":
        chars = np.frombuffer("".join(outcomes).encode(), dtype=np.uint8)
        _require(
            set(map(len, outcomes)) == {modes} and np.all((chars == 48) | (chars == 49)),
            f"{path}: outcome is not a {modes}-mode click pattern",
        )
        clicks = chars.reshape(shots, modes) - ord("0")
        threshold = t
    else:
        width = modes if detector == "prcv1" else 2 * modes
        try:
            values = np.array([[float(x) for x in o.split(",")] for o in outcomes])
        except ValueError as exc:
            raise CheckFailed(f"{path}: unparsable outcome ({exc})") from exc
        _require(values.shape == (shots, width), f"{path}: outcomes are not {width} numbers")
        _require(np.all(np.isfinite(values)), f"{path}: non-finite outcome")
        if detector == "prcv1":
            _require(np.all(values >= 0), f"{path}: negative radius")
            radii = values
        else:
            radii = values[:, 0::2] ** 2 + values[:, 1::2] ** 2
        clicks = radii <= COARSE_T
        threshold = COARSE_T
    if not statistical:
        return
    probs = np.asarray(distribution_table(u, photons, threshold).probabilities())
    counts = np.bincount(_pattern_index(clicks), minlength=2**modes)
    p_value = chi_square_pvalue(counts, probs)
    _require(p_value >= P_MIN, f"{path}: chi-square p = {p_value:.3g} against the exact table")


def check_exact_dist(path, u, photons, t):
    """All 2^M patterns in order, probabilities summing to one, and the
    first-N-clicks entry equal to prob_dprcv."""
    modes = u.shape[0]
    rows = _read_csv(path, ["pattern", "probability"])
    _require(len(rows) == 2**modes, f"{path}: {len(rows)} rows, expected {2**modes}")
    _require(
        all(row[0] == format(i, f"0{modes}b") for i, row in enumerate(rows)),
        f"{path}: patterns are not the 2^M patterns in lexicographic order",
    )
    probs = [float(row[1]) for row in rows]
    total = math.fsum(probs)
    _require(abs(total - 1.0) <= SUM_TOL, f"{path}: probabilities sum to {total!r}")
    target = (1,) * photons + (0,) * (modes - photons)
    expected = prob_dprcv(u, target, t, photons)
    got = probs[int(_pattern_index([target])[0])]
    _require(
        math.isclose(got, expected, rel_tol=REL_TOL),
        f"{path}: first-N-clicks entry {got!r} != prob_dprcv {expected!r}",
    )


def check_sweep(csv_path, report_path, u, photons, points):
    """Sweep CSV row count and the report's perm_sq_true against the naive permanent."""
    rows = _read_csv(csv_path, ["t", "p_exact", "p_over_tN", "delta"])
    _require(len(rows) == points, f"{csv_path}: {len(rows)} rows, expected {points}")
    with open(report_path) as handle:
        report = json.load(handle)
    expected = abs(permanent_naive(u[:photons, :photons])) ** 2
    got = report.get("perm_sq_true")
    _require(
        isinstance(got, float) and math.isclose(got, expected, rel_tol=1e-10),
        f"{report_path}: perm_sq_true {got!r} != |permanent_naive|^2 {expected!r}",
    )
