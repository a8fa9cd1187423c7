"""File formats: unitary JSON round-trip and CSV output with metadata headers.

All writers are atomic (temp file in the target directory, then rename) and
give files the mode open() would; floats carry 17 significant digits so files
round-trip bit-exactly across languages. CSV files start with `# key=value`
metadata lines: the seed, detector settings and tool version of the run.
"""

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .fock import check_unitary
from .version import VERSION


def fmt17(value):
    """Full-precision decimal rendering of a float (17 significant digits)."""
    return f"{float(value):.17g}"


@contextmanager
def _atomic_writer(path):
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        umask = os.umask(0)  # mkstemp makes the file 0600; give it the mode open() would
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_unitary_json(path, u, meta=None):
    """Write a unitary as {"modes": M, "re": rows, "im": rows} plus metadata keys.

    json round-trips Python floats exactly, so read_unitary_json recovers the
    entries bit-for-bit.
    """
    u = check_unitary(u)
    payload = {
        "modes": int(u.shape[0]),
        "re": u.real.tolist(),
        "im": u.imag.tolist(),
    }
    if meta:
        for key, value in meta.items():
            if key not in payload:
                payload[key] = value
    write_json(path, payload)


def write_json(path, payload):
    """Write `payload` as JSON, indented by one space, with a trailing newline."""
    with _atomic_writer(path) as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def read_unitary_json(path):
    """Read a unitary JSON file; returns (matrix, metadata dict)."""
    with open(path) as handle:
        payload = json.load(handle)
    try:
        modes = int(payload["modes"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a unitary JSON file ({exc})") from exc
    if re.shape != (modes, modes) or im.shape != (modes, modes):
        raise ValueError(f"{path}: entry arrays are not {modes}x{modes}")
    meta = {k: v for k, v in payload.items() if k not in ("modes", "re", "im")}
    return re + 1j * im, meta


def write_csv(path, columns, blocks, meta):
    """Write a CSV with `# key=value` metadata lines above the column header.

    `blocks` is any iterable of str, each a run of complete, formatted CSV lines
    ending in CRLF, consumed as the file is written so large outputs stream.
    """
    with _atomic_writer(path) as handle:
        for key, value in dict(meta, version=VERSION).items():
            handle.write(f"# {key}={value}\n")
        handle.write(",".join(columns) + "\r\n")
        # not writelines, which frees each block sooner and doubled page faults
        for block in blocks:
            handle.write(block)
