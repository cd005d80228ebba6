"""Reading system and law description files, and writing reports atomically.

A system file is JSON of the form::

    {
      "dim": 2,
      "matrices": {
        "1": [[0.6, 0.6], [0.0, 0.6]],
        "2": [[1.05, 0.0], [1.05, 1.05]]
      }
    }

Matrix keys are the consecutive labels "1".."K" and rows are row-major
lists of numbers.  Law files use the dictionaries produced by
``law_to_spec``.  All writers go through a temporary file followed by an
atomic rename, so a crash never leaves a half-written output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile

import numpy as np

from ._version import __version__
from .chaos import MatrixSystem
from .errors import InvalidInputError
from .switching import SwitchingLaw, law_from_spec, law_to_spec


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _check_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{where} must be a number")
    return float(value)


def load_system(path: str) -> tuple[MatrixSystem, str]:
    """Load a system file, returning the system and the file's sha256 hex
    digest for provenance in reports."""
    data, digest = _load_json(path)
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path}: top level must be an object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InvalidInputError(f"{path}: 'dim' must be a positive integer")
    matrices = data.get("matrices")
    if not isinstance(matrices, dict) or not matrices:
        raise InvalidInputError(f"{path}: 'matrices' must be a nonempty object")
    k = len(matrices)
    expected = {str(i) for i in range(1, k + 1)}
    if set(matrices) != expected:
        raise InvalidInputError(
            f"{path}: matrix labels must be the consecutive strings 1..{k}"
        )
    gens = []
    for label in range(1, k + 1):
        rows = matrices[str(label)]
        where = f"{path}: matrix {label}"
        if not isinstance(rows, list) or len(rows) != dim:
            raise InvalidInputError(f"{where} must have {dim} rows")
        mat = np.empty((dim, dim))
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise InvalidInputError(f"{where} row {r + 1} must have {dim} entries")
            for c, entry in enumerate(row):
                mat[r, c] = _check_number(entry, f"{where} entry ({r + 1},{c + 1})")
        gens.append(mat)
    try:
        system = MatrixSystem(gens)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    return system, digest


def load_law(path: str) -> SwitchingLaw:
    """Load a law description file."""
    data, _ = _load_json(path)
    try:
        return law_from_spec(data)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def save_law(law: SwitchingLaw, path: str) -> None:
    """Write a law's serializable description."""
    write_json(path, law_to_spec(law))


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, write_body) -> None:
    """Write through a temporary file renamed onto ``path``; an OS failure
    removes the temporary file and becomes an InvalidInputError."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".chaoslab-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="") as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise InvalidInputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def write_json(path: str, obj) -> None:
    """Serialize ``obj`` as stable, sorted JSON via an atomic rename."""

    def body(fh):
        json.dump(obj, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")

    _atomic_write(path, body)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a CSV file with one header row via an atomic rename."""

    def body(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, body)


def build_report(
    command: str,
    parameters: dict,
    results: dict,
    system_digest: str | None = None,
    timings: dict | None = None,
) -> dict:
    """Assemble the standard report envelope.

    Everything except ``timings`` is a pure function of the inputs, so two
    runs of the same command produce byte-identical reports once the
    timings entry is dropped.
    """
    report = {
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "results": results,
    }
    if system_digest is not None:
        report["system_digest"] = system_digest
    if timings is not None:
        report["timings"] = timings
    return report
