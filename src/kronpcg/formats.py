"""On-disk formats: KTEN tensors, run-log JSON, CSV / gnuplot summaries.

A ``.kten`` file is one ASCII header line ``KTEN <ndim> <d1> <d2> [<d3>]``
(every extent at least 1) followed by the raw float64 little-endian
payload in first-index-fastest order; round-trips are bitwise, and a
payload holding NaN or Inf is refused on write and on read.  Run logs
are JSON documents matching :data:`RUN_LOG_SCHEMA`, derived from the
log's dataclasses (:mod:`kronpcg.solver`) with ``minimum`` and
``required`` from field metadata.  All writers go through a temp file and
an atomic rename so a crash never leaves a half-written artifact.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import typing
from typing import Optional, Sequence

import numpy as np

from .solver import ConvergenceLog
from .tensors import checked_tensor, frobenius_norm

__all__ = [
    "write_tensor",
    "read_tensor",
    "RUN_LOG_SCHEMA",
    "log_to_dict",
    "write_json",
    "write_run_log",
    "summary_row",
    "write_csv_summary",
    "write_gnuplot_series",
]

_MAGIC = "KTEN"


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def write_tensor(path: str, t: np.ndarray) -> None:
    """Write a real, finite 2D/3D tensor as a float64 KTEN file; anything else
    is a ``ValueError`` raised before any file is created."""
    t = checked_tensor(t)
    if t.ndim not in (2, 3) or min(t.shape) < 1:
        raise ValueError(f"KTEN stores 2D or 3D tensors of extents >= 1, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("KTEN payload must be finite (holds NaN or Inf)")
    header = " ".join([_MAGIC, str(t.ndim), *map(str, t.shape)]) + "\n"
    _atomic_write_bytes(path, header.encode("ascii") + t.astype("<f8").tobytes(order="F"))


def read_tensor(path: str) -> np.ndarray:
    """Read a KTEN file back into a C-contiguous float array (exact payload bytes).

    Raises ``ValueError`` for a malformed file or a payload holding NaN or
    Inf, so no reader of KTEN files sees non-finite values.
    """
    with open(path, "rb") as fh:
        header = fh.readline(256)
        payload = fh.read()
    try:
        fields = header.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a KTEN file (binary header)") from exc
    if len(fields) < 2 or fields[0] != _MAGIC:
        raise ValueError(f"{path}: not a KTEN file")
    try:
        ndim = int(fields[1])
        dims = tuple(int(x) for x in fields[2:])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed KTEN header {header!r}") from exc
    if ndim not in (2, 3) or len(dims) != ndim or any(d < 1 for d in dims):
        raise ValueError(f"{path}: malformed KTEN header {header!r}")
    expected = int(np.prod(dims)) * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    t = np.frombuffer(payload, dtype="<f8").reshape(dims, order="F").astype(float, order="C")
    if not np.isfinite(t).all():
        raise ValueError(f"{path}: payload is not finite (holds NaN or Inf)")
    return t


def _log_fields(cls) -> list:
    """``(key, field)`` for each field of the dataclass ``cls`` in the run log:
    ``metadata["json"]`` renames a field or, being ``None``, leaves it out."""
    keyed = ((f.metadata.get("json", f.name), f) for f in dataclasses.fields(cls))
    return [(key, f) for key, f in keyed if key is not None]


@dataclasses.dataclass(frozen=True)
class _FinalNorms:
    """The computed ``final_norms`` closing a run log: ``|h|``, ``|u|`` and the
    last record's true residual, absolute and relative to ``|h|``."""

    h: float
    u: Optional[float]
    true_residual: Optional[float]
    relative_true_residual: Optional[float]


_JSON_TYPES = {int: "integer", float: "number", str: "string"}


def _schema(tp, minimum=None) -> dict:
    """The schema node of a log value of type ``tp``: a dataclass is an object
    of its logged keys, ``Optional[X]`` is ``X`` or null, ``list[X]`` an array
    of ``X``; ``minimum`` bounds a number, or the items of a list."""
    if dataclasses.is_dataclass(tp):
        hints, fields = typing.get_type_hints(tp), _log_fields(tp)
        required = [key for key, f in fields if f.metadata.get("required", True)]
        properties = {key: _schema(hints[f.name], f.metadata.get("minimum")) for key, f in fields}
        return {"type": "object", "required": required, "properties": properties}
    if typing.get_origin(tp) is list:
        return {"type": "array", "items": _schema(typing.get_args(tp)[0], minimum)}
    if typing.get_origin(tp) is typing.Union:  # Optional[X]
        node = _schema(typing.get_args(tp)[0], minimum)
        return {**node, "type": [node["type"], "null"]}
    node = {"type": _JSON_TYPES[tp]}
    if minimum is not None:
        node["minimum"] = minimum
    return node


RUN_LOG_SCHEMA: dict = {"$schema": "https://json-schema.org/draft/2020-12/schema"}
RUN_LOG_SCHEMA.update(_schema(ConvergenceLog))
RUN_LOG_SCHEMA["required"].append("final_norms")
RUN_LOG_SCHEMA["properties"]["final_norms"] = _schema(_FinalNorms)


def _plain(value):
    """A log value as JSON data: dataclasses become dicts of their logged keys."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if dataclasses.is_dataclass(value):
        return {key: _plain(getattr(value, f.name)) for key, f in _log_fields(value)}
    return value


def log_to_dict(log: ConvergenceLog) -> dict:
    """The run-log document: the log's fields in declaration order (see
    :class:`~kronpcg.solver.ConvergenceLog`), then the computed ``final_norms``."""
    final_true = log.records[-1].true_res if log.records else None
    rel = final_true / log.h_norm if final_true is not None and log.h_norm > 0.0 else None
    u_norm = None if log.u is None else frobenius_norm(log.u)
    norms = _FinalNorms(log.h_norm, u_norm, final_true, rel)
    return {**_plain(log), "final_norms": _plain(norms)}


def write_json(path: str, doc) -> None:
    """Write a JSON document, indented one space per level, in ASCII."""
    _atomic_write_bytes(path, json.dumps(doc, indent=1).encode("ascii"))


def write_run_log(path: str, log: ConvergenceLog) -> None:
    write_json(path, log_to_dict(log))


_SUMMARY_COLUMNS = ("problem", "preconditioner", "iters_to_1e-9", "final_true_res", "ops_cum")


def summary_row(problem: str, preconditioner: str, ops_cum: Sequence, residuals: Sequence) -> dict:
    """One CSV row of a run's series: the first step whose true residual is
    at most ``1e-9 * residuals[0]`` (record 0's, ``|h|``; empty if none),
    the final residual and ops."""
    reach = 1e-9 * residuals[0]
    crossing = next((s for s, r in enumerate(residuals) if r <= reach), "")
    values = (problem, preconditioner, crossing, repr(residuals[-1]), ops_cum[-1])
    return dict(zip(_SUMMARY_COLUMNS, values))


def write_csv_summary(path: str, rows: Sequence[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SUMMARY_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _atomic_write_bytes(path, buf.getvalue().encode("ascii"))


def write_gnuplot_series(path: str, xs: Sequence, ys: Sequence, comment: str) -> None:
    """Two-column whitespace-separated series with one comment line."""
    lines = [f"# {comment}"]
    lines.extend(f"{x} {float(y)!r}" for x, y in zip(xs, ys))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))
