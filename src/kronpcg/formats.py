"""On-disk formats: KTEN tensors, run-log JSON, CSV / gnuplot summaries.

A ``.kten`` file is one ASCII header line ``KTEN <ndim> <d1> <d2> [<d3>]``
followed by the raw float64 little-endian payload in first-index-fastest
order; round-trips are bitwise, and a payload holding NaN or Inf is
refused on write and on read.  Run logs are JSON documents matching
:data:`RUN_LOG_SCHEMA`, written by hand and kept in step with the log's
dataclasses (:mod:`kronpcg.solver`), field for field and in order, by
tests.  All writers go through a temp file and an atomic rename so a
crash never leaves a half-written artifact.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from typing import Sequence

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
    if t.ndim not in (2, 3):
        raise ValueError(f"KTEN stores 2D or 3D tensors, got ndim={t.ndim}")
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


_NUMBER_OR_NULL = {"type": ["number", "null"]}


def _object(optional: tuple = (), /, **properties) -> dict:
    """A schema object requiring every one of its ``properties`` but ``optional``."""
    required = [key for key in properties if key not in optional]
    return {"type": "object", "required": required, "properties": properties}


RUN_LOG_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    **_object(
        ("breakdown",),
        problem={"type": ["string", "null"]},
        shape={"type": "array", "items": {"type": "integer", "minimum": 1}},
        bcs={"type": "array", "items": {"type": "string"}},
        preconditioner={"type": "string"},
        seed={"type": ["integer", "null"]},
        config=_object(
            max_iter={"type": "integer", "minimum": 0},
            stop_tol=_NUMBER_OR_NULL,
        ),
        iterations={
            "type": "array",
            "items": _object(
                s={"type": "integer", "minimum": 0},
                alpha=_NUMBER_OR_NULL,
                beta=_NUMBER_OR_NULL,
                rho=_NUMBER_OR_NULL,
                computed_res={"type": "number"},
                true_res={"type": "number"},
                kappa={"type": "number"},
                eta_scaled={"type": "number"},
                null_norm={"type": "number"},
                ops_cum={"type": "integer", "minimum": 0},
            ),
        },
        warnings={"type": "array", "items": {"type": "string"}},
        breakdown={"type": ["string", "null"]},
        final_norms=_object(
            h={"type": "number"},
            u=_NUMBER_OR_NULL,
            true_residual=_NUMBER_OR_NULL,
            relative_true_residual=_NUMBER_OR_NULL,
        ),
    ),
}


def _plain(value):
    """A log field as JSON data: dataclasses become dicts, lists are copied."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


def log_to_dict(log: ConvergenceLog) -> dict:
    """The run-log document: the log's fields in declaration order (see
    :class:`~kronpcg.solver.ConvergenceLog`), then the computed ``final_norms``."""
    doc = {}
    for f in dataclasses.fields(log):
        key = f.metadata.get("json", f.name)
        if key is not None:
            doc[key] = _plain(getattr(log, f.name))
    final_true = log.records[-1].true_res if log.records else None
    rel = None
    if final_true is not None and log.h_norm > 0.0:
        rel = final_true / log.h_norm
    doc["final_norms"] = {
        "h": log.h_norm,
        "u": None if log.u is None else frobenius_norm(log.u),
        "true_residual": final_true,
        "relative_true_residual": rel,
    }
    return doc


def write_json(path: str, doc) -> None:
    """Write a JSON document, indented one space per level, in ASCII."""
    _atomic_write_bytes(path, json.dumps(doc, indent=1).encode("ascii"))


def write_run_log(path: str, log: ConvergenceLog) -> None:
    write_json(path, log_to_dict(log))


_SUMMARY_COLUMNS = ("problem", "preconditioner", "iters_to_1e-9", "final_true_res", "ops_cum")


def summary_row(
    problem: str, preconditioner: str, ops_cum: Sequence, residuals: Sequence, h_norm: float
) -> dict:
    """One CSV row of a run's series: the first step whose true residual is
    at most ``1e-9 * h_norm`` (empty if none), the final residual and ops."""
    reach = 1e-9 * h_norm
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
