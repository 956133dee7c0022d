import functools
import json

import jsonschema
import numpy as np
import pytest

from conftest import Negated
from kronpcg.formats import (
    RUN_LOG_SCHEMA,
    log_to_dict,
    read_tensor,
    summary_row,
    write_csv_summary,
    write_gnuplot_series,
    write_run_log,
    write_tensor,
)
from kronpcg.precond import JacobiPreconditioner, PinvPreconditioner
from kronpcg.problems import gen_problem1
from kronpcg.solver import PCGBreakdown, SolverConfig, pcg


def test_tensor_header_is_ascii_with_dims(tmp_path):
    path = tmp_path / "t.kten"
    write_tensor(str(path), np.zeros((3, 4)))
    blob = path.read_bytes()
    assert blob.startswith(b"KTEN 2 3 4\n")
    assert len(blob) == len(b"KTEN 2 3 4\n") + 12 * 8


@pytest.mark.parametrize(
    "shape", [(0, 5), (3, 0), (2, 4, 0), (4,), (2, 2, 2, 2)], ids=["0x5", "3x0", "2x4x0", "1d", "4d"]
)
def test_write_tensor_refuses_what_read_tensor_refuses(tmp_path, shape):
    """An extent below 1 or a rank other than 2 or 3, before any file is made."""
    with pytest.raises(ValueError, match="KTEN stores 2D or 3D tensors of extents >= 1"):
        write_tensor(str(tmp_path / "t.kten"), np.zeros(shape))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "blob",
    [
        b"NOPE 2 3 4\n" + b"\0" * 96,
        b"KTEN 2 3\n" + b"\0" * 72,
        b"KTEN 2 3 4\n" + b"\0" * 40,  # truncated payload
        b"KTEN 2 3 4\n" + b"\0" * 120,  # trailing bytes
        b"KTEN 4 2 2 2 2\n" + b"\0" * 128,  # unsupported rank
        b"KTEN 2 0 5\n",  # an empty extent
    ],
)
def test_read_tensor_rejects_malformed_files(tmp_path, blob):
    path = tmp_path / "bad.kten"
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        read_tensor(str(path))


def _sample_log(max_iter=5, stop_tol=None):
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    _, log = pcg(op, h, PinvPreconditioner(op), config=SolverConfig(max_iter, stop_tol))
    log.problem, log.seed = spec.name, spec.seed
    return log


def _sample_row(log):
    ops_cum = [rec.ops_cum for rec in log.records]
    residuals = [rec.true_res for rec in log.records]
    return summary_row("p1", log.preconditioner, ops_cum, residuals)


def test_log_document_validates_against_the_schema():
    log = _sample_log()
    doc = log_to_dict(log)
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert doc["problem"] == "p1"
    assert doc["config"] == {"max_iter": 5, "stop_tol": None}
    assert len(doc["iterations"]) == len(log.records)
    assert doc["final_norms"]["relative_true_residual"] <= 1e-12


def test_log_records_the_config_of_its_run():
    doc = log_to_dict(_sample_log(max_iter=3, stop_tol=1e-6))
    assert doc["config"] == {"max_iter": 3, "stop_tol": 1e-6}


def test_a_tolerance_or_budget_stop_leaves_the_last_rho_null():
    """Neither stop preconditions its last residual, so that record has no
    ``rho`` or ``beta``; every earlier record has its ``rho``."""
    log = _sample_log(max_iter=5, stop_tol=1e-9)
    assert log.iterations < 5
    doc = log_to_dict(log)
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert (doc["iterations"][-1]["rho"], doc["iterations"][-1]["beta"]) == (None, None)
    for max_iter in (0, 1, 5):
        records = _sample_log(max_iter=max_iter).records
        assert len(records) == max_iter + 1
        assert all(isinstance(rec.rho, float) for rec in records[:-1])
        assert (records[-1].rho, records[-1].beta) == (None, None)


@pytest.mark.parametrize("key", ["alpha", "true_res", "eta_scaled"])
def test_a_record_is_null_only_where_pcg_writes_null(key):
    """Record 0's ``alpha`` is null as ``pcg`` writes it; a null ``true_res``
    or ``eta_scaled`` fails validation."""
    doc = log_to_dict(_sample_log())
    assert doc["iterations"][0]["alpha"] is None
    doc["iterations"][0][key] = None
    errors = [e.message for e in jsonschema.Draft202012Validator(RUN_LOG_SCHEMA).iter_errors(doc)]
    assert errors == ([] if key == "alpha" else ["None is not of type 'number'"])


def test_log_with_the_old_centering_key_still_validates():
    """Logs written before centering became the operator's call carry
    ``config.center_each_iter``; the schema must keep accepting them."""
    doc = log_to_dict(_sample_log())
    for old_value in (None, True, False):
        doc["config"]["center_each_iter"] = old_value
        jsonschema.validate(doc, RUN_LOG_SCHEMA)


@functools.cache
def _stop_log(stop):
    """A log of each way a run ends; the breakdown's keeps ``problem`` and ``seed`` null."""
    if stop != "breakdown":
        return _sample_log(*dict(tolerance=(5, 1e-9), budget=(5, None), floor=(100, None))[stop])
    spec, h = gen_problem1(5, 10)
    op = spec.operator()
    with pytest.raises(PCGBreakdown) as info:
        pcg(op, h, Negated(JacobiPreconditioner(op), after=1), config=SolverConfig(max_iter=5))
    return info.value.log


_STOPS = ["tolerance", "budget", "floor", "breakdown"]
# Where each object of a log sits in its document; -1 is the last record.
_OBJECT_PATHS = {
    "log": (),
    "config": ("config",),
    "record": ("iterations", -1),
    "final_norms": ("final_norms",),
}


def _instance(doc, obj):
    for step in _OBJECT_PATHS[obj]:
        doc = doc[step]
    return doc


def _node(obj):
    node = RUN_LOG_SCHEMA
    for step in _OBJECT_PATHS[obj]:
        node = node["items"] if step == -1 else node["properties"][step]
    return node


@pytest.mark.parametrize("obj", sorted(_OBJECT_PATHS))
@pytest.mark.parametrize("stop", _STOPS)
def test_every_stop_writes_the_schema_keys_in_order(stop, obj):
    """Every stop's log validates, and each object's keys are its schema properties, in order."""
    doc = log_to_dict(_stop_log(stop))
    assert (doc["problem"] is None) == (stop == "breakdown")
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert list(_instance(doc, obj)) == list(_node(obj)["properties"])


@pytest.mark.parametrize(
    "obj, key", [(obj, key) for obj in sorted(_OBJECT_PATHS) for key in _node(obj)["properties"]]
)
@pytest.mark.parametrize("stop", _STOPS)
def test_every_stop_requires_each_key_but_the_breakdown(stop, obj, key):
    doc = log_to_dict(_stop_log(stop))
    del _instance(doc, obj)[key]
    errors = [e.message for e in jsonschema.Draft202012Validator(RUN_LOG_SCHEMA).iter_errors(doc)]
    optional = (obj, key) == ("log", "breakdown")
    assert errors == ([] if optional else [f"{key!r} is a required property"])


@pytest.mark.parametrize(
    "path, minimum",
    [
        (("shape", 0), 1),
        (("config", "max_iter"), 0),
        (("iterations", -1, "s"), 0),
        (("iterations", -1, "ops_cum"), 0),
    ],
    ids=["shape", "max_iter", "s", "ops_cum"],
)
def test_a_count_below_its_minimum_fails(path, minimum):
    """The bounds the schema takes from field metadata: extents from 1, counts from 0."""
    doc = log_to_dict(_sample_log())
    *steps, key = path
    instance = doc
    for step in steps:
        instance = instance[step]
    instance[key] = minimum - 1
    errors = [e.message for e in jsonschema.Draft202012Validator(RUN_LOG_SCHEMA).iter_errors(doc)]
    assert errors == [f"{minimum - 1} is less than the minimum of {minimum}"]


def test_write_run_log_round_trips_through_json(tmp_path):
    path = tmp_path / "run.json"
    write_run_log(str(path), _sample_log())
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert doc["iterations"][0]["s"] == 0


def test_summary_row_reports_the_crossing():
    log = _sample_log()
    row = _sample_row(log)
    assert row["problem"] == "p1"
    assert row["iters_to_1e-9"] == 1
    assert float(row["final_true_res"]) <= 1e-9
    assert row["ops_cum"] == log.records[-1].ops_cum


def test_csv_summary_has_header_and_rows(tmp_path):
    row = _sample_row(_sample_log())
    path = tmp_path / "summary.csv"
    write_csv_summary(str(path), [row, row])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "problem,preconditioner,iters_to_1e-9,final_true_res,ops_cum"
    assert len(lines) == 3


def test_gnuplot_series_round_trips(tmp_path):
    path = tmp_path / "series.dat"
    write_gnuplot_series(str(path), [0, 2, 3], [1.0, 0.25, 1e-300], "a curve")
    lines = path.read_text().splitlines()
    assert lines[0] == "# a curve"
    assert len(lines) == 4
    xs, ys = zip(*(line.split() for line in lines[1:]))
    assert xs == ("0", "2", "3")
    assert [float(y) for y in ys] == [1.0, 0.25, 1e-300]
