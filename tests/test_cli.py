"""End-to-end command-line coverage via cli.main, and the process exit
status of ``python -m kronpcg``."""

import csv
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import Negated, run_python, spectrum_sums, traced_peak
from kronpcg import cli, formats
from kronpcg.formats import RUN_LOG_SCHEMA, read_tensor, write_tensor
from kronpcg.laplace1d import BoundaryCondition, analytic_spectrum
from kronpcg.operators import NULL_SHARE_TOL, poisson_operator
from kronpcg.precond import StationaryResult, make_preconditioner
from kronpcg.problems import gen_problem1, gen_problem3
from kronpcg.solver import SolverConfig, pcg


def test_gen_p2_writes_the_boundary_sidecar(tmp_path):
    rhs = tmp_path / "p2.kten"
    assert cli.main(["gen", "--problem", "p2", "--out", str(rhs)]) == 0
    sidecar = json.loads((tmp_path / "p2.kten.bc.json").read_text())
    assert sidecar["bcs"] == ["dirichlet-neumann", "periodic"]
    assert sidecar["applied"] is True
    assert sidecar["faces"] == [
        {
            "axis": "x",
            "begin": {"kind": "potential", "value": 0.0},
            "end": {"kind": "field", "value": -0.5},
        },
        {"axis": "y", "begin": None, "end": None},
    ]
    assert sidecar["scale"] > 0.0


def test_gen_writes_the_sidecar_through_the_atomic_writer(tmp_path, monkeypatch):
    written = []
    real = formats._atomic_write_bytes

    def recorded(path, payload):
        written.append(path)
        real(path, payload)

    monkeypatch.setattr(formats, "_atomic_write_bytes", recorded)
    rhs = str(tmp_path / "p2.kten")
    assert cli.main(["gen", "--problem", "p2", "--out", rhs]) == 0
    assert written == [rhs, rhs + ".bc.json"]
    text = (tmp_path / "p2.kten.bc.json").read_text(encoding="ascii")
    assert text == json.dumps(json.loads(text), indent=1)
    assert sorted(os.listdir(tmp_path)) == ["p2.kten", "p2.kten.bc.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--problem", "p1", "--size", "5x10", "--variant", "2d_512x256", "--seed", "1"],
        ["--problem", "p1", "--size", "5x10", "--variant", "2d_512x256"],
        ["--problem", "p1", "--size", "5x10", "--seed", "1"],
        ["--problem", "p2", "--seed", "1"],
        ["--problem", "p3", "--variant", "2d_512x256", "--size", "512x256"],
    ],
    ids=["p1-variant-seed", "p1-variant", "p1-seed", "p2-seed", "p3-size"],
)
def test_gen_refuses_a_flag_of_another_problem(tmp_path, capsys, argv):
    out = tmp_path / "x.kten"
    assert cli.main(["gen", *argv, "--out", str(out)]) == 1
    assert "does not take" in capsys.readouterr().err
    assert not out.exists()


def test_gen_passes_the_seed_to_the_generator(tmp_path):
    p3 = str(tmp_path / "p3.kten")
    p3_argv = ["gen", "--problem", "p3", "--variant", "2d_512x256", "--seed", "3", "--out", p3]
    assert cli.main(p3_argv) == 0
    assert np.array_equal(read_tensor(p3), gen_problem3("2d_512x256", seed=3)[1])


def test_gen_p3_variant(tmp_path):
    rhs = tmp_path / "p3.kten"
    code = cli.main(
        ["gen", "--problem", "p3", "--variant", "3d_128x64x8", "--out", str(rhs)]
    )
    assert code == 0
    assert read_tensor(str(rhs)).shape == (128, 64, 8)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--problem", "p1", "--out", "x.kten"],  # p1 without --size
        ["gen", "--problem", "p3", "--out", "x.kten"],  # p3 without --variant
        ["gen", "--problem", "p1", "--size", "50", "--out", "x.kten"],
        ["solve", "--input", "missing.kten", "--bc", "x=periodic,y=periodic"],
        ["spectrum", "--bc", "x=sideways", "--size", "8"],
        ["not-a-command"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert cli.main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--size", "0", "--bc", "x=dirichlet"], "needs n >= 3, got n=0"),
        (["spectrum", "--size", "-4", "--bc", "x=dirichlet"], "needs n >= 3, got n=-4"),
        (["gen", "--problem", "p3", "--variant", "2d_512x256", "--seed", "-1", "--out", "{tmp}/x.kten"],
         "p3 seed"),
    ],
    ids=["spectrum-size-0", "spectrum-size-negative", "gen-p3-seed"],
)
def test_usage_errors_name_the_bad_value(tmp_path, capsys, argv, message):
    """A refused value is named: a spectrum extent below 3 by the 1D
    operator's rule, and a negative p3 seed by the generator, not numpy."""
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "x.kten").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--problem", "p1", "--size", "6x8", "--period", "12", "--out", "{tmp}/x.kten"],
         "--period"),
        (["experiment", "--name", "exp3", "--seed", "0", "--outdir", "{tmp}/x"], "--seed"),
        (["spectrum", "--size", "8", "--n", "8", "--bc", "x=dirichlet"], "--n"),
    ],
    ids=["gen-period", "experiment-seed", "spectrum-n"],
)
def test_fixed_inputs_are_not_options(tmp_path, capsys, argv, flag):
    """p1's stripe period and exp3's p3 seed are fixed, and a spectrum's
    sizes are ``--size`` alone: none of these flags exists."""
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert flag in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit):
        cli.main([argv[0], "--help"])
    assert flag not in capsys.readouterr().out


def _threshold_sides(path: str, count: int = 200):
    """Periodic 37x53 sides whose null share is ``NULL_SHARE_TOL`` to a
    relative 1e-6, each written to ``path`` and read back."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        base = rng.standard_normal((37, 53))
        base -= base.mean()
        shift = NULL_SHARE_TOL * np.linalg.norm(base) / np.sqrt(base.size)
        write_tensor(path, base + shift * (1 + rng.uniform(-1e-6, 1e-6)))
        yield read_tensor(path)


def test_solve_centers_exactly_the_sides_pcg_refuses(tmp_path, capsys, monkeypatch):
    """One centering rule: on sides at the threshold, in C or Fortran order,
    ``solve`` centers a side iff ``pcg`` refuses it as it stands, and never
    exits 1."""
    op = poisson_operator((37, 53), (BoundaryCondition.PERIODIC,) * 2)
    rhs, log_path = str(tmp_path / "h.kten"), tmp_path / "log.json"
    argv = ["solve", "--input", rhs, "--bc", "x=periodic,y=periodic", "--precond", "pinv"]
    argv += ["--max-iter", "1", "--log", str(log_path)]
    verdicts = set()
    for i, h in enumerate(_threshold_sides(rhs)):
        for layout in (np.ascontiguousarray, np.asfortranarray):
            side = layout(h)
            try:
                pcg(op, side, config=SolverConfig(max_iter=0))
                refused = False
            except ValueError:
                refused = True
            monkeypatch.setattr(formats, "read_tensor", lambda _, side=side: side.copy(order="K"))
            capsys.readouterr()
            assert cli.main(argv) == 0, (i, layout.__name__, capsys.readouterr().err)
            notes = json.loads(log_path.read_text())["warnings"]
            centered = "right-hand side centered (singular operator)" in notes
            assert centered == refused, (i, layout.__name__)
            verdicts.add(refused)
    capsys.readouterr()
    assert verdicts == {False, True}


@pytest.mark.parametrize("value", ["on", "off", "auto"])
def test_center_is_not_an_option(tmp_path, capsys, value):
    """The operator decides centering: it cannot be forced on a nonsingular
    system, nor switched off or on by name."""
    rhs = tmp_path / "p2.kten"
    cli.main(["gen", "--problem", "p2", "--out", str(rhs)])
    argv = ["solve", "--input", str(rhs), "--bc", "x=dirichlet-neumann,y=periodic"]
    assert cli.main(argv + ["--precond", "pinv", "--center", value]) == 1
    assert "--center" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["solve", "--help"])
    assert "--center" not in capsys.readouterr().out


def test_solve_stops_relative_to_a_tiny_side(tmp_path, capsys):
    """The stop is relative to ``|h|`` with no floor: p1 times ``2**-330``
    (``|h|`` about 1e-103) solves to the tolerance, not to the zero start."""
    rhs, sol = str(tmp_path / "p1.kten"), str(tmp_path / "u.kten")
    write_tensor(rhs, np.ldexp(gen_problem1(50, 100)[1], -330))
    argv = ["solve", "--input", rhs, "--bc", "x=periodic,y=periodic", "--precond", "pinv"]
    assert cli.main(argv + ["--tol", "1e-9", "--solution", sol]) == 0
    assert capsys.readouterr().out.startswith("done: 1 iterations")
    assert np.any(read_tensor(sol) != 0.0)


def test_solve_refuses_an_even_jacobi_polynomial_that_vanishes_with_exit_one(tmp_path, capsys):
    """On the even periodic p1 grid ``jacobi:p=2,omega=1`` broke down at
    iteration 94; setup now refuses it before the first iteration."""
    _, h = gen_problem1(50, 100)
    rhs = tmp_path / "rhs.kten"
    write_tensor(str(rhs), h)
    argv = ["solve", "--input", str(rhs), "--bc", "x=periodic,y=periodic"]
    assert cli.main(argv + ["--precond", "jacobi:p=2,omega=1"]) == 1
    assert "p=2, omega=1" in capsys.readouterr().err
    assert cli.main(argv + ["--precond", "jacobi:p=2,omega=1.01", "--tol", "1e-9"]) == 0


def test_solve_reports_breakdown_with_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "make_preconditioner", lambda op, spec: Negated(make_preconditioner(op, spec))
    )
    rhs = tmp_path / "p1.kten"
    cli.main(["gen", "--problem", "p1", "--size", "50x100", "--out", str(rhs)])
    log_path = tmp_path / "log.json"
    code = cli.main(
        [
            "solve",
            "--input", str(rhs),
            "--bc", "x=periodic,y=periodic",
            "--precond", "pinv",
            "--max-iter", "50",
            "--log", str(log_path),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "breakdown" in captured.out + captured.err
    doc = json.loads(log_path.read_text())
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert doc["breakdown"] == "indefinite"


def test_spectrum_one_dimensional_output(capsys):
    assert cli.main(["spectrum", "--size", "5", "--bc", "x=dirichlet"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    head, _, listed = line.partition(": ")
    assert head == "axis x (dirichlet, n=5)"
    want = analytic_spectrum(5, BoundaryCondition.DIRICHLET).values
    assert np.allclose([float(v) for v in listed.split(",")], want, atol=1e-12)


def test_spectrum_of_one_extent_builds_no_basis(capsys):
    """A 2048-point periodic spectrum used to build its 32 MiB basis first;
    each eigenvalue is printed with every digit of ``%.15g``."""
    code, peak = traced_peak(cli.main, ["spectrum", "--size", "2048", "--bc", "x=periodic"])
    assert code == 0
    assert peak < 1024 * 1024
    want = analytic_spectrum(2048, BoundaryCondition.PERIODIC).values
    listed = ",".join(f"{v:.15g}" for v in want)
    assert capsys.readouterr().out == f"axis x (periodic, n=2048): {listed}\n"


def test_spectrum_sums_work_on_one_extent(capsys):
    assert cli.main(["spectrum", "--size", "5", "--bc", "x=dirichlet", "--sums"]) == 0
    values = analytic_spectrum(5, BoundaryCondition.DIRICHLET).values
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"sum-spectrum min {values.min():.12g} max {values.max():.12g}"


def test_spectrum_size_is_required(capsys):
    """The one form: without ``--size`` the command exits 1 naming it."""
    assert cli.main(["spectrum", "--bc", "x=dirichlet"]) == 1
    captured = capsys.readouterr()
    assert "required: --size" in captured.err and captured.out == ""


def test_spectrum_grid_form_with_sums(capsys):
    code = cli.main(
        ["spectrum", "--size", "6x8", "--bc", "x=periodic,y=dirichlet", "--sums"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "axis x (periodic, n=6)" in out
    assert "axis y (dirichlet, n=8)" in out
    assert "sum-spectrum min" in out


@pytest.mark.parametrize(
    "size, bcs",
    [
        ("6x8", "x=periodic,y=dirichlet"),
        ("7x5x4", "x=neumann,y=dirichlet-neumann,z=neumann-dirichlet"),
    ],
)
def test_spectrum_sum_line_is_the_extremes_of_the_sum_tensor(capsys, size, bcs):
    assert cli.main(["spectrum", "--size", size, "--bc", bcs, "--sums"]) == 0
    dims = [int(n) for n in size.split("x")]
    conditions = [BoundaryCondition(entry.split("=")[1]) for entry in bcs.split(",")]
    sums = spectrum_sums(poisson_operator(dims, conditions))
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"sum-spectrum min {sums.min():.12g} max {sums.max():.12g}"


def test_spectrum_sums_build_no_grid_tensor(capsys):
    """The extremes of the 512x256x8 sum spectrum come from the per-axis
    extremes; the 8 MiB tensor of all sums is never built."""
    argv = ["spectrum", "--size", "512x256x8", "--bc", "x=periodic,y=periodic,z=periodic", "--sums"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    assert "sum-spectrum min 0 max 12" in capsys.readouterr().out
    assert peak < 1024 * 1024


def _read_summary(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_experiment_reports_a_diverged_stationary_run(tmp_path, capsys, monkeypatch):
    """A stand-alone Jacobi run that stopped on divergence says so on its line."""
    calls = []

    def diverging(op, h, omega=1.0, iters=100):
        calls.append(omega)
        return StationaryResult(residuals=[1.0, 1e3, 1e13], ops_cum=[0, 7, 14], diverged=True)

    monkeypatch.setattr(cli, "jacobi_standalone", diverging)
    assert cli.main(["experiment", "--name", "exp1", "--outdir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 3
    standalone = [line for line in lines if "jacobi-standalone" in line]
    assert len(standalone) == 3
    assert all(line.endswith(", diverged at sweep 2") for line in standalone)
    assert not any("diverged" in line for line in lines if line not in standalone)


EXPERIMENTS = ("exp1", "exp2", "exp3")


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    """exp1-3, each run once through ``cli.main``: name -> its output directory."""
    root = tmp_path_factory.mktemp("experiments")
    for name in EXPERIMENTS:
        assert cli.main(["experiment", "--name", name, "--outdir", str(root / name)]) == 0
    return {name: root / name for name in EXPERIMENTS}


# exp2's lowrank(r=1) is a near-tie (ROADMAP item 10): it crosses
# 1e-9 at record 145, after 1.01e-9 at record 144.
@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_verdicts_are_the_committed_goldens(experiments, name):
    """The ``problem``, ``preconditioner``, ``iters_to_1e-9`` and ``ops_cum``
    columns of ``summary.csv`` are ``tests/data/<exp>_verdicts.csv``, as CI reads them."""

    def verdicts(path):
        keep = ("problem", "preconditioner", "iters_to_1e-9", "ops_cum")
        return [[row[k] for k in keep] for row in _read_summary(path)]

    want = verdicts(Path(__file__).parent / "data" / f"{name}_verdicts.csv")
    assert verdicts(experiments[name] / "summary.csv") == want


def test_experiments_write_every_run_and_end_where_their_tables_say(experiments):
    """A ``.dat`` series per summary row and a ``.json`` log per ``pcg`` row;
    exp2's solves end unbroken at the rounding level, and each of exp1's
    stand-alone Jacobi runs ends above plain CG."""
    for name, outdir in experiments.items():
        rows = _read_summary(outdir / "summary.csv")
        solves = [r for r in rows if not r["preconditioner"].startswith("jacobi-standalone")]
        assert len(list(outdir.glob("*.dat"))) == len(rows), name
        assert len(list(outdir.glob("*.json"))) == len(solves), name
    for doc in (json.loads(path.read_text()) for path in experiments["exp2"].glob("*.json")):
        assert doc["breakdown"] is None, doc["preconditioner"]
        assert doc["final_norms"]["relative_true_residual"] <= 1e-12, doc["preconditioner"]
    rows = _read_summary(experiments["exp1"] / "summary.csv")
    cg, *standalone = [float(row["final_true_res"]) for row in rows]
    assert len(standalone) == 3 and all(res > cg for res in standalone)


def test_experiment_entry_keeps_the_log_of_a_breakdown(tmp_path, monkeypatch):
    """A preconditioner that turns indefinite mid-run does not abort the
    suite: the entry writes its partial log, marked as a breakdown."""
    monkeypatch.setattr(
        cli,
        "make_preconditioner",
        lambda op, spec: Negated(make_preconditioner(op, spec), after=1),
    )
    spec, h = gen_problem1(50, 100)
    cli._run_to_files(str(tmp_path), "p1_50x100", spec, h, "jacobi", 50)
    doc = json.loads((tmp_path / "p1_50x100_jacobi.json").read_text())
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert doc["breakdown"] == "indefinite"
    assert (doc["problem"], doc["shape"], doc["bcs"]) == ("p1_50x100", [50, 100], ["periodic"] * 2)
    assert len(doc["iterations"]) == 2
    assert doc["iterations"][0]["rho"] > 0.0 > doc["iterations"][1]["rho"]


def test_lowrank_run_logs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """exp2's low-rank solves write byte-identical run logs under 1 and 2
    BLAS threads: their congruences are built and applied without BLAS."""
    rhs, log = tmp_path / "p1.kten", tmp_path / "log.json"
    write_tensor(str(rhs), gen_problem1(50, 100)[1])
    for rank in (1, 3):
        argv = ["-m", "kronpcg", "solve", "--input", str(rhs), "--bc", "x=periodic,y=periodic",
                "--precond", f"lowrank:r={rank}", "--max-iter", "800", "--log", str(log)]
        logs = []
        for _ in run_python(argv):  # each run's log, taken away before the next run
            logs.append(log.read_bytes())
            log.unlink()
        assert logs[0] == logs[1], f"lowrank:r={rank}"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", "--size", "5", "--bc", "x=dirichlet"], 0),
        (["spectrum", "--size", "5", "--bc", "x=sideways"], 1),
        (["spectrum", "--size", "2", "--bc", "x=dirichlet"], 1),
        (["solve", "--input", "{rhs}", "--bc", "x=periodic,y=sideways"], 1),
        (["solve", "--input", "{rhs}", "--bc", "x=periodic,y=periodic", "--precond", "bogus"], 1),
    ],
    ids=["spectrum", "spectrum-bad-bc", "spectrum-too-small", "solve-bad-bc", "unknown-precond"],
)
def test_module_entry_exit_status(tmp_path, argv, code):
    """``python -m kronpcg`` exits with the status ``main`` returns; a
    failed command writes its error to stderr and nothing to stdout."""
    rhs = tmp_path / "rhs.kten"
    write_tensor(str(rhs), gen_problem1(6, 8)[1])
    args = ["-m", "kronpcg", *(arg.format(rhs=rhs) for arg in argv)]
    (done,) = run_python(args, threads=(None,), code=code)
    if code:
        assert done.stderr.startswith("error: ")
        assert done.stdout == ""
    else:
        assert done.stdout.startswith("axis x (dirichlet, n=5): ")
