"""End-to-end command-line coverage via cli.main, and the process exit
status of ``python -m kronpcg``."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import Negated, spectrum_sums, traced_peak
from kronpcg import cli, formats
from kronpcg.formats import RUN_LOG_SCHEMA, read_tensor, write_tensor
from kronpcg.laplace1d import BoundaryCondition, analytic_spectrum
from kronpcg.operators import NULL_SHARE_TOL, apply_bc_updates, checked_rhs, poisson_operator
from kronpcg.precond import StationaryResult, make_preconditioner
from kronpcg.problems import gen_problem1, gen_problem2, gen_problem3
from kronpcg.solver import SolverConfig, pcg


def test_gen_then_solve_round_trip(tmp_path, capsys):
    rhs = tmp_path / "p1.kten"
    assert cli.main(["gen", "--problem", "p1", "--size", "20x40", "--out", str(rhs)]) == 0
    assert rhs.exists()
    assert read_tensor(str(rhs)).shape == (20, 40)

    log_path = tmp_path / "run.json"
    sol_path = tmp_path / "u.kten"
    code = cli.main(
        [
            "solve",
            "--input", str(rhs),
            "--bc", "x=periodic,y=periodic",
            "--precond", "pinv",
            "--max-iter", "10",
            "--log", str(log_path),
            "--solution", str(sol_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "done:" in out

    doc = json.loads(log_path.read_text())
    jsonschema.validate(doc, RUN_LOG_SCHEMA)
    assert doc["final_norms"]["relative_true_residual"] <= 1e-11
    assert read_tensor(str(sol_path)).shape == (20, 40)


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


def test_solve_centers_an_uncentered_singular_side(tmp_path, capsys):
    rhs = tmp_path / "ones.kten"
    write_tensor(str(rhs), np.ones((6, 6)))
    argv = ["solve", "--input", str(rhs), "--bc", "x=periodic,y=periodic"]
    log_path = tmp_path / "log.json"
    assert cli.main(argv + ["--log", str(log_path)]) == 0
    doc = json.loads(log_path.read_text())
    assert any("centered" in w for w in doc["warnings"])
    capsys.readouterr()


def test_a_centered_singular_side_solves_without_a_centering_note(tmp_path, capsys):
    """A centered side is left as it is; the solver still centers its
    residual on a singular grid, so no false breakdown."""
    rhs = tmp_path / "p3.kten"
    cli.main(["gen", "--problem", "p3", "--variant", "3d_128x64x8", "--out", str(rhs)])
    log_path = tmp_path / "log.json"
    code = cli.main(
        [
            "solve",
            "--input", str(rhs),
            "--bc", "x=periodic,y=periodic,z=periodic",
            "--precond", "pinv",
            "--max-iter", "10",
            "--log", str(log_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(log_path.read_text())
    assert not any("centered" in w for w in doc["warnings"])
    assert doc["breakdown"] is None
    assert doc["final_norms"]["relative_true_residual"] <= 1e-11


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


@pytest.mark.parametrize(
    "gen, size, bcs, bad",
    [
        (gen_problem1, (5, 10), "x=periodic,y=periodic", np.nan),
        (gen_problem2, (10, 12), "x=dirichlet-neumann,y=periodic", np.inf),
    ],
    ids=["p1-nan", "p2-inf"],
)
def test_solve_rejects_a_non_finite_rhs_with_exit_one(tmp_path, capsys, gen, size, bcs, bad):
    _, h = gen(*size)
    h[1, 2] = bad
    rhs = tmp_path / "bad.kten"
    rhs.write_bytes(f"KTEN 2 {size[0]} {size[1]}\n".encode() + h.astype("<f8").tobytes(order="F"))
    assert cli.main(["solve", "--input", str(rhs), "--bc", bcs, "--precond", "pinv"]) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        "--tol=nan",
        "--tol=inf",
        "--tol=-1",
        "--tol=0",
        "--precond=jacobi:omega=nan",
        "--precond=jacobi:omega=inf",
        "--precond=jacobi:p=3,omega=1e308",
    ],
)
def test_solve_rejects_bad_numbers_with_exit_one(tmp_path, capsys, flag):
    _, h = gen_problem1(6, 8)
    rhs = tmp_path / "rhs.kten"
    write_tensor(str(rhs), h)
    argv = ["solve", "--input", str(rhs), "--bc", "x=periodic,y=periodic", "--max-iter", "5"]
    assert cli.main(argv + [flag]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "--tol must be a finite positive number, got nan"),
        ("--tol", "0", "--tol must be a finite positive number, got 0.0"),
        ("--tol", "-1", "--tol must be a finite positive number, got -1.0"),
        ("--max-iter", "-1", "--max-iter must be nonnegative"),
    ],
)
def test_solve_names_the_flag_of_a_bad_budget_or_tolerance(tmp_path, capsys, flag, value, message):
    """``SolverConfig``'s refusal is told in the flag's name, not the field's,
    before any log is written."""
    rhs, log_path = str(tmp_path / "p1.kten"), tmp_path / "log.json"
    write_tensor(rhs, gen_problem1(50, 100)[1])
    argv = ["solve", "--input", rhs, "--bc", "x=periodic,y=periodic", "--log", str(log_path)]
    assert cli.main(argv + [f"{flag}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not log_path.exists()


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


def test_solve_budget_defaults_to_the_solver_config(tmp_path, capsys):
    """``solve`` without ``--max-iter`` runs ``SolverConfig``'s own budget."""
    rhs, log_path = str(tmp_path / "p1.kten"), tmp_path / "log.json"
    write_tensor(rhs, gen_problem1(6, 8)[1])
    assert cli.main(["solve", "--input", rhs, "--bc", "x=periodic,y=periodic",
                     "--log", str(log_path)]) == 0
    capsys.readouterr()
    assert json.loads(log_path.read_text())["config"]["max_iter"] == SolverConfig().max_iter


def test_solve_applies_face_flags(tmp_path):
    rhs = tmp_path / "flat.kten"
    write_tensor(str(rhs), np.zeros((8, 10)))
    log_path = tmp_path / "log.json"
    code = cli.main(
        [
            "solve",
            "--input", str(rhs),
            "--bc", "x=dirichlet-neumann,y=periodic",
            "--uB", "x=1.0",
            "--eE", "x=-0.5",
            "--precond", "pinv",
            "--max-iter", "10",
            "--log", str(log_path),
        ]
    )
    assert code == 0
    doc = json.loads(log_path.read_text())
    assert any("folded" in w for w in doc["warnings"])
    assert doc["final_norms"]["relative_true_residual"] <= 1e-11


# Bounded condition -> the stems of the flags its (begin, end) faces take:
# ``u`` a potential on a Dirichlet end, ``e`` a Neumann end's value.
_FACE_STEMS = {
    BoundaryCondition.DIRICHLET: "uu",
    BoundaryCondition.NEUMANN: "ee",
    BoundaryCondition.DIRICHLET_NEUMANN: "ue",
    BoundaryCondition.NEUMANN_DIRICHLET: "eu",
}


@pytest.mark.parametrize("end", [0, 1], ids=["begin", "end"])
@pytest.mark.parametrize("bc", list(_FACE_STEMS), ids=[bc.value for bc in _FACE_STEMS])
def test_solve_takes_a_face_value_only_from_the_flag_of_its_kind(
    tmp_path, capsys, monkeypatch, bc, end
):
    """The face's own flag folds its value exactly as ``apply_bc_updates``;
    the other kind's flag exits 1, naming itself and the face's flag."""
    h = np.random.default_rng(8).standard_normal((6, 8))
    rhs = str(tmp_path / "h.kten")
    write_tensor(rhs, h)
    folded = []

    def recorded(op, g):  # the side as folded, before any centering
        folded.append(g.copy())
        return checked_rhs(op, g)

    monkeypatch.setattr(cli, "checked_rhs", recorded)
    argv = ["solve", "--input", rhs, "--bc", f"x={bc.value},y=periodic", "--precond", "pinv"]
    right = _FACE_STEMS[bc][end] + "BE"[end]
    wrong = {"u": "e", "e": "u"}[right[0]] + "BE"[end]
    assert cli.main(argv + [f"--{right}", "x=0.37"]) == 0
    pair = (0.37, None) if end == 0 else (None, 0.37)
    want = apply_bc_updates(h, (bc, BoundaryCondition.PERIODIC), (pair, (None, None)))
    assert folded[0].tobytes() == want.tobytes()
    capsys.readouterr()
    assert cli.main(argv + [f"--{wrong}", "x=0.37"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{wrong}: ") and f"from --{right}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["uB", "eE"])
def test_solve_refuses_a_non_finite_face_value(tmp_path, capsys, flag, value):
    """A non-finite face value is the flag's fault, not the input file's."""
    rhs, log_path = str(tmp_path / "p2.kten"), tmp_path / "log.json"
    cli.main(["gen", "--problem", "p2", "--out", rhs])
    capsys.readouterr()
    argv = ["solve", "--input", rhs, "--bc", "x=dirichlet-neumann,y=periodic", "--precond", "pinv"]
    assert cli.main(argv + [f"--{flag}", f"x={value}", "--log", str(log_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad --{flag} entry 'x={value}': ")
    assert "is not a finite number" in captured.err and captured.out == ""
    assert not log_path.exists()


@pytest.mark.parametrize("flag", ["uB", "uE", "eB", "eE"])
def test_solve_refuses_any_face_flag_on_a_periodic_axis(tmp_path, capsys, flag):
    rhs = str(tmp_path / "h.kten")
    write_tensor(rhs, np.ones((6, 8)))
    argv = ["solve", "--input", rhs, "--bc", "x=dirichlet,y=periodic", f"--{flag}", "y=1"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert f"--{flag}: axis y (periodic) has no faces" in captured.err and captured.out == ""


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


def test_experiment_exp1_compares_cg_with_stationary_jacobi(tmp_path, capsys):
    outdir = tmp_path / "exp1"
    assert cli.main(["experiment", "--name", "exp1", "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "jacobi-standalone(omega=1)" in out
    rows = _read_summary(outdir / "summary.csv")
    assert len(rows) == 4  # plain CG plus three damping choices
    cg = float(rows[0]["final_true_res"])
    for row in rows[1:]:
        assert float(row["final_true_res"]) > cg
    assert (outdir / "p1_50x100_none.dat").exists()


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


def test_experiment_exp2_sweeps_preconditioners(tmp_path, capsys):
    outdir = tmp_path / "exp2"
    assert cli.main(["experiment", "--name", "exp2", "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    rows = {row["preconditioner"]: row for row in _read_summary(outdir / "summary.csv")}
    assert rows["pinv"]["iters_to_1e-9"] == "1"
    assert rows["identity"]["iters_to_1e-9"] != ""
    assert int(rows["jacobi(p=3, omega=1.3)"]["iters_to_1e-9"]) < int(
        rows["identity"]["iters_to_1e-9"]
    )
    assert int(rows["lowrank(r=3)"]["iters_to_1e-9"]) < 40
    # Every run wrote a log and a plottable series.
    logs = [json.loads(path.read_text()) for path in outdir.glob("*.json")]
    assert len(logs) == len(rows)
    assert len(list(outdir.glob("*.dat"))) == len(rows)
    # No run breaks down, and every run ends at the rounding level.
    for doc in logs:
        assert doc["breakdown"] is None, doc["preconditioner"]
        assert doc["final_norms"]["relative_true_residual"] <= 1e-12, doc["preconditioner"]


@pytest.fixture(scope="module")
def exp3_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("exp3")
    assert cli.main(["experiment", "--name", "exp3", "--outdir", str(outdir)]) == 0
    return outdir


def test_experiment_exp3_runs_the_spectral_preconditioner_everywhere(exp3_dir):
    rows = _read_summary(exp3_dir / "summary.csv")
    assert len(rows) == 9  # four stripe grids, the band problem, four random variants
    for row in rows:
        assert row["iters_to_1e-9"] != ""
        assert int(row["iters_to_1e-9"]) <= 3


def test_experiment_exp3_keeps_every_run_apart(exp3_dir):
    """The four stripe grids share a family; the grid shape in each run's
    label keeps their files and summary rows apart."""
    problems = [row["problem"] for row in _read_summary(exp3_dir / "summary.csv")]
    assert len(set(problems)) == 9
    assert "p1_500x1000" in problems
    assert len(list(exp3_dir.glob("*.json"))) == 9
    assert len(list(exp3_dir.glob("*.dat"))) == 9


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
    rhs = tmp_path / "p1.kten"
    write_tensor(str(rhs), gen_problem1(50, 100)[1])
    src = str(Path(__file__).resolve().parents[1] / "src")
    for rank in (1, 3):
        logs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            log = tmp_path / f"r{rank}_t{threads}.json"
            argv = ["solve", "--input", str(rhs), "--bc", "x=periodic,y=periodic",
                    "--precond", f"lowrank:r={rank}", "--max-iter", "800", "--log", str(log)]
            done = subprocess.run(
                [sys.executable, "-m", "kronpcg", *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert done.returncode == 0, done.stderr
            logs.append(log.read_bytes())
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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "kronpcg", *(arg.format(rhs=rhs) for arg in argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code:
        assert done.stderr.startswith("error: ")
        assert done.stdout == ""
    else:
        assert done.stdout.startswith("axis x (dirichlet, n=5): ")
