import numpy as np
import pytest

from kronpcg import problems
from kronpcg.laplace1d import BoundaryCondition
from kronpcg.operators import apply_bc_updates
from kronpcg.problems import P3_VARIANTS, gen_problem1, gen_problem2, gen_problem3
from kronpcg.solver import SolverConfig

BC = BoundaryCondition


def test_normalize_sets_the_inverse_cell_count_norm():
    rng = np.random.default_rng(1)
    h, scale = problems._normalized(rng.standard_normal((7, 9)))
    assert np.linalg.norm(h) == pytest.approx(1.0 / 63, rel=1e-14)
    assert scale > 0.0
    with pytest.raises(ValueError):
        problems._normalized(np.zeros((4, 4)))


class TestProblem1:
    def test_reconstruction(self):
        """The stored side is exactly the centered, normalized stripe pattern."""
        n, q, period = 12, 20, 12
        spec, h = gen_problem1(n, q)
        phase = np.add.outer(np.arange(n), 2 * np.arange(q)) % period
        raw = np.where(phase == 0, 1.0, 0.0) - np.where(phase == period // 2, 1.0, 0.0)
        raw = raw - raw.mean()
        raw = raw / (raw.size * np.linalg.norm(raw))
        assert np.allclose(h, raw, atol=1e-16)

    def test_metadata_and_invariants(self):
        spec, h = gen_problem1(50, 100)
        assert spec.shape == (50, 100)
        assert spec.bcs == (BC.PERIODIC, BC.PERIODIC)
        assert abs(h.sum()) < 1e-15
        assert np.linalg.norm(h) == pytest.approx(1.0 / 5000, rel=1e-14)
        with pytest.raises(TypeError):
            gen_problem1(10, 10, period=12)  # the period is fixed


class TestProblem2:
    def test_defaults_and_norm(self):
        spec, h = gen_problem2()
        assert spec.shape == (40, 120)
        assert spec.bcs == (BC.DIRICHLET_NEUMANN, BC.PERIODIC)
        assert np.linalg.norm(h) == pytest.approx(1.0 / 4800, rel=1e-14)
        assert spec.scale > 0.0

    def test_reconstruction_with_boundary_folding(self):
        spec, h = gen_problem2()
        n, q = spec.shape
        width = 5  # the default band
        start = max(0, n // 3 - width // 2)
        raw = np.zeros((n, q))
        raw[start : start + width, :] = 1.0
        raw = apply_bc_updates(raw, spec.bcs, ((0.0, -0.5), (None, None)))
        assert np.allclose(h, raw * spec.scale, atol=1e-18)
        # The field face really is folded in: the last row sits below zero.
        assert np.all(h[-1, :] < 0.0)

    def test_boundary_data_is_recorded(self):
        spec, _ = gen_problem2()
        assert spec.boundary == ((0.0, -0.5), (None, None))

    def test_physical_potential_drops_at_the_prescribed_rate(self):
        """Undoing the normalization, the solved potential must fall off the
        field-driven edge at slope 1/2 (all the band charge exits there)."""
        from kronpcg.precond import PinvPreconditioner
        from kronpcg.solver import pcg

        spec, h = gen_problem2()
        op = spec.operator()
        u, _ = pcg(op, h, PinvPreconditioner(op), config=SolverConfig(max_iter=10))
        u_phys = u / spec.scale
        slope = float((u_phys[-1, :] - u_phys[-2, :]).mean())
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestProblem3:
    @pytest.mark.parametrize("variant", sorted(P3_VARIANTS))
    def test_shapes_norms_and_zero_total(self, variant):
        spec, h = gen_problem3(variant, seed=0)
        dims = P3_VARIANTS[variant]
        assert spec.shape == dims
        assert h.shape == dims
        assert all(bc is BC.PERIODIC for bc in spec.bcs)
        size = int(np.prod(dims))
        assert np.linalg.norm(h) == pytest.approx(1.0 / size, rel=1e-13)
        assert abs(h.sum()) <= 1e-12 * np.abs(h).sum()

    def test_stripes_have_the_documented_support_and_signs(self):
        spec, h = gen_problem3("2d_512x256")
        pos_start, wide = 512 // 8, 64
        neg_start, narrow = 5 * 512 // 8, 32
        pos = h[pos_start : pos_start + wide]
        neg = h[neg_start : neg_start + narrow]
        assert np.all(pos > 0.0)
        assert np.all(neg < 0.0)
        mask = np.ones(512, dtype=bool)
        mask[pos_start : pos_start + wide] = False
        mask[neg_start : neg_start + narrow] = False
        assert np.abs(h[mask]).max() <= 1e-18

    def test_seed_reproducibility(self):
        _, a = gen_problem3("3d_128x64x8", seed=7)
        _, b = gen_problem3("3d_128x64x8", seed=7)
        _, c = gen_problem3("3d_128x64x8", seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
