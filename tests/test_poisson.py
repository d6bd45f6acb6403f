import dataclasses

import numpy as np
import pytest

from mdpvol import (PoissonSolution, gamma_invariant, generator_residual,
                    integrate, solve_poisson_cev, speed_measure)

KAPPA, THETA, XI = 2.0, 0.1, 0.5


@pytest.fixture(scope="module")
def measure():
    return gamma_invariant(KAPPA, THETA, XI)


@pytest.fixture(scope="module")
def linear_solution(measure):
    return solve_poisson_cev(lambda y: y, measure, q_h=1.0)


class TestClosedFormPhi:
    def test_exact_generator_residual(self):
        # u = -(y - theta) / (2 kappa) solves L u = (y - theta) / 2 exactly
        grid = np.geomspace(1e-7, 6.0, 2048)
        sol = PoissonSolution(grid=grid, u_values=-(grid - THETA) / (2 * KAPPA),
                              u_prime_values=np.full_like(grid, -0.5 / KAPPA),
                              centering_residual=0.0)
        res = generator_residual(gamma_invariant(KAPPA, THETA, XI), sol,
                                 lambda y: 0.5 * (y - THETA))
        assert res <= 1e-12


class TestSpeedMeasureSolver:
    def test_linear_functional_constant_derivative(self, linear_solution):
        window = np.linspace(0.01, 1.0, 400)
        gap = np.max(np.abs(linear_solution.u_prime(window) + 1.0 / KAPPA))
        assert gap <= 1e-4

    def test_half_variance_matches_phi(self, measure):
        sol = solve_poisson_cev(lambda y: 0.5 * y, measure, q_h=1.0)
        window = np.linspace(0.01, 1.0, 400)
        gap = np.max(np.abs(sol.u_prime(window) + 0.5 / KAPPA))
        assert gap <= 1e-4

    def test_constant_functional_gives_zero(self, measure):
        sol = solve_poisson_cev(lambda y: np.full_like(np.asarray(y, float), 3.0),
                                measure, q_h=0.0)
        assert np.max(np.abs(sol.u_values)) <= 1e-9
        assert np.max(np.abs(sol.u_prime_values)) <= 1e-9

    def test_centering(self, linear_solution):
        assert linear_solution.centering_residual <= 1e-6

    def test_two_sided_agreement(self, linear_solution):
        assert linear_solution.two_sided_gap <= 1e-5

    def test_generator_residual(self, linear_solution, measure):
        mean = integrate(measure, lambda y: y).value
        res = generator_residual(measure, linear_solution, lambda y: y - mean)
        assert res <= 1e-5

    def test_residual_detects_perturbation(self, linear_solution, measure):
        grid = linear_solution.grid
        perturbed = PoissonSolution(
            grid=grid,
            u_values=linear_solution.u_values + 0.1 * grid ** 2,
            u_prime_values=linear_solution.u_prime_values + 0.2 * grid,
            centering_residual=0.0)
        mean = integrate(measure, lambda y: y).value
        res = generator_residual(measure, perturbed, lambda y: y - mean)
        # L(0.1 y^2) = 0.2 kappa (theta - y) y + 0.1 xi^2 y; at y = 0.5 this is
        # -0.0675, far above the numerical residual floor
        assert res >= 0.05

    def test_cev_family_solution(self):
        q_g = 0.75
        measure = speed_measure(KAPPA, THETA, XI, q_g)
        sol = solve_poisson_cev(lambda y: y, measure, q_h=1.0)
        assert sol.centering_residual <= 1e-6
        assert sol.two_sided_gap <= 1e-5
        mean = integrate(measure, lambda y: y).value
        res = generator_residual(measure, sol, lambda y: y - mean)
        assert res <= 1e-5


class TestGrowthBehaviour:
    def test_tail_slope_bounded_by_declared_growth(self, measure):
        # H with q_h = 2: |u'| should grow at most like y^{q_h - 1 + 0.2}
        sol = solve_poisson_cev(lambda y: y ** 2, measure, q_h=2.0)
        grid = sol.grid
        upper = grid >= grid[-1] / 10
        logs_y = np.log(grid[upper])
        logs_u = np.log(np.abs(sol.u_prime_values[upper]))
        slope = np.polyfit(logs_y, logs_u, 1)[0]
        assert slope <= 2.0 - 1.0 + 0.2

    def test_zero_solution_zero_residual(self, measure):
        grid = np.geomspace(0.01, 1.0, 64)
        zero = PoissonSolution(grid=grid, u_values=np.zeros_like(grid),
                               u_prime_values=np.zeros_like(grid),
                               centering_residual=0.0)
        res = generator_residual(measure, zero, lambda y: np.zeros_like(y))
        assert res == 0.0


class TestDensityEvaluations:
    @pytest.mark.parametrize("construct", [
        lambda: gamma_invariant(KAPPA, THETA, XI),
        lambda: speed_measure(KAPPA, THETA, XI, 0.75),
    ], ids=["gamma", "speed_qg075"])
    def test_density_evaluated_once_per_node(self, construct):
        # one solve needs the density at its order-16 and order-8 segment
        # nodes and on the grid, plus a few scalars; each node once
        measure = construct()
        points = []

        def log_density(y):
            points.append(np.size(y))
            return measure.log_density(y)

        n_grid = 2048  # the solver's fixed grid size
        solve_poisson_cev(lambda y: y,
                          dataclasses.replace(measure, log_density=log_density))
        segments = n_grid - 1
        assert sum(points) <= 16 * segments + 8 * segments + n_grid + 8
