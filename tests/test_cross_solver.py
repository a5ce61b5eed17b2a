"""Cross-checks of the in-repo interior-point solver against cvxpy.

These tests re-pose the beamforming subproblems in cvxpy (Clarabel backend)
and compare optima; they validate the solver and the problem embeddings
together on the exact problem class the optimizer produces.
"""

import numpy as np
import pytest

cp = pytest.importorskip("cvxpy")

from irscrb.ao import irs_subproblem, sdr_objective, transmit_subproblem
from irscrb.arrays import centered_index, target_steering
from irscrb.channel import rician_channel
from irscrb.config import SystemConfig

from oracles import random_covariance, random_unit_profile


def _instance(m, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    theta = float(rng.uniform(-1.2, 1.2))
    a = target_steering(theta, n, 0.1, 0.2)
    return g, a, rng


def _cvxpy_objective(r_x, v_lifted, a, g, k):
    """The lifted objective as a cvxpy expression in (R_x, V)."""
    n = a.shape[0]
    idx = centered_index(n).astype(float)
    ag = np.diag(a) @ g
    # tr(Q V) with Q = conj(AG) R^T (AG)^T, rewritten in whichever variable
    def trace_pair(left_taper, right_taper):
        kernel = (np.diag(left_taper) @ ag).conj()
        other = (np.diag(right_taper) @ ag).T
        return cp.trace(kernel @ r_x.T @ other @ v_lifted)

    ones = np.ones(n)
    t_reflect = cp.real(trace_pair(ones, ones))
    t_taper = cp.real(trace_pair(idx, idx))
    cross = trace_pair(ones, idx)
    return ((k ** 2 - 1) / 3.0) * t_reflect + t_taper \
        - cp.quad_over_lin(cp.hstack([cp.real(cross), cp.imag(cross)]),
                           t_reflect)


@pytest.mark.parametrize("m,n,seed", [(2, 3, 0), (3, 4, 1), (4, 4, 2)])
def test_transmit_subproblem_matches_cvxpy(m, n, seed):
    g, a, rng = _instance(m, n, seed)
    k, p0 = 4, 1.0
    v = random_unit_profile(rng, n)
    lifted = np.outer(v, v.conj())

    r_var = cp.Variable((m, m), hermitian=True)
    objective = _cvxpy_objective(r_var, lifted, a, g, k)
    problem = cp.Problem(cp.Maximize(objective),
                         [r_var >> 0, cp.real(cp.trace(r_var)) <= p0])
    problem.solve(solver=cp.CLARABEL)
    assert problem.status == "optimal"

    ours, _ = transmit_subproblem(lifted, a, g, k, p0)
    f_ours = sdr_objective(ours, lifted, a, g, k)
    assert f_ours == pytest.approx(problem.value, rel=1e-6)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("m,n,seed", [(2, 3, 3), (3, 4, 4), (2, 5, 5)])
def test_irs_subproblem_matches_cvxpy(m, n, seed):
    g, a, rng = _instance(m, n, seed)
    k = 4
    r_x = random_covariance(rng, m, 1.0)

    v_var = cp.Variable((n, n), hermitian=True)
    objective = _cvxpy_objective(r_x, v_var, a, g, k)
    problem = cp.Problem(cp.Maximize(objective),
                         [v_var >> 0, cp.diag(v_var) == 1.0])
    problem.solve(solver=cp.CLARABEL)
    # clarabel occasionally reports optimal_inaccurate at ~1e-9 agreement
    assert problem.status in ("optimal", "optimal_inaccurate")

    lifted, _ = irs_subproblem(r_x, a, g, k)
    f_ours = sdr_objective(r_x, lifted, a, g, k)
    assert f_ours == pytest.approx(problem.value, rel=1e-6)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_desk_scale_irs_subproblem_matches_cvxpy():
    cfg = SystemConfig(M=8, N=16, K=8, T=64)
    ch = rician_channel(cfg, seed=9)
    a = target_steering(np.deg2rad(60.0), 16, cfg.spacing, cfg.wavelength)
    r_x = random_covariance(np.random.default_rng(9), 8, 1.0)
    scale = 1.0 / np.abs(ch.G).max() ** 2   # keep cvxpy's scaling happy

    v_var = cp.Variable((16, 16), hermitian=True)
    objective = _cvxpy_objective(scale * r_x, v_var, a, ch.G, 8)
    problem = cp.Problem(cp.Maximize(objective),
                         [v_var >> 0, cp.diag(v_var) == 1.0])
    problem.solve(solver=cp.CLARABEL)

    lifted, _ = irs_subproblem(r_x, a, ch.G, 8)
    f_ours = scale * sdr_objective(r_x, lifted, a, ch.G, 8)
    assert f_ours == pytest.approx(problem.value, rel=1e-6)
