import re

import numpy as np
import pytest

from irscrb.allocation import (AllocationDomainError, allocate_exhaustive,
                               allocate_optimal, allocate_suboptimal, split_cubic,
                               split_objective)

BUDGETS = [(400.0, 0.2), (400.0, 1.0), (600.0, 0.2), (600.0, 0.5),
           (600.0, 1.0), (600.0, 2.0), (50.0, 1.0)]


class TestOptimal:
    @pytest.mark.parametrize("q_tot,w_i", BUDGETS)
    def test_split_ratio_solves_the_cubic(self, q_tot, w_i):
        result = allocate_optimal(q_tot, w_i, 1.0)
        assert abs(split_cubic(result.varsigma, q_tot, 1.0)) <= 1e-8

    @pytest.mark.parametrize("q_tot", [400.0, 600.0])
    def test_more_sensors_than_elements_at_unit_weights(self, q_tot):
        result = allocate_optimal(q_tot, 1.0, 1.0)
        assert result.k_cont > result.n_cont

    def test_budget_identity(self):
        for q_tot, w_i in BUDGETS:
            r = allocate_optimal(q_tot, w_i, 1.0)
            assert w_i * r.n_cont + r.k_cont == pytest.approx(q_tot, rel=1e-6)

    def test_beats_every_integer_split(self):
        # independent integer enumeration over N + K = 600 with K even
        best = -np.inf
        for k in range(2, 599, 2):
            best = max(best, split_objective(600 - k, k))
        result = allocate_optimal(600.0, 1.0, 1.0)
        assert result.objective >= best * (1.0 - 0.005)

    def test_split_ratio_maximizes_the_gain(self):
        for q_tot, w_i in BUDGETS:
            r = allocate_optimal(q_tot, w_i, 1.0)
            q2 = q_tot ** 2
            beta4 = -2.0 * (q2 - 1.0) / (q2 + 1.0)
            grid = np.linspace(-2.0 / beta4 + 1e-9, 10.0 * r.varsigma, 10_000)
            # W_I N + W_s K = Q at N = Q/((1+s) W_I), K = s Q/((1+s) W_s), W_s = 1
            gains = split_objective(q_tot / ((1.0 + grid) * w_i), grid * q_tot / (1.0 + grid))
            assert r.objective >= gains.max() * (1.0 - 1e-9)

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            allocate_optimal(2.9, 1.0, 1.0)


class TestSuboptimal:
    def test_reference_point(self):
        # frozen exact-rational evaluation: N = (2*600^3 - 2*600)/(5*600^2+1),
        # K = (3*600^3 + 3*600)/(5*600^2+1)
        r = allocate_suboptimal(600.0, 1.0, 1.0)
        assert r.n_cont == pytest.approx(239.99920000044443, rel=1e-12)
        assert r.k_cont == pytest.approx(360.00079999955557, rel=1e-12)

    def test_budget_identity(self):
        for q_tot, w_i in BUDGETS:
            r = allocate_suboptimal(q_tot, w_i, 1.0)
            assert w_i * r.n_cont + r.k_cont == pytest.approx(q_tot, rel=1e-6)

    @pytest.mark.parametrize("w_i", [0.2, 0.5, 1.0, 1.5, 2.0])
    def test_within_two_percent_of_optimal(self, w_i):
        opt = allocate_optimal(600.0, w_i, 1.0)
        sub = allocate_suboptimal(600.0, w_i, 1.0)
        assert sub.objective >= opt.objective * 0.98


class TestExhaustive:
    def test_dominates_on_grid_containing_the_closed_form_point(self):
        opt = allocate_optimal(600.0, 1.0, 1.0)
        # step = N/2^k makes i * step hit N exactly in floats
        step = opt.n_cont / 1024.0
        ex = allocate_exhaustive(600.0, 1.0, 1.0, step)
        assert ex.objective >= opt.objective

    def test_refinement_never_decreases(self):
        coarse = allocate_exhaustive(600.0, 1.0, 1.0, 2.0)
        fine = allocate_exhaustive(600.0, 1.0, 1.0, 0.2)
        assert fine.objective >= coarse.objective

    def test_quarter_step_close_to_closed_form(self):
        opt = allocate_optimal(600.0, 1.0, 1.0)
        ex = allocate_exhaustive(600.0, 1.0, 1.0, 0.25)
        assert abs(ex.n_cont - opt.n_cont) <= 1.0
        assert abs(ex.k_cont - opt.k_cont) <= 1.0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            allocate_exhaustive(600.0, 1.0, 1.0, 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="feasible"):
            allocate_exhaustive(4.0, 1.0, 1.0, 50.0)

    @pytest.mark.parametrize("q_tot, w_i, w_s, step", [(600.0, 1.0, 1e-300, 1.0),
                                                       (1e200, 1.0, 1.0, 1e194)])
    def test_overflow_names_the_inputs(self, q_tot, w_i, w_s, step):
        # once a bare "overflow encountered in power" (or "in square") warning
        with pytest.raises(AllocationDomainError,
                           match=re.escape(f"q_tot = {q_tot}, w_i = {w_i} and w_s = {w_s} ")):
            allocate_exhaustive(q_tot, w_i, w_s, step)


def test_result_requires_positive_counts():
    from irscrb.allocation import AllocationResult

    with pytest.raises(ValueError, match="positive"):
        AllocationResult(n_cont=-1.0, k_cont=2.0, varsigma=1.0,
                         mode="optimal", objective=0.0)
