import math

import numpy as np
import pytest

import aoinet as a
from aoinet.closed_forms import TriangleRates
from conftest import serial, triangle, triangle_chain


class TestSerialCascade:
    def test_examples(self):
        assert a.serial_cascade_age(1.0, [2, 2, 2, 2]) == pytest.approx(3.0)
        assert a.serial_cascade_age(1.0, [1.0]) == pytest.approx(2.0)
        assert a.serial_cascade_age(0.5, [1.0, 4.0]) == pytest.approx(3.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            a.serial_cascade_age(1.0, [])
        with pytest.raises(ValueError):
            a.serial_cascade_age(0.0, [1.0])
        with pytest.raises(ValueError):
            a.serial_cascade_age(1.0, [1.0, -2.0])

    def test_agrees_with_exact_engine(self):
        rates = [0.7, 2.3, 1.1]
        net = serial(1.4, rates)
        want = a.serial_cascade_age(1.4, rates)
        last = net.subset_mask(["v3"])
        assert a.average_age(net, last) == pytest.approx(want, abs=1e-9)


class TestTriangleAge:
    def test_distinct_rates(self):
        r = TriangleRates(lam=1.0, mu_sv=1.0, mu_vd=2.0, mu_sd=3.0)
        assert a.triangle_age(r) == pytest.approx(1.3, abs=1e-12)

    def test_equal_rates(self):
        r = TriangleRates(lam=1.0, mu_sv=1.0, mu_vd=1.0, mu_sd=1.0)
        assert a.triangle_age(r) == pytest.approx(1.75, abs=1e-12)
        r2 = TriangleRates(lam=2.0, mu_sv=1.0, mu_vd=1.0, mu_sd=1.0)
        assert a.triangle_age(r2) == pytest.approx(1.25, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangleRates(lam=1.0, mu_sv=0.0, mu_vd=1.0, mu_sd=1.0)

    def test_branches_agree_in_limit(self):
        eps = 1e-6
        near = TriangleRates(lam=1.0, mu_sv=1.0, mu_vd=1.0 + eps, mu_sd=2.0)
        equal = TriangleRates(lam=1.0, mu_sv=1.0, mu_vd=1.0, mu_sd=2.0)
        assert abs(a.triangle_age(near) - a.triangle_age(equal)) < 1e-4

    def test_agrees_with_exact_engine(self):
        cases = [
            TriangleRates(1.0, 1.0, 2.0, 3.0),
            TriangleRates(0.7, 1.5, 1.5, 0.4),
            TriangleRates(2.0, 0.3, 0.9, 1.1),
        ]
        for r in cases:
            net = triangle(r.lam, r.mu_sv, r.mu_vd, r.mu_sd)
            got = a.average_age(net, net.subset_mask(["d"]))
            assert got == pytest.approx(a.triangle_age(r), abs=1e-9)


class TestTriangleMinTail:
    def test_at_zero(self):
        r = TriangleRates(1.0, 1.0, 2.0, 3.0)
        assert a.triangle_min_tail(r, 0.0) == pytest.approx(1.0)

    def test_distinct_rate_value(self):
        r = TriangleRates(1.0, 1.0, 2.0, 3.0)
        want = 2 * math.exp(-4.0) - math.exp(-5.0)
        assert a.triangle_min_tail(r, 1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.029893, abs=5e-7)

    def test_equal_rate_value(self):
        r = TriangleRates(1.0, 1.0, 1.0, 1.0)
        assert a.triangle_min_tail(r, 1.0) == pytest.approx(
            2 * math.exp(-2.0), abs=1e-12
        )
        assert 2 * math.exp(-2.0) == pytest.approx(0.270671, abs=5e-7)

    def test_negative_rejected(self):
        r = TriangleRates(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            a.triangle_min_tail(r, -0.5)

    def test_valid_survival_function(self):
        for r in (
            TriangleRates(1.0, 1.0, 2.0, 3.0),
            TriangleRates(1.0, 2.0, 2.0, 0.5),
        ):
            grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0]
            vals = [a.triangle_min_tail(r, x) for x in grid]
            assert vals[0] == pytest.approx(1.0)
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
            assert vals[-1] < 1e-6

    @pytest.mark.parametrize(
        "rates", [(1.0, 1.0, 2.0, 3.0), (2.0, 0.5, 3.0, 1.0), (0.7, 1.3, 1.3, 0.4)]
    )
    def test_convolved_with_generation_is_cdf_grid(self, rates):
        # age_d = X + M with X ~ Exp(lam) independent of the path minimum M,
        # so Pr[age_d <= d] = int_0^d lam e^{-lam t} (1 - S_M(d - t)) dt
        import scipy.integrate as si

        r = TriangleRates(*rates)
        net = triangle(*rates)
        grid = np.arange(0.0, 4.0 + 0.125, 0.25)
        got = a.cdf_grid(net, net.subset_mask(["d"]), grid)
        for d, value in zip(grid, got):
            want, _ = si.quad(
                lambda t: r.lam
                * math.exp(-r.lam * t)
                * (1.0 - a.triangle_min_tail(r, d - t)),
                0.0,
                d,
            )
            assert value == pytest.approx(want, abs=1e-12)

    def test_integral_recovers_mean_shift(self):
        # integral of the survival function is E[min path], which is the
        # triangle age minus the generation term
        import scipy.integrate as si

        r = TriangleRates(1.0, 1.0, 2.0, 3.0)
        val, _ = si.quad(lambda x: a.triangle_min_tail(r, x), 0, 50)
        assert val == pytest.approx(a.triangle_age(r) - 1.0 / r.lam, abs=1e-9)


class TestTriangleCascade:
    def test_examples(self):
        assert a.triangle_cascade_age(1.0, [(1, 1, 1)]) == pytest.approx(1.75)
        assert a.triangle_cascade_age(1.0, [(1, 1, 1)] * 2) == pytest.approx(2.5)
        assert a.triangle_cascade_age(1.0, [(1, 1, 1)] * 4) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            a.triangle_cascade_age(1.0, [])
        with pytest.raises(ValueError):
            a.triangle_cascade_age(1.0, [(1, 0, 1)])

    def test_agrees_with_exact_engine_four_triangles(self):
        tris = [(1.0, 2.0, 0.5), (1.0, 1.0, 1.0), (0.3, 0.7, 2.0), (1.5, 1.5, 1.5)]
        net = triangle_chain(1.0, tris)
        got = a.average_age(net, net.subset_mask(["v8"]))
        assert got == pytest.approx(a.triangle_cascade_age(1.0, tris), abs=1e-9)
