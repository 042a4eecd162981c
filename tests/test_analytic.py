import math

import numpy as np
import pytest

from dcn_robust.analytic import (
    FailureType,
    MinCutSpec,
    MttfQuality,
    OutOfScopeError,
    burtin_pittel_mttf,
    closed_form_mttf,
    elapsed_time,
    fat_tree_deficit_server_threshold,
    interface_gain_server_threshold,
    min_cut_catalog,
    normalized_time,
    normalized_time_table,
)
from dcn_robust.topology import TopologyKind, TopologyParams

from conftest import mttf_numeric_quadrature


def three_layer_3k():
    return TopologyParams(kind=TopologyKind.THREE_LAYER, n_a=12, n_e=48, pairs=6)


def fat_tree(n):
    return TopologyParams(kind=TopologyKind.FAT_TREE, n=n)


def bcube(n, l):
    return TopologyParams(kind=TopologyKind.BCUBE, n=n, l=l)


def dcell(n, l):
    return TopologyParams(kind=TopologyKind.DCELL, n=n, l=l)


class TestElapsedTime:
    def test_first_of_ten(self):
        assert elapsed_time(1, 10, 1.0) == pytest.approx(0.1)

    def test_full_harmonic(self):
        assert elapsed_time(3, 3, 1.0) == pytest.approx(1 / 3 + 1 / 2 + 1)

    def test_scaled(self):
        assert elapsed_time(2, 5, 100.0) == pytest.approx(45.0)

    def test_monte_carlo_oracle_second_of_five(self):
        # Independent check: mean 2nd order statistic of 5 exponentials.
        rng = np.random.default_rng(20240501)
        draws = rng.exponential(scale=100.0, size=(1_000_000, 5))
        second = np.sort(draws, axis=1)[:, 1]
        assert elapsed_time(2, 5, 100.0) == pytest.approx(second.mean(), rel=5e-3)

    def test_zero_failures(self):
        assert elapsed_time(0, 7, 3.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            elapsed_time(6, 5)
        with pytest.raises(ValueError):
            elapsed_time(-1, 5)
        with pytest.raises(ValueError):
            elapsed_time(0, 0)

    def test_lifetime_model_argument(self):
        assert elapsed_time(1, 4, 8.0) == pytest.approx(2.0)
        spec = MinCutSpec(2, 5)
        params = TopologyParams(kind=TopologyKind.BCUBE, n=4, l=1)
        calls = (
            lambda mean: elapsed_time(1, 10, mean),
            lambda mean: burtin_pittel_mttf(spec, mean),
            lambda mean: mttf_numeric_quadrature(spec, mean),
            lambda mean: closed_form_mttf(params, FailureType.LINK, mean),
        )
        for call in calls:
            for bad in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="lifetime must be positive"):
                    call(bad)


class TestNormalizedTime:
    def test_zero(self):
        assert normalized_time(0, 100) == 0.0

    @pytest.mark.parametrize("big_f", [1, 5, 100])
    def test_full_removal_is_harmonic_number(self, big_f):
        harmonic = math.fsum(1 / i for i in range(1, big_f + 1))
        assert normalized_time(big_f, big_f) == pytest.approx(harmonic, rel=1e-15)

    def test_ninety_percent_is_about_2_3(self):
        big_f = 100_000
        assert normalized_time(int(0.9 * big_f), big_f) == pytest.approx(2.3, abs=0.01)

    def test_table_matches_scalar(self):
        table = normalized_time_table(37)
        for f in (0, 1, 5, 36, 37):
            assert table[f] == pytest.approx(normalized_time(f, 37), rel=1e-14)

    def test_near_independence_of_population_size(self):
        # Equal failed-element ratios give near-equal normalized times, no
        # matter the population size. 0.4*F is fractional for F=759, so the
        # comparison interpolates linearly between adjacent failure counts.
        def at_ratio(fer, big_f):
            exact = fer * big_f
            lo = int(exact)
            frac = exact - lo
            table = normalized_time_table(big_f)
            return (1 - frac) * table[lo] + frac * table[lo + 1]

        values = [at_ratio(0.4, big_f) for big_f in (759, 5133, 16380)]
        spread = (max(values) - min(values)) / min(values)
        assert spread < 1e-3


class TestBurtinPittel:
    def test_single_element_cut_reduces_to_inverse_count(self):
        servers = 3456
        assert burtin_pittel_mttf(MinCutSpec(1, servers), 2.0) == pytest.approx(2.0 / servers)

    def test_bcube2_vs_dcell2_ratio_is_sqrt_1_5(self):
        for servers in (100, 3364, 8100):
            ratio = burtin_pittel_mttf(MinCutSpec(2, servers)) / burtin_pittel_mttf(
                MinCutSpec(2, 1.5 * servers)
            )
            assert abs(ratio - math.sqrt(1.5)) < 1e-12

    def test_r2_closed_value(self):
        # 0.5 * (1/58) * Gamma(1/2); cross-checked by quadrature below.
        value = burtin_pittel_mttf(MinCutSpec(2, 3364), 1.0)
        assert value == pytest.approx(0.5 * math.sqrt(math.pi) / 58, rel=1e-14)

    def test_invalid_cut(self):
        with pytest.raises(ValueError):
            MinCutSpec(0, 5)
        with pytest.raises(ValueError):
            MinCutSpec(2, 0.5)


class TestQuadratureOracle:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("c", [1, 10, 1e3, 1e5])
    @pytest.mark.parametrize("mean", [1.0, 100.0])
    def test_agrees_with_closed_form(self, r, c, mean):
        closed = burtin_pittel_mttf(MinCutSpec(r, c), mean)
        numeric = mttf_numeric_quadrature(MinCutSpec(r, c), mean)
        assert abs(numeric - closed) / closed < 1e-8

    def test_exact_exponential_integral(self):
        assert mttf_numeric_quadrature(MinCutSpec(1, 10)) == pytest.approx(0.1, rel=1e-10)

    def test_gaussian_integral(self):
        assert mttf_numeric_quadrature(MinCutSpec(2, 1)) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-10
        )


class TestMinCutCatalog:
    def test_link_cuts(self):
        assert min_cut_catalog(three_layer_3k(), FailureType.LINK) == MinCutSpec(1, 3456)
        assert min_cut_catalog(fat_tree(24), FailureType.LINK) == MinCutSpec(1, 3456)
        assert min_cut_catalog(bcube(58, 1), FailureType.LINK) == MinCutSpec(2, 3364)
        assert min_cut_catalog(dcell(58, 1), FailureType.LINK) == MinCutSpec(2, 1.5 * 3422)
        assert min_cut_catalog(dcell(7, 2), FailureType.LINK) == MinCutSpec(3, 3192)

    def test_switch_cuts(self):
        assert min_cut_catalog(three_layer_3k(), FailureType.SWITCH) == MinCutSpec(1, 72)
        spec = min_cut_catalog(fat_tree(24), FailureType.SWITCH)
        assert spec.r == 1
        assert spec.c == pytest.approx(288, rel=1e-12)  # (2|S|^2)^(1/3) = edge switches
        assert min_cut_catalog(bcube(15, 2), FailureType.SWITCH) == MinCutSpec(3, 3375)
        spec = min_cut_catalog(dcell(7, 2), FailureType.SWITCH)
        assert (spec.r, spec.c) == (8, math.comb(9, 4))
        assert math.comb(9, 4) == 126

    def test_dcell_switch_out_of_scope(self):
        with pytest.raises(OutOfScopeError):
            min_cut_catalog(dcell(3, 3), FailureType.SWITCH)
        with pytest.raises(OutOfScopeError):
            min_cut_catalog(dcell(3, 0), FailureType.SWITCH)

    def test_server_failures_have_no_cut_model(self):
        with pytest.raises(OutOfScopeError):
            min_cut_catalog(bcube(4, 1), FailureType.SERVER)


class TestClosedFormMttf:
    def test_three_layer_switch(self):
        est = closed_form_mttf(three_layer_3k(), FailureType.SWITCH, 1.0)
        assert est.value == pytest.approx(48 / 3456)
        assert est.quality is MttfQuality.APPROXIMATE

    def test_dcell2_switch_is_exact_order_statistic(self):
        est = closed_form_mttf(dcell(58, 1), FailureType.SWITCH, 1.0)
        servers = 3422
        assert est.value == pytest.approx(math.sqrt(4 * servers + 1) / servers, rel=1e-14)
        assert est.exact
        # Same thing the exact argument states: time until 2 of n+1 switches fail.
        assert est.value == pytest.approx(elapsed_time(2, 59, 1.0), rel=1e-12)

    def test_known_poor_cases_are_flagged(self):
        assert (
            closed_form_mttf(bcube(58, 1), FailureType.SWITCH).quality
            is MttfQuality.POOR_APPROXIMATION
        )
        assert (
            closed_form_mttf(dcell(7, 2), FailureType.SWITCH).quality
            is MttfQuality.POOR_APPROXIMATION
        )
        assert (
            closed_form_mttf(bcube(15, 2), FailureType.SWITCH).quality
            is MttfQuality.APPROXIMATE
        )

    def test_fat_tree_trails_dcell2_by_42x_at_3k(self):
        ft = closed_form_mttf(fat_tree(24), FailureType.LINK).value
        # compare at the same server count
        dc = burtin_pittel_mttf(MinCutSpec(2, 1.5 * 3456))
        assert dc / ft >= 42.0

    def test_lifetime_scales_linearly(self):
        one = closed_form_mttf(bcube(4, 1), FailureType.LINK, 1.0).value
        many = closed_form_mttf(bcube(4, 1), FailureType.LINK, 250.0).value
        assert many == pytest.approx(250 * one, rel=1e-14)


class TestComparisonThresholds:
    def test_l1_threshold(self):
        assert interface_gain_server_threshold(1) == pytest.approx(0.955, abs=1e-3)

    def test_decreasing_in_l(self):
        values = [interface_gain_server_threshold(l) for l in range(1, 6)]
        assert values == sorted(values, reverse=True)
        assert values[1] < 0.955

    def test_fat_tree_threshold(self):
        # 6/pi = 1.90986; the reference prints the truncated 1.909
        assert fat_tree_deficit_server_threshold() == pytest.approx(1.909, abs=1e-3)

    def test_interface_gain_holds_at_any_real_size(self):
        # adding one interface at fixed |S| raises the link MTTF for |S| >= 2
        for l in (1, 2, 3, 4):
            for servers in (2, 512, 3375):
                low = burtin_pittel_mttf(MinCutSpec(l + 1, servers))
                high = burtin_pittel_mttf(MinCutSpec(l + 2, servers))
                assert high > low

    def test_fat_tree_dominated_for_any_real_size(self):
        for servers in (2, 100, 3422, 8190):
            ft = burtin_pittel_mttf(MinCutSpec(1, servers))
            dc2 = burtin_pittel_mttf(MinCutSpec(2, 1.5 * servers))
            assert ft < dc2
