"""Parameter/FLOP accounting against the published totals and scaling laws."""

import numpy as np
import pytest

from epsakit import models
from epsakit.complexity import (
    CONVENTION,
    analyze,
    compare,
    count_flops,
    count_params,
    giga,
    millions,
    round_half_up,
)
from epsakit.models import build_model
from epsakit.psa import PsaConfig, PsaParams

PUBLISHED = {
    "resnet50": (25.56, 4.12),
    "senet50": (28.07, 4.13),
    "epsanet50_small": (22.56, 3.62),
    "epsanet50_large": (27.90, 4.72),
    "resnet101": (44.55, 7.85),
    "senet101": (49.29, 7.86),
    "epsanet101_small": (38.90, 6.82),
    "epsanet101_large": (49.59, 8.97),
}


class TestRounding:
    def test_half_up(self):
        assert round_half_up(27.895) == 27.90
        assert round_half_up(27.894999) == 27.89
        assert round_half_up(2.675) == 2.68  # decimal, not binary, rounding
        assert millions(22_561_715) == 22.56
        assert giga(3_597_900_160) == 3.60


class TestPublishedTotals:
    @pytest.mark.parametrize("name", list(PUBLISHED))
    def test_parameters_match(self, name):
        model = build_model(name)
        assert abs(millions(count_params(model)) - PUBLISHED[name][0]) <= 0.02

    @pytest.mark.parametrize("name", list(PUBLISHED))
    def test_flops_within_three_percent(self, name):
        model = build_model(name)
        flops = count_flops(model)
        target = PUBLISHED[name][1] * 1e9
        assert abs(flops - target) / target <= 0.03

    def test_exact_counts_pinned(self):
        # Regression pins for the enumerated totals.
        assert count_params(build_model("resnet50")) == 25_557_032
        assert count_params(build_model("senet50")) == 28_071_976
        assert count_params(build_model("epsanet50_small")) == 22_561_715
        assert count_params(build_model("epsanet50_large")) == 27_899_518


class TestLedgerConsistency:
    def test_per_layer_sums_equal_totals(self):
        r = analyze(build_model("epsanet50_small"))
        assert sum(row.params for row in r.per_layer) == r.total_params
        assert sum(row.flops for row in r.per_layer) == r.total_flops
        assert r.convention == CONVENTION

    def test_params_equal_enumeration(self):
        model = models.build_toy_epsanet(seed=0)
        r = analyze(model, (1, 3, 64, 64))
        enumerated = sum(v.size for v in model.net.params().values())
        assert r.total_params == enumerated

    def test_analytic_conv_count_vs_enumeration(self):
        from epsakit.ops import Conv2dParams

        for cin, cout, k, g, bias in [(16, 16, 5, 4, False), (8, 12, 3, 2, True), (3, 64, 7, 1, False)]:
            p = Conv2dParams.init(cin, cout, k, groups=g, bias=bias)
            formula = cout * (cin // g) * k * k + (cout if bias else 0)
            assert p.param_count == formula
            enumerated = p.weight.size + (p.bias.size if p.bias is not None else 0)
            assert formula == enumerated


class TestScalingLaws:
    def test_doubling_input_quadruples_conv_flops_only(self):
        model = build_model("epsanet50_small")

        def conv_and_linear(size):
            r = analyze(model, (1, 3, size, size))
            lin = sum(
                row.flops for row in r.per_layer
                if row.name == "fc" or row.name.endswith(".se")
            )
            return r.total_flops - lin, lin

        conv224, lin224 = conv_and_linear(224)
        conv448, lin448 = conv_and_linear(448)
        assert conv448 == 4 * conv224
        assert lin448 == lin224  # fc layers see pooled features, size-independent
        assert count_params(model) == 22_561_715  # params independent of input

    def test_single_1x1_conv_closed_form(self):
        cfg = {
            "name": "single", "num_classes": 10,
            "stages": [{"repeats": 1, "mid_channels": 16, "kind": "resnet"}],
        }
        # direct closed-form: 1x1 conv 64 -> 256 at 56x56 is 56*56*256*64 MACs
        from epsakit.ops import Conv2dParams

        conv = Conv2dParams.init(64, 256, 1, seed=np.random.default_rng(0))
        _, rows = conv.complexity((1, 64, 56, 56))
        assert rows[0].flops == 56 * 56 * 256 * 64

    def test_psa_branch_params_decrease_with_groups(self):
        base = None
        for g in (1, 2, 4, 8, 16):
            cfg = PsaConfig(64, 4, (3, 5, 7, 9), (g, g, g, g))
            p = PsaParams.init(cfg, seed=0)
            convs = sum(c.param_count for c in p.branch_convs)
            if base is not None:
                assert convs < base
            base = convs

    def test_ablation_rows_ordered_by_inverse_group_law(self):
        totals = {}
        for cfg in models.ablation_configs():
            model = models.build_epsanet50_with_groups(cfg.groups)
            totals[cfg.groups] = count_params(model)
            del model
        assert totals[(16, 16, 16, 16)] < totals[(4, 8, 16, 16)] < totals[(1, 4, 8, 16)]
        assert len(set(totals.values())) == 3
        # frozen regression fixtures for the three settings
        assert totals == {
            (4, 8, 16, 16): 18_494_579,
            (16, 16, 16, 16): 17_472_883,
            (1, 4, 8, 16): 22_561_715,
        }


class TestCompare:
    def test_self_comparison_zero_deltas(self):
        r = analyze(build_model("resnet50"))
        table = compare([r, r])
        assert table["rows"][1]["params_vs_base_pct"] == 0.0
        assert table["rows"][1]["flops_vs_base_pct"] == 0.0

    def test_published_relative_savings(self):
        small = analyze(build_model("epsanet50_small"))
        r50 = analyze(build_model("resnet50"))
        se101 = analyze(build_model("senet101"))
        param_saving = 100 * (1 - small.total_params / r50.total_params)
        flop_saving = 100 * (1 - small.total_flops / r50.total_flops)
        assert param_saving == pytest.approx(11.7, abs=0.5)
        assert flop_saving == pytest.approx(12.1, abs=1.0)
        vs_se101 = 100 * (1 - small.total_params / se101.total_params)
        assert vs_se101 == pytest.approx(54.2, abs=0.5)
