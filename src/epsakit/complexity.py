"""Analytical parameter and FLOP accounting.

Parameters are counted by enumerating the trainable arrays of a built
model (running batch-norm statistics excluded). FLOPs are analytic
multiply-accumulate counts for convolutions and fully-connected layers;
batch norm, activations and pooling are excluded. One MAC is reported as
one FLOP. This convention lands within 1% of the published totals for the
standard 50/101-layer baselines, so no alternative convention is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .models import Model
from .ops import LayerRow

__all__ = [
    "CONVENTION",
    "ComplexityReport",
    "count_params",
    "count_flops",
    "analyze",
    "compare",
    "round_half_up",
    "millions",
    "giga",
]

CONVENTION = "macs(conv+linear); 1 MAC = 1 FLOP; bn/activation/pooling excluded"


def round_half_up(value: float, digits: int = 2) -> float:
    """Decimal round-half-up, for display values like 25.56M."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def millions(count: int) -> float:
    return round_half_up(count / 1e6)


def giga(count: int) -> float:
    return round_half_up(count / 1e9)


@dataclass
class ComplexityReport:
    model_name: str
    total_params: int
    total_flops: int
    input_shape: tuple[int, int, int, int]
    per_layer: list[LayerRow]
    convention = CONVENTION  # not a field: every report uses the one convention

    @property
    def params_m(self) -> float:
        return millions(self.total_params)

    @property
    def flops_g(self) -> float:
        return giga(self.total_flops)

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "params_millions": self.params_m,
            "flops_giga": self.flops_g,
            "input_shape": list(self.input_shape),
            "convention": self.convention,
            "per_layer": [
                {
                    "name": r.name,
                    "params": r.params,
                    "flops": r.flops,
                    "output_shape": list(r.output_shape),
                }
                for r in self.per_layer
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"{self.model_name} @ input {'x'.join(map(str, self.input_shape))}",
            f"  convention: {self.convention}",
            f"  {'layer':<40s} {'params':>12s} {'flops':>14s} {'output':>18s}",
        ]
        for r in self.per_layer:
            shp = "x".join(map(str, r.output_shape))
            lines.append(f"  {r.name:<40s} {r.params:>12d} {r.flops:>14d} {shp:>18s}")
        lines.append(f"  {'total':<40s} {self.total_params:>12d} {self.total_flops:>14d}")
        lines.append(f"  = {self.params_m:.2f}M params, {self.flops_g:.2f}G flops")
        return "\n".join(lines)


def count_params(model: Model) -> int:
    """Exact trainable-parameter count by enumeration."""
    return model.net.param_count


def count_flops(model: Model, input_shape: tuple[int, int, int, int] = (1, 3, 224, 224)) -> int:
    _, rows = model.net.complexity(tuple(input_shape))
    return sum(r.flops for r in rows)


def analyze(model: Model, input_shape: tuple[int, int, int, int] = (1, 3, 224, 224)) -> ComplexityReport:
    input_shape = tuple(int(d) for d in input_shape)
    _, rows = model.net.complexity(input_shape)
    total_params = count_params(model)
    row_params = sum(r.params for r in rows)
    if row_params != total_params:
        raise AssertionError(
            f"per-layer ledger ({row_params}) disagrees with enumeration ({total_params})"
        )
    return ComplexityReport(
        model_name=model.name,
        total_params=total_params,
        total_flops=sum(r.flops for r in rows),
        input_shape=input_shape,
        per_layer=rows,
    )


def compare(reports: list[ComplexityReport]) -> dict:
    """Tabulate reports with relative deltas against the first entry."""
    if not reports:
        raise ValueError("nothing to compare")
    base = reports[0]
    rows = []
    for r in reports:
        rows.append({
            "model_name": r.model_name,
            "params": r.total_params,
            "params_millions": r.params_m,
            "flops": r.total_flops,
            "flops_giga": r.flops_g,
            "params_vs_base_pct": round_half_up(
                100.0 * (r.total_params - base.total_params) / base.total_params
            ),
            "flops_vs_base_pct": round_half_up(
                100.0 * (r.total_flops - base.total_flops) / base.total_flops
            ),
        })
    return {"baseline": base.model_name, "convention": base.convention, "rows": rows}


def compare_text(table: dict) -> str:
    lines = [
        f"baseline: {table['baseline']}   ({table['convention']})",
        f"{'model':<24s} {'params(M)':>10s} {'flops(G)':>10s} {'d-params':>10s} {'d-flops':>10s}",
    ]
    for r in table["rows"]:
        lines.append(
            f"{r['model_name']:<24s} {r['params_millions']:>10.2f} {r['flops_giga']:>10.2f} "
            f"{r['params_vs_base_pct']:>+9.2f}% {r['flops_vs_base_pct']:>+9.2f}%"
        )
    return "\n".join(lines)
