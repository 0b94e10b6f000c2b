"""Cross-section analysis: the Figure 6 / Figure 7 machinery.

The paper plots the *measured* cross-section per bit against effective LET
for each RAM type (ITE / IDE / DTE / DDE / RFE), for the IUTEST (fig. 6) and
PARANOIA (fig. 7) programs.  This module sweeps the beam's LET, runs one
campaign per point, normalizes counts per bit and per fluence, and fits the
standard Weibull SEU curve to the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import CampaignConfig, prepare_warm_start
from repro.fault.executor import CampaignExecutor
from repro.fault.injector import FaultInjector

#: Which error counter corresponds to which RAM target.
COUNTER_TARGETS = {
    "ITE": "icache-tag",
    "IDE": "icache-data",
    "DTE": "dcache-tag",
    "DDE": "dcache-data",
    "RFE": "regfile",
}

#: LET points used by the sweep (MeV.cm2/mg), spanning the paper's 6..110.
DEFAULT_LETS = (6.0, 10.0, 15.0, 25.0, 40.0, 60.0, 80.0, 110.0)


@dataclass
class CrossSectionPoint:
    """One (LET, sigma) measurement for one RAM type.

    ``count`` is always the *raw* observed event count.  Importance-sampled
    points (``measure_curve(..., importance=True)``) carry ``weight < 1``
    -- the Horvitz-Thompson factor already folded into ``sigma_per_bit`` --
    and a normal-approximation 95 % confidence interval; plain points keep
    the defaults (weight 1, zero-width interval markers).
    """

    let: float
    sigma_per_bit: float
    count: int
    #: Horvitz-Thompson reweighting factor (sigma_live / sigma_device)
    #: applied to the counts; 1.0 for plain (non-importance) sweeps.
    weight: float = 1.0
    #: 95 % CI bounds on ``sigma_per_bit`` (0.0/0.0 in plain sweeps).
    ci_low: float = 0.0
    ci_high: float = 0.0


@dataclass
class CrossSectionCurve:
    """Measured sigma-vs-LET for every RAM type plus the device total."""

    program: str
    points: Dict[str, List[CrossSectionPoint]] = field(default_factory=dict)

    def series(self, kind: str) -> Tuple[List[float], List[float]]:
        lets = [point.let for point in self.points[kind]]
        sigmas = [point.sigma_per_bit for point in self.points[kind]]
        return lets, sigmas

    def kinds(self) -> List[str]:
        return list(self.points)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the service's curve endpoints)."""
        return {
            "program": self.program,
            "points": {
                kind: [{"let": p.let, "sigma_per_bit": p.sigma_per_bit,
                        "count": p.count, "weight": p.weight,
                        "ci_low": p.ci_low, "ci_high": p.ci_high}
                       for p in points]
                for kind, points in self.points.items()
            },
        }


def target_bits(leon: Optional[LeonConfig] = None) -> Dict[str, int]:
    """Bit population per RAM type (for per-bit normalization)."""
    system = LeonSystem(leon or LeonConfig.leon_express())
    injector = FaultInjector(system)
    return {
        kind: injector.targets[target].bits
        for kind, target in COUNTER_TARGETS.items()
    }


def measure_curve(
    program: str,
    *,
    lets: Sequence[float] = DEFAULT_LETS,
    flux: float = 400.0,
    fluence: float = 2.0e3,
    seed: int = 1,
    instructions_per_second: float = 50_000.0,
    leon: Optional[LeonConfig] = None,
    program_kwargs: Optional[dict] = None,
    jobs: int = 1,
    executor: Optional[CampaignExecutor] = None,
    warm_start: bool = False,
    beam_delay_s: float = 0.0,
    beam_tail_s: float = 0.0,
    early_exit: bool = True,
    importance: bool = False,
) -> CrossSectionCurve:
    """Run one campaign per LET point and build the per-bit sigma curves.

    The seed of point ``i`` is ``seed + i`` (a published mapping -- recorded
    curves depend on it).  With ``jobs > 1`` (or an explicit ``executor``)
    the LET points run in parallel worker processes; because every point's
    config embeds its own seed the curve is bit-for-bit identical to the
    serial one.  With ``warm_start=True`` the fault-free prefix
    (``beam_delay_s``) is executed once and every LET point restores from
    the shared snapshot -- the curve is unchanged (the warm-start key does
    not involve LET or seed).  ``early_exit=False`` disables golden-timeline
    grading (the slow full-execution oracle; the curve is identical either
    way).

    ``importance=True`` runs the sweep under the ``seu-live`` model
    (:mod:`repro.fault.sampling`): strikes land only on statically-live
    sites, counts are reweighted by the per-LET Horvitz-Thompson factor
    ``rho = sigma_live / sigma_device``, and every point carries a 95 %
    confidence interval.  The estimates are unbiased in the single-strike
    regime but come from a *different* strike population, so importance
    curves are statistically -- not bit-for-bit -- comparable to plain
    ones.
    """
    bits = target_bits(leon)
    curve = CrossSectionCurve(program, {kind: [] for kind in COUNTER_TARGETS})
    curve.points["Total"] = []
    total_bits = sum(bits.values())
    configs = [
        CampaignConfig(
            program=program,
            let=let,
            flux=flux,
            fluence=fluence,
            seed=seed + index,
            instructions_per_second=instructions_per_second,
            leon=leon,
            program_kwargs=program_kwargs or {},
            beam_delay_s=beam_delay_s,
            beam_tail_s=beam_tail_s,
            early_exit=early_exit,
            fault_model="seu-live" if importance else "seu",
        )
        for index, let in enumerate(lets)
    ]
    if executor is None:
        executor = CampaignExecutor(jobs)
    warm = prepare_warm_start(configs[0]) if warm_start and configs else None
    rhos = None
    if importance:
        from repro.fault.sampling import live_fraction
        rhos = [live_fraction(config) for config in configs]
    for index, (let, result) in enumerate(
            zip(lets, executor.run_many(configs, warm=warm))):
        rho = rhos[index] if rhos is not None else 1.0
        for kind in COUNTER_TARGETS:
            count = result.counts[kind]
            scale = rho / fluence / bits[kind]
            curve.points[kind].append(_point(let, count, scale, rho,
                                             importance))
        total = result.counts["Total"]
        curve.points["Total"].append(_point(let, total,
                                            rho / fluence / total_bits,
                                            rho, importance))
    return curve


def _point(let: float, count: int, scale: float, rho: float,
           importance: bool) -> CrossSectionPoint:
    """One curve point; importance points carry their weight and 95 % CI.

    The CI is the normal approximation to the Poisson count,
    ``count +- 1.96 * sqrt(count)``, scaled like the estimate; a
    zero-count point reports the rule-of-three upper bound (3 events).
    """
    sigma = count * scale
    if not importance:
        return CrossSectionPoint(let, sigma, count)
    half = 1.96 * math.sqrt(count)
    ci_low = max(count - half, 0.0) * scale
    ci_high = (count + half if count else 3.0) * scale
    return CrossSectionPoint(let, sigma, count, weight=rho,
                             ci_low=ci_low, ci_high=ci_high)


#: The sweep entry point the CLI and benchmarks use; ``measure_curve`` is
#: the historical name.
sweep = measure_curve


@dataclass(frozen=True)
class WeibullFit:
    """Fitted Weibull parameters for one measured curve."""

    sat: float
    onset: float
    width: float
    shape: float
    residual: float

    def at(self, let: float) -> float:
        if let <= self.onset:
            return 0.0
        return self.sat * (1.0 - math.exp(-(((let - self.onset) / self.width) ** self.shape)))


def fit_weibull(lets: Sequence[float], sigmas: Sequence[float],
                *, onset: float = 4.0) -> WeibullFit:
    """Least-squares Weibull fit with a fixed onset (scipy if available).

    Falls back to a coarse grid search when scipy is missing or the fit
    fails (few non-zero points).
    """
    pairs = [(let, sigma) for let, sigma in zip(lets, sigmas) if sigma > 0]
    if len(pairs) < 3:
        sat = max(sigmas) if sigmas else 0.0
        return WeibullFit(sat, onset, 40.0, 1.4, float("inf"))
    xs = [pair[0] for pair in pairs]
    ys = [pair[1] for pair in pairs]

    def residual(sat: float, width: float, shape: float) -> float:
        total = 0.0
        for x, y in zip(xs, ys):
            model = sat * (1.0 - math.exp(-(((x - onset) / width) ** shape)))
            total += (model - y) ** 2
        return total

    try:
        from scipy.optimize import curve_fit

        def model(x, sat, width, shape):
            import numpy as np

            scaled = ((np.asarray(x) - onset) / width).clip(min=0)
            return sat * (1.0 - np.exp(-(scaled ** shape)))

        start = (max(ys), 40.0, 1.4)
        params, _cov = curve_fit(model, xs, ys, p0=start, maxfev=20_000)
        sat, width, shape = (float(value) for value in params)
        return WeibullFit(sat, onset, width, shape, residual(sat, width, shape))
    except Exception:
        best = None
        for sat_scale in (0.8, 1.0, 1.2, 1.5):
            for width in (20.0, 30.0, 40.0, 60.0):
                for shape in (1.0, 1.2, 1.4, 1.8):
                    sat = max(ys) * sat_scale
                    err = residual(sat, width, shape)
                    if best is None or err < best.residual:
                        best = WeibullFit(sat, onset, width, shape, err)
        return best


def render_curve(curve: CrossSectionCurve, *, width: int = 60) -> str:
    """ASCII rendering of sigma/bit vs LET, one line block per RAM type."""
    lines = [f"Cross-section vs LET, {curve.program.upper()} "
             f"(per-bit, cm2; log scale)"]
    for kind in curve.kinds():
        lets, sigmas = curve.series(kind)
        positive = [sigma for sigma in sigmas if sigma > 0]
        if not positive:
            lines.append(f"  {kind:>5}: (no events)")
            continue
        low = math.log10(min(positive)) - 0.2
        high = math.log10(max(positive)) + 0.2
        span = max(high - low, 1e-6)
        lines.append(f"  {kind:>5}:")
        for let, sigma in zip(lets, sigmas):
            if sigma > 0:
                bar = int((math.log10(sigma) - low) / span * width)
                lines.append(f"    LET {let:6.1f}  {'#' * max(bar, 1)}  {sigma:.2e}")
            else:
                lines.append(f"    LET {let:6.1f}  .  0")
    return "\n".join(lines)
