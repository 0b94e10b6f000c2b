"""Importance-sampled transient upsets: the ``seu-live`` fault model.

A cross-section campaign at near-threshold LET wastes most of its strikes:
the static analyzer (:mod:`repro.analysis.program`) proves a large
fraction of the register file dead for the paper programs, and a strike
in a dead word contributes exactly zero to every error counter.  The
``seu-live`` model redirects that wasted beam: it keeps the *physical*
Poisson arrival process of the ``seu`` beam (rate ``flux * sigma_device``)
but lands every strike on a **live** site, drawn with the same per-bit
sigma weighting restricted to the live population.

Every live site is thereby oversampled by a uniform factor ``1 / rho``
with ``rho = sigma_live / sigma_device``, so the Horvitz-Thompson
reweighting of the measured counts::

    sigma_hat = rho * count / fluence / bits

is an unbiased estimator of the full-beam cross-section in the
single-strike regime (each error event traces to one strike, so event
counts scale linearly with per-site strike intensity).  Runs whose
outcome is shaped by *interactions* between multiple strikes -- the
multiple-error build-up experiment E6 -- are not linear in the strike
intensity and must use the plain ``seu`` model.

The live set carries the same soundness argument as static grading: it is
the ACE map :func:`repro.fault.campaign.prepare_warm_start` computes,
golden-trap-free witness included, cached per warm-start key so a whole
LET sweep (and every seed) pays for one golden run.  When the map is
unavailable (the golden run trapped or failed) the model degrades to the
full site population -- ``rho == 1`` and the draws still differ from
``seu`` only in their RNG stream.

Lint rule FT701 applies: the model consumes the ACE map and is transient
by construction (``transient = True`` in the class body) -- a persistent
fault re-asserts into its "dead" word for the rest of the run, so
live-site restriction would bias persistent campaigns.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.fault.beam import HeavyIonBeam
from repro.fault.injector import FaultInjector
from repro.fault.models import (
    _CELL_ARRAYS,
    FaultModel,
    PlannedFault,
    register_model,
)

#: ACE maps per warm-start key: one golden run serves every LET point and
#: seed of a sweep (and every worker process caches its own copy).
_ACE_CACHE: Dict[tuple, object] = {}


@register_model
class LiveSiteUpset(FaultModel):
    """Transient bit flips restricted to statically-live sites.

    Identical physics to ``seu`` -- Poisson arrivals at the device rate,
    sigma-weighted site choice, LET-dependent MBU companions in the dense
    cache blocks -- except the site population excludes register-file
    words the ACE map proves dead (and the whole FP file when it is
    unreferenced).  Counts measured under this model estimate the
    full-beam cross-section after multiplying by :meth:`rho`.
    """

    kind = "seu-live"
    #: One-shot corruption, like ``seu``; also the FT701 contract -- the
    #: ACE map consulted below is only sound for transient faults.
    transient = True
    TARGETS = _CELL_ARRAYS
    #: The space deliberately narrows to statically-live sites -- a dead
    #: FP file drops out entirely -- so the every-declared-target audit
    #: does not apply (counts are reweighted by ``rho`` instead).
    EXHAUSTIVE = False

    def _ace(self):
        """The config's ACE map (None when no sound map is available).

        Computed exactly as the campaign's warm start computes it -- full
        golden run, trap-free witness -- so live-site claims here are the
        same claims static grading acts on.  Cached per warm-start key.
        """
        from repro.fault.campaign import prepare_warm_start, warm_start_key

        key = warm_start_key(self.config)
        if key not in _ACE_CACHE:
            _ACE_CACHE[key] = prepare_warm_start(self.config).ace
        return _ACE_CACHE[key]

    def _live_geometry(self, injector: FaultInjector,
                       ) -> Tuple[Dict[str, int], Optional[List[int]]]:
        """(live bits per target, live regfile physical words).

        The live regfile word list is None when the ACE map is
        unavailable (every word counts as live).
        """
        ace = self._ace()
        live_bits: Dict[str, int] = {}
        live_words: Optional[List[int]] = None
        for name, target in injector.targets.items():
            if ace is None:
                live_bits[name] = target.bits
            elif name == "regfile":
                regfile = injector.system.regfile
                live_words = [
                    word for word in range(regfile.words)
                    if ace.classify(name, word) is None
                ]
                copies = target.bits // (regfile.words * regfile.bits_per_word)
                live_bits[name] = (len(live_words) * regfile.bits_per_word
                                   * copies)
            elif name == "fpregs" and ace.fpregs_dead:
                live_bits[name] = 0
            else:
                live_bits[name] = target.bits
        return live_bits, live_words

    def rho(self, injector: FaultInjector) -> float:
        """``sigma_live / sigma_device`` at the config's LET.

        The Horvitz-Thompson weight: counts measured under this model,
        multiplied by ``rho``, estimate the full-beam counts.
        """
        beam = HeavyIonBeam(injector)
        let = self.config.let
        live_bits, _words = self._live_geometry(injector)
        device = live = 0.0
        for name, target in injector.targets.items():
            sigma_bit = beam.bit_cross_section(name).at(let)
            device += target.bits * sigma_bit
            live += live_bits[name] * sigma_bit
        return live / device if device > 0.0 else 1.0

    def fault_space(self, injector: FaultInjector) -> Dict[str, int]:
        live_bits, _words = self._live_geometry(injector)
        return {name: bits for name, bits in live_bits.items() if bits}

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        config = self.config
        params = config.beam_parameters()
        beam = HeavyIonBeam(injector)
        live_bits, live_words = self._live_geometry(injector)
        names = list(injector.targets)
        # Arrivals keep the *physical* device rate; only the landing site
        # distribution is restricted.
        rate = params.flux * beam.device_cross_section(params.let)
        weights = [
            live_bits[name] * beam.bit_cross_section(name).at(params.let)
            for name in names
        ]
        if rate <= 0.0 or not any(weights):
            return []
        mbu_p = beam.mbu_fraction(params.let)
        duration = params.duration_s
        rng = random.Random(params.seed)
        faults: List[PlannedFault] = []
        elapsed = 0.0
        while True:
            elapsed += rng.expovariate(rate)
            if elapsed >= duration:
                break
            name = rng.choices(names, weights=weights, k=1)[0]
            flat_bit = self._draw_flat(rng, injector, name, live_words)
            mbu = (name in HeavyIonBeam.MBU_ELIGIBLE
                   and rng.random() < mbu_p)
            faults.append(PlannedFault(time_s=elapsed, target=name,
                                       flat_bit=flat_bit, mbu=mbu,
                                       kind=self.kind))
        return faults

    def _draw_flat(self, rng: random.Random, injector: FaultInjector,
                   name: str, live_words: Optional[List[int]]) -> int:
        """Uniform flat bit over the target's live population."""
        target = injector.targets[name]
        if name != "regfile" or live_words is None:
            return rng.randrange(target.bits)
        regfile = injector.system.regfile
        bits_per_word = regfile.bits_per_word
        per_copy = regfile.words * bits_per_word
        copies = target.bits // per_copy
        draw = rng.randrange(len(live_words) * bits_per_word * copies)
        copy, rest = divmod(draw, len(live_words) * bits_per_word)
        index, bit = divmod(rest, bits_per_word)
        return copy * per_copy + live_words[index] * bits_per_word + bit

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        # Same landing mechanics as the beam: the strike plus, when drawn,
        # its adjacent-cell MBU companion (cache rows are fully live, so
        # the companion never leaks onto a claimed-dead site).
        injector.inject(fault.target, fault.flat_bit)
        if fault.mbu and injector.targets[fault.target].bits_per_word:
            injector.inject_adjacent(fault.target, fault.flat_bit)


def live_fraction(config) -> float:
    """``rho`` for one campaign config (throwaway same-geometry system)."""
    from repro.core.config import LeonConfig
    from repro.core.system import LeonSystem

    leon = config.leon or LeonConfig.leon_express()
    injector = FaultInjector(LeonSystem(leon))
    return LiveSiteUpset(config).rho(injector)
