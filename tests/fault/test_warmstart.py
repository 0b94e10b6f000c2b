"""Warm-start campaigns: byte-identity to cold runs, effaced early-out."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    prepare_warm_start,
    warm_start_key,
)
from repro.fault.crosssection import measure_curve
from repro.fault.executor import CampaignExecutor

#: Small settings with a real warm-up prefix (0.5 beam-s = 10k instructions).
WARM = dict(flux=400.0, fluence=300.0, instructions_per_second=20_000.0,
            beam_delay_s=0.5, beam_tail_s=0.1)


def _config(let=60.0, seed=7, **overrides):
    settings = dict(WARM)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


# -- byte identity -------------------------------------------------------------


def test_warm_run_matches_cold_run():
    config = _config()
    cold = Campaign(config).run()
    warm = Campaign(config).run(warm=prepare_warm_start(config))
    assert warm.comparable() == cold.comparable()


def test_one_warm_start_serves_sweeps_and_replicas():
    """The key excludes LET and seed: one prefix, many runs."""
    base = _config()
    warm = prepare_warm_start(base)
    for config in (_config(seed=123), _config(let=6.0), _config(let=110.0)):
        assert warm_start_key(config) == warm.key
        cold = Campaign(config).run()
        hot = Campaign(config).run(warm=warm)
        assert hot.comparable() == cold.comparable()


def test_executor_warm_matches_cold_serial_and_parallel():
    configs = [_config(seed=seed) for seed in (7, 8, 9, 10)]
    warm = prepare_warm_start(configs[0])
    cold = CampaignExecutor(1).run_many(configs)
    warm_serial = CampaignExecutor(1).run_many(configs, warm=warm)
    warm_parallel = CampaignExecutor(2, chunksize=1).run_many(
        configs, warm=warm)
    expected = [result.comparable() for result in cold]
    assert [result.comparable() for result in warm_serial] == expected
    assert [result.comparable() for result in warm_parallel] == expected


def test_measure_curve_warm_start_invariant():
    kwargs = dict(lets=(25.0, 60.0), flux=400.0, fluence=300.0, seed=3,
                  instructions_per_second=20_000.0, beam_delay_s=0.5)
    cold = measure_curve("iutest", **kwargs)
    warm = measure_curve("iutest", warm_start=True, **kwargs)
    for kind in cold.kinds():
        assert warm.series(kind) == cold.series(kind)


# -- effaced classification ----------------------------------------------------


def test_strike_free_warm_run_is_effaced():
    """Below the SEU threshold no strikes land: the window-close digest must
    equal golden's and the run reports the golden readouts early."""
    config = _config(let=3.0)
    warm = prepare_warm_start(config)
    assert warm.timeline.final is not None
    result = Campaign(config).run(warm=warm)
    assert result.upsets == 0
    assert result.effaced
    assert result.comparable() == Campaign(config).run().comparable()


def test_cold_runs_never_report_effaced():
    assert not Campaign(_config(let=3.0)).run().effaced


def test_effaced_is_excluded_from_comparable():
    result = Campaign(_config(let=3.0)).run()
    assert "effaced" not in result.comparable()
    assert "wall_seconds" not in result.comparable()
    assert "counts" in result.comparable()


# -- configuration guards ------------------------------------------------------


def test_incompatible_warm_start_rejected():
    warm = prepare_warm_start(_config())
    mismatched = _config(beam_delay_s=0.25)
    with pytest.raises(ConfigurationError):
        Campaign(mismatched).run(warm=warm)


def test_zero_delay_and_tail_reproduce_legacy_timeline():
    """Defaults keep the pre-warm-start window formula exactly."""
    legacy = CampaignConfig(program="iutest", let=110.0, seed=1,
                            flux=400.0, fluence=1.0e3,
                            instructions_per_second=40_000.0)
    prefix, window, tail = legacy.phase_instructions()
    assert prefix == 0
    assert tail == 0
    assert window == int(legacy.beam_parameters().duration_s * 40_000.0)


def test_warm_start_is_picklable():
    import pickle

    warm = prepare_warm_start(_config())
    clone = pickle.loads(pickle.dumps(warm))
    assert clone == warm
