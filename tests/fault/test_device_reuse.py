"""Device reuse: a run on the thread's used device equals a run on a fresh one.

``Campaign.run`` builds no system per run: each thread keeps one device
and restores every run's start state into it (the decoded warm-start
snapshot or the cold boot image).  That is sound only if snapshots cover
all execution state and no restore aliases the shared snapshots.  A new
thread gets a new device slot, so running one config per thread gives
the fresh-device oracle these tests compare against.
"""

import sys
import threading
from dataclasses import replace

from repro.core.config import CacheConfig, LeonConfig
from repro.core.system import LeonSystem
from repro.fault import campaign as campaign_module
from repro.fault.campaign import (
    CampaignConfig,
    prepare_warm_start,
    resolve_builder,
    warm_start_key,
)
from repro.fault.executor import (
    CampaignExecutor,
    expand_runs,
    run_campaign,
    run_campaign_traced,
)
from repro.state.snapshot import Snapshot

#: 2.25k instructions end to end at 2,000 ips.
TINY = dict(flux=400.0, fluence=150.0, instructions_per_second=2_000.0,
            beam_delay_s=0.25, beam_tail_s=0.5,
            flush_period_instructions=400)
#: The pinned halting scenario of ``scripts/recovery_smoke.py``: seed 16
#: halts, and the ladder recovers it with a warm reset.
HALTING = dict(program="iutest", let=110.0, flux=5_000.0, fluence=10_000.0,
               seed=16, instructions_per_second=30_000.0,
               leon=LeonConfig.standard())
SMALL_CACHES = LeonConfig.leon_express(icache=CacheConfig(size_bytes=64),
                                       dcache=CacheConfig(size_bytes=64))


def _iutest_pc():
    program, _expected = resolve_builder("iutest")(None)
    return program.symbols["iutest_iteration"]


def _mixed():
    """``(config, warm?, traced?)`` rows covering every start path, exit,
    program, device, fault model and recovery rung, with the device key
    changing between neighbours and traced and untraced runs
    interleaved."""
    static = CampaignConfig(program="random:7", let=20.0, seed=7,
                            leon=SMALL_CACHES, **dict(TINY, fluence=900.0))
    iutest = CampaignConfig(program="iutest", let=20.0, seed=11, **TINY)
    paranoia = CampaignConfig(program="paranoia", let=60.0, seed=5, **TINY)
    ft = CampaignConfig(program="iutest", let=60.0, seed=2,
                        leon=LeonConfig.fault_tolerant(), **TINY)
    attack = CampaignConfig(program="iutest", let=1.0, seed=3,
                            fault_model="opcode",
                            fault_params={"pc": _iutest_pc(), "window": 4,
                                          "time_s": 0.1}, **TINY)
    halting = CampaignConfig(recovery="ladder", **HALTING)
    return [
        (replace(static, seed=3), True, False),    # static_masked, struck
        (replace(iutest, seed=3), True, True),     # reconverged
        (replace(static, seed=1), True, True),     # full, struck
        (replace(paranoia, fault_model="sefi"), False, False),
        (ft, True, True),
        (replace(iutest, seed=4), True, False),    # full
        (replace(static, seed=5), True, False),    # static_masked
        (replace(halting, recovery="none"), False, False),  # ends halted
        (halting, False, True),                    # warm reset
        (replace(iutest, fault_model="stuck-at-1", let=60.0, seed=1),
         False, False),
        (replace(ft, fault_model="sefi", seed=3), False, True),
        (replace(paranoia, seed=6), True, True),
        (replace(halting, recovery="reboot"), False, False),  # cold reboot
        (attack, False, True),
        (replace(halting, beam_delay_s=0.05), True, False),   # warm reset
        (replace(static, seed=4), False, True),    # cold, small caches
        (replace(iutest, seed=3), True, False),
    ]


def _warm_starts(rows):
    warms = {}
    for config, warm, _traced in rows:
        key = warm_start_key(config)
        if warm and key not in warms:
            warms[key] = prepare_warm_start(config)
    return warms


def _run_row(row, warms):
    config, warm, traced = row
    runner = run_campaign_traced if traced else run_campaign
    return runner(config, warms[warm_start_key(config)] if warm else None)


def _in_fresh_thread(call):
    box = []
    thread = threading.Thread(target=lambda: box.append(call()))
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive()
    assert box, "the run raised in its thread"
    return box[0]


def _stable(trace):
    """A trace without its host wall times."""
    if trace is None:
        return None
    return [{key: value for key, value in event.items() if key != "wall_s"}
            for event in trace]


def test_reused_device_matches_fresh_devices():
    """One serial ``run_many`` over the mixed rows, on one thread's
    device, gives each run's results, exit and trace as a fresh device
    does."""
    rows = _mixed()
    warms = _warm_starts(rows)
    by_config = {id(row[0]): row for row in rows}
    serial = CampaignExecutor(
        1, runner=lambda config, _warm: _run_row(by_config[id(config)],
                                                 warms),
    ).run_many([config for config, _warm, _traced in rows])
    fresh = [_in_fresh_thread(lambda row=row: _run_row(row, warms))
             for row in rows]
    for row, reused, alone in zip(rows, serial, fresh):
        assert reused.comparable() == alone.comparable(), row
        assert reused.exit_reason == alone.exit_reason, row
        assert _stable(reused.trace) == _stable(alone.trace), row
    exits = {result.exit_reason for result in serial}
    assert exits == {"static_masked", "reconverged", "full"}
    assert any(r.exit_reason == "static_masked" and r.upsets
               for r in serial)
    assert any(result.halted for result in serial)
    rungs = {level for result in serial for level in result.recoveries}
    assert {"warm-reset", "cold-reboot"} <= rungs
    # The devices' own components reported into the traced runs.
    assert any(event["ev"] == "detect"
               for result in serial for event in result.trace or ())
    assert sum(1 for result in serial if result.trace) == \
        sum(1 for _config, _warm, traced in rows if traced)


def test_shared_snapshots_survive_struck_runs():
    """A struck full run and a warm reset restore the shared decoded
    snapshot; neither may write through to it."""
    config = CampaignConfig(recovery="ladder", beam_delay_s=0.05,
                            **HALTING)
    warm = prepare_warm_start(config)

    def run_and_inspect():
        results = CampaignExecutor(1).run_many(
            expand_runs(config, 2), warm=warm)
        slot = campaign_module._SLOT
        return results, slot.warm, slot.warm_bytes

    results, decoded, data = _in_fresh_thread(run_and_inspect)
    assert any(r.exit_reason == "full" and r.upsets for r in results)
    assert any("warm-reset" in r.recoveries for r in results)
    assert data == warm.snapshot
    assert decoded == Snapshot.from_bytes(warm.snapshot)


def test_boot_image_survives_cold_reboots():
    config = CampaignConfig(recovery="reboot", **HALTING)

    def run_and_inspect():
        results = CampaignExecutor(1).run_many(expand_runs(config, 2))
        return results, campaign_module._SLOT.boot[0]

    results, boot = _in_fresh_thread(run_and_inspect)
    assert any("cold-reboot" in r.recoveries for r in results)
    system, *_rest = campaign_module.Campaign(config)._build_program()
    assert boot == system.snapshot()


def test_jit_switch_rebuilds_the_device(monkeypatch):
    """``REPRO_JIT`` is read on every acquire: flipping it between two
    campaigns on one thread gives the second a device of its own, so a
    JIT-off campaign really runs interpreted."""
    configs = expand_runs(CampaignConfig(program="iutest", let=60.0, seed=5,
                                         **TINY), 2)
    monkeypatch.setenv("REPRO_JIT", "1")
    on = CampaignExecutor(1).run_many(configs)
    assert campaign_module._SLOT.system.jit is not None
    monkeypatch.setenv("REPRO_JIT", "0")
    off = CampaignExecutor(1).run_many(configs)
    assert campaign_module._SLOT.system.jit is None
    assert [r.comparable() for r in on] == [r.comparable() for r in off]


def test_static_campaign_builds_one_device_and_decodes_once(monkeypatch):
    """200 runs, some graded statically: ``run_many`` builds at most the
    thread's one device and decodes the warm snapshot once
    (``prepare_warm_start``'s own build is not counted)."""
    config = CampaignConfig(program="iutest", let=20.0, seed=11, **TINY)
    warm = prepare_warm_start(config)
    calls = {"builds": 0, "decodes": 0}
    build, decode = LeonSystem.__init__, Snapshot.from_bytes

    def counted_build(self, *args, **kwargs):
        calls["builds"] += 1
        build(self, *args, **kwargs)

    def counted_decode(data):
        calls["decodes"] += 1
        return decode(data)

    monkeypatch.setattr(LeonSystem, "__init__", counted_build)
    monkeypatch.setattr(Snapshot, "from_bytes", counted_decode)
    results = _in_fresh_thread(lambda: CampaignExecutor(1).run_many(
        expand_runs(config, 200), warm=warm))
    statics = sum(1 for r in results if r.exit_reason == "static_masked")
    assert 0 < statics < len(results)  # some runs restored and executed
    assert calls["builds"] <= 1
    assert calls["decodes"] == 1


def test_pool_workers_match_serial():
    """Forked workers may inherit the parent's slot; restoring before
    use keeps their results equal to serial execution."""
    rows = [row for row in _mixed() if not row[1]]  # the cold rows
    configs = [config for config, _warm, _traced in rows]
    CampaignExecutor(1).run_many(configs)  # leave this thread's slot used
    serial = CampaignExecutor(1).run_many(configs)
    parallel = CampaignExecutor(2, chunksize=1).run_many(configs)
    assert [r.comparable() for r in parallel] == \
        [r.comparable() for r in serial]


def test_threads_running_at_once_keep_their_own_devices():
    """Each thread's runs restore into its own device: several threads
    running campaigns at once, switching often, give the serial
    results."""
    config = CampaignConfig(program="iutest", let=60.0, seed=5, **TINY)
    warm = prepare_warm_start(config)
    configs = expand_runs(config, 3)
    serial = [r.comparable()
              for r in CampaignExecutor(1).run_many(configs, warm=warm)]
    outcomes = {}

    def worker(index):
        outcomes[index] = [r.comparable() for r in
                           CampaignExecutor(1).run_many(configs, warm=warm)]

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == {index: serial for index in range(4)}
