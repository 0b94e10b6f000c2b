"""Crash-safe campaign result store: append-only JSONL with resume.

DAVOS-style campaign tooling treats the result log as first-class
infrastructure: a long campaign that dies at run 900 of 1000 must not
recompute the first 900.  :class:`ResultStore` appends one JSON line per
completed run as the executor collects it (``campaign --results``), and
``campaign --resume`` reloads the file, skips every config whose key is
already present, and runs only the remainder.

A run is keyed by the fields that determine its outcome (program, beam
setting, seed, timeline) -- :func:`config_key`.  Runs are pure functions of
their config, so a stored result is exactly what re-running would produce.

The device configuration (``CampaignConfig.leon``) is not serialized; the
store covers campaigns on the default device.  A truncated final line --
the signature of a crash mid-append -- is skipped on load.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, TextIO

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, CampaignResult

#: CampaignConfig fields serialized into the store (order fixed).
_CONFIG_FIELDS = (
    "program", "let", "flux", "fluence", "seed",
    "instructions_per_second", "max_instructions",
    "flush_period_instructions", "beam_delay_s", "beam_tail_s",
    "recovery",
)


def config_key(config: CampaignConfig) -> str:
    """Stable identity of one run, as a canonical JSON string."""
    if config.leon is not None:
        raise ConfigurationError(
            "the JSONL result store only supports the default device "
            "configuration (CampaignConfig.leon is set)")
    payload = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    payload["program_kwargs"] = dict(sorted(config.program_kwargs.items()))
    # Fault-model fields serialize only when non-default, so every key
    # (and stored row) written before the model layer existed -- and every
    # default-model key after it -- stays byte-identical.
    if config.fault_model != "seu":
        payload["fault_model"] = config.fault_model
    if config.fault_params:
        payload["fault_params"] = dict(sorted(config.fault_params.items()))
    return json.dumps(payload, sort_keys=True)


def config_to_dict(config: CampaignConfig) -> dict:
    """JSON-serializable form of one config (the stored fields only)."""
    out = {
        **{name: getattr(config, name) for name in _CONFIG_FIELDS},
        "program_kwargs": dict(config.program_kwargs),
    }
    if config.fault_model != "seu":
        out["fault_model"] = config.fault_model
    if config.fault_params:
        out["fault_params"] = dict(config.fault_params)
    return out


def config_from_dict(payload: dict) -> CampaignConfig:
    """Rebuild a config from :func:`config_to_dict` output."""
    payload = dict(payload)
    kwargs = payload.pop("program_kwargs", {})
    fault_model = payload.pop("fault_model", "seu")
    fault_params = payload.pop("fault_params", {})
    return CampaignConfig(program_kwargs=kwargs, fault_model=fault_model,
                          fault_params=dict(fault_params), **payload)


def result_to_dict(result: CampaignResult) -> dict:
    """JSON-serializable form of one result (drops the leon sub-config)."""
    return {
        "config": config_to_dict(result.config),
        "counts": dict(result.counts),
        "upsets": result.upsets,
        "upsets_by_target": dict(result.upsets_by_target),
        "sw_errors": result.sw_errors,
        "error_traps": result.error_traps,
        "halted": result.halted,
        "iterations": result.iterations,
        "instructions": result.instructions,
        "wall_seconds": result.wall_seconds,
        "effaced": result.effaced,
        "cycles": result.cycles,
        "recoveries": dict(result.recoveries),
        "recovery_downtime": dict(result.recovery_downtime),
        "halts": result.halts,
        "unrecovered": result.unrecovered,
        "exit_reason": result.exit_reason,
        "graded_at_instruction": result.graded_at_instruction,
    }


def result_from_dict(payload: dict) -> CampaignResult:
    config = config_from_dict(payload["config"])
    return CampaignResult(
        config=config,
        counts=dict(payload["counts"]),
        upsets=payload["upsets"],
        upsets_by_target=dict(payload["upsets_by_target"]),
        sw_errors=payload["sw_errors"],
        error_traps=payload["error_traps"],
        halted=payload["halted"],
        iterations=payload["iterations"],
        instructions=payload["instructions"],
        wall_seconds=payload.get("wall_seconds", 0.0),
        cycles=payload.get("cycles", 0),
        recoveries=dict(payload.get("recoveries", {})),
        recovery_downtime=dict(payload.get("recovery_downtime", {})),
        halts=payload.get("halts", 0),
        unrecovered=payload.get("unrecovered", False),
        # Early-exit grading fields: rows written before fast grading
        # existed lack them; they are execution annotations, so the
        # defaults keep old and new rows byte-comparable.  ``effaced`` is
        # derived from the exit reason; a pre-grading effaced row was a
        # window-close digest match, i.e. a reconverged run.
        exit_reason=payload.get(
            "exit_reason",
            "reconverged" if payload.get("effaced") else ""),
        graded_at_instruction=payload.get("graded_at_instruction"),
    )


class ResultStore:
    """Append-only JSONL store of campaign results, keyed by config.

    ``append`` flushes and fsyncs per batch so a killed campaign loses at
    most the runs of its in-flight chunk; ``load`` tolerates a truncated
    final line.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None

    # -- writing ---------------------------------------------------------------

    def append(self, results: Iterable[CampaignResult]) -> None:
        if self._handle is None:
            self._trim_partial_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
        handle = self._handle
        for result in results:
            handle.write(json.dumps(result_to_dict(result),
                                    sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def _trim_partial_tail(self) -> None:
        """Drop a half-written final line before the first append.

        A crash mid-append leaves the file without a trailing newline.
        ``load`` already skips that tail, but appending after it would
        glue the next result onto the partial line -- turning a
        recoverable truncation into an undecodable *mid-file* line that
        ``load`` treats as fatal.  Truncating back to the last complete
        line keeps resume crash-safe; the dropped run re-runs (it was
        never durably stored).
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return  # no file yet: nothing to repair
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            keep = data.rfind(b"\n") + 1  # 0 when no newline at all
            handle.truncate(keep)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading ---------------------------------------------------------------

    def load(self) -> Dict[str, CampaignResult]:
        """All stored results keyed by :func:`config_key`.

        Later lines win on duplicate keys (a re-run supersedes).  Undecodable
        lines are skipped only at the file tail (crash truncation); garbage
        in the middle raises.
        """
        results: Dict[str, CampaignResult] = {}
        if not os.path.exists(self.path):
            return results
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for number, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                result = result_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                if number == len(lines) - 1:
                    break  # crash-truncated tail: drop it and resume
                raise ConfigurationError(
                    f"{self.path}:{number + 1}: undecodable result line "
                    f"({exc})") from None
            results[config_key(result.config)] = result
        return results

    def split_pending(
        self, configs: Iterable[CampaignConfig]
    ) -> "tuple[Dict[str, CampaignResult], List[CampaignConfig]]":
        """Partition configs into (already-stored results, still-to-run)."""
        stored = self.load()
        done: Dict[str, CampaignResult] = {}
        pending: List[CampaignConfig] = []
        for config in configs:
            key = config_key(config)
            if key in stored:
                done[key] = stored[key]
            else:
                pending.append(config)
        return done, pending
