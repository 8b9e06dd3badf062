"""Saving and replaying tenant traces.

Experiments become auditable when their inputs are files: this module
serializes tenant sequences (the *input* of a consolidation run) to a
stable JSON format, so runs can be diffed, replayed against other
algorithms, or shipped as regression fixtures.  A run's *output*, the
placement, is saved as a checkpoint
(:func:`repro.store.save_checkpoint`), which carries every replica's
exact load.

Format (version 1)::

    {"format": "repro-trace", "version": 1,
     "description": "...", "seed": 7,
     "tenants": [{"id": 0, "load": 0.25}, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from ..core.tenant import Tenant, TenantSequence
from ..errors import ConfigurationError

TRACE_FORMAT = "repro-trace"
VERSION = 1

PathLike = Union[str, Path]


def save_trace(sequence: TenantSequence, path: PathLike) -> None:
    """Write a tenant sequence to ``path`` as JSON."""
    payload = {
        "format": TRACE_FORMAT,
        "version": VERSION,
        "description": sequence.description,
        "seed": sequence.seed,
        "tenants": [{"id": t.tenant_id, "load": t.load}
                    for t in sequence],
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_trace(path: PathLike) -> TenantSequence:
    """Read a tenant sequence previously written by :func:`save_trace`.

    Tenant ids must be unique: a duplicated id would make every
    id-keyed consumer (removal, resize) silently pick one of the
    conflicting loads, so it is rejected here.
    """
    payload = _read(path, TRACE_FORMAT)
    tenants = [Tenant(tenant_id=entry["id"], load=entry["load"])
               for entry in payload["tenants"]]
    _reject_duplicate_ids(tenants, path)
    return TenantSequence(tenants=tenants,
                          description=payload.get("description", ""),
                          seed=payload.get("seed"),
                          metadata={"source": str(path)})


def _reject_duplicate_ids(tenants, path: PathLike) -> None:
    """Raise :class:`ConfigurationError` on duplicate tenant ids."""
    seen: set = set()
    duplicates: List[int] = []
    for tenant in tenants:
        if tenant.tenant_id in seen:
            duplicates.append(tenant.tenant_id)
        seen.add(tenant.tenant_id)
    if duplicates:
        raise ConfigurationError(
            f"{path}: trace contains duplicate tenant id(s) "
            f"{sorted(set(duplicates))}; tenant ids must be unique")


def _read(path: PathLike, expected_format: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"cannot read {path}: {err}") from err
    if payload.get("format") != expected_format:
        raise ConfigurationError(
            f"{path}: expected format {expected_format!r}, got "
            f"{payload.get('format')!r}")
    if payload.get("version") != VERSION:
        raise ConfigurationError(
            f"{path}: unsupported version {payload.get('version')!r}")
    return payload
