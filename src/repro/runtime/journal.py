"""Crash-safe journaling for long-lived sync sessions.

A :class:`~repro.sync.SyncSession` is the library's only long-lived
stateful object: its materialized imports accumulate across rounds, and
losing them to a process death forces a full re-import.  The journal
makes the session durable with the standard write-ahead pattern:

* an append-only JSONL file, one record per line;
* a ``header`` record pinning the format version, the setting, and the
  pinned facts;
* one ``commit`` record per successful round, carrying the round number
  and the full imported instance (sessions materialize small deltas, so
  full-state commits are cheap and make replay trivial — the last commit
  wins, no log folding needed);
* every append is flushed and fsynced before the in-memory state is
  considered durable.

Recovery tolerates exactly the failure it is designed for: a crash
mid-append leaves a truncated final line, which :meth:`SessionJournal.load`
silently drops (the round it described never committed).  Damage anywhere
else raises :class:`~repro.exceptions.JournalError`.

Instances and settings round-trip through :mod:`repro.io.serialization`,
so journals are portable, diffable artifacts like every other on-disk
format in this library.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.exceptions import JournalError
from repro.io.serialization import (
    instance_from_dict,
    instance_to_dict,
    setting_from_dict,
    setting_to_dict,
)

__all__ = [
    "SessionJournal",
    "JournalState",
    "append_jsonl",
    "read_jsonl_tolerant",
]

_VERSION = 1


def append_jsonl(path: str | Path, record: dict[str, Any]) -> None:
    """Append one JSONL record, flushed and fsynced before returning.

    The durability primitive shared by every append-only artifact in the
    library (sync journals, post-mortem flight-recorder files): once this
    returns, the record survives a crash; a crash *during* the append
    leaves at worst a torn final line, which :func:`read_jsonl_tolerant`
    drops on recovery.
    """
    line = json.dumps(record, sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl_tolerant(
    path: str | Path,
    *,
    label: str,
    error: type[Exception] = JournalError,
) -> list[dict[str, Any]]:
    """Read a JSONL file, dropping a torn final line.

    The recovery primitive paired with :func:`append_jsonl`: a crash
    mid-append leaves an unterminated (hence unparsable) final line, which
    is silently dropped — that record never committed.  Damage anywhere
    else raises ``error`` with ``label`` naming the artifact (so callers
    keep their own exception types and message vocabulary).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {label} {path}: {exc}")
    lines = text.split("\n")
    # A trailing newline leaves one empty chunk; a crash mid-append
    # leaves a non-empty, probably unparsable final chunk instead.
    tail_committed = lines and lines[-1] == ""
    if tail_committed:
        lines = lines[:-1]
    records: list[dict[str, Any]] = []
    for index, line in enumerate(lines):
        is_last = index == len(lines) - 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if is_last and not tail_committed:
                break  # torn final write: the record never committed
            raise error(f"{label} {path} corrupt at line {index + 1}")
        records.append(record)
    return records


@dataclass
class JournalState:
    """The durable state recovered from a journal.

    Attributes:
        setting: the PDE setting recorded in the header.
        pinned: the target peer's pinned facts.
        imported: the imported facts as of the last committed round.
        rounds: the last committed round number (0 when no round ever
            committed).
        stamp: the ``(epoch, seq)`` snapshot stamp of the last committed
            round, or None when the session never synced a stamped
            snapshot (see :class:`repro.sync.Stamp`).
        source: the source snapshot the last committed stamped round
            ingested — the base a delta round patches — or None when the
            last commit predates delta support or was unstamped (the
            resumed session then reports a broken delta chain and the
            sender falls back to a full snapshot).
    """

    setting: PDESetting
    pinned: Instance
    imported: Instance
    rounds: int
    stamp: tuple[int, int] | None = None
    source: Instance | None = None


class SessionJournal:
    """An append-only, fsynced journal for one sync session."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def exists(self) -> bool:
        """True when the journal file exists and is non-empty."""
        try:
            return self.path.stat().st_size > 0
        except OSError:
            return False

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        append_jsonl(self.path, record)

    def ensure_header(self, setting: PDESetting, pinned: Instance) -> None:
        """Write the header record, unless a valid one is already present."""
        if self.exists():
            self._read_records()  # validates the existing header
            return
        self._append(
            {
                "type": "header",
                "version": _VERSION,
                "setting": setting_to_dict(setting),
                "pinned": instance_to_dict(pinned),
            }
        )

    def record_round(
        self,
        round_number: int,
        imported: Instance,
        added: Instance,
        retracted: Instance,
        stamp: tuple[int, int] | None = None,
        source: Instance | None = None,
    ) -> None:
        """Durably commit one successful round.

        Called *before* the in-memory session state is updated, so a crash
        between commit and update replays to the committed state.  When
        the round ingested a stamped snapshot, ``stamp`` rides in the same
        commit record, so the duplicate-rejection watermark survives a
        crash atomically with the state it protects; ``source`` (the
        ingested source snapshot) rides along too, keeping the delta-chain
        base durable with the watermark that anchors it.
        """
        record = {
            "type": "commit",
            "round": round_number,
            "imported": instance_to_dict(imported),
            "added": instance_to_dict(added),
            "retracted": instance_to_dict(retracted),
        }
        if stamp is not None:
            record["stamp"] = [int(stamp[0]), int(stamp[1])]
        if source is not None:
            record["source"] = instance_to_dict(source)
        self._append(record)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _read_records(self) -> list[dict[str, Any]]:
        records = read_jsonl_tolerant(
            self.path, label="sync journal", error=JournalError
        )
        if not records or records[0].get("type") != "header":
            raise JournalError(f"sync journal {self.path} has no header record")
        if records[0].get("version") != _VERSION:
            raise JournalError(
                f"sync journal {self.path} has unsupported version "
                f"{records[0].get('version')!r}"
            )
        return records

    def load(self) -> JournalState:
        """Recover the durable session state (last committed round wins)."""
        records = self._read_records()
        header = records[0]
        try:
            setting = setting_from_dict(header["setting"])
        except Exception as error:  # noqa: BLE001 - wrap any decode failure
            raise JournalError(
                f"sync journal {self.path} header holds an unloadable setting: "
                f"{error}"
            )
        pinned = instance_from_dict(
            header.get("pinned", {}), schema=setting.target_schema
        )
        imported = Instance(schema=setting.target_schema)
        rounds = 0
        stamp: tuple[int, int] | None = None
        source: Instance | None = None
        for record in records[1:]:
            if record.get("type") != "commit":
                continue
            imported = instance_from_dict(
                record.get("imported", {}), schema=setting.target_schema
            )
            rounds = int(record.get("round", rounds))
            raw_stamp = record.get("stamp")
            if raw_stamp is not None:
                stamp = (int(raw_stamp[0]), int(raw_stamp[1]))
            # Unlike the stamp, the base is not sticky: an unstamped
            # commit drops it, as the live session does.
            raw_source = record.get("source")
            source = None
            if raw_source is not None:
                source = instance_from_dict(
                    raw_source, schema=setting.source_schema
                )
        return JournalState(
            setting=setting, pinned=pinned, imported=imported, rounds=rounds,
            stamp=stamp, source=source,
        )
