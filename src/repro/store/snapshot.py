"""Snapshots: periodic full images of the shredded columns.

A snapshot is one JSON document holding, for every stored document, its four
shredded columns (``pid``/``nid``/``label``/annotations — the annotation
column through the pickle codec), plus the registered view definitions and
the WAL high-water mark (``wal_lsn``) the image corresponds to.  Recovery
loads the snapshot and replays only the WAL records **beyond** that mark.

Snapshots are written atomically (temp file + ``os.replace``) so a crash
during compaction leaves either the old snapshot or the new one, never a
half-written file; together with the monotone WAL lsns this makes the
compaction sequence (write snapshot, then truncate the log) crash-safe at
every intermediate point.

Format 2 adds end-to-end integrity: the file is a two-line envelope whose
first line is a small header carrying a CRC32 of the body line's exact
bytes, and the body embeds per-column SHA-256 content digests (exact
because shredding is deterministic and document-stable).  Every load
verifies the whole-file checksum — which transitively authenticates the
column digests and every column byte — and raises a typed
:class:`~repro.errors.IntegrityError` naming the file on mismatch; the
per-column digests let ``repro fsck`` localize damage to a specific
document and column.  Format-1 (pre-checksum) snapshots still load and are
flagged so fsck can report the downgrade.

The annotation *semiring* is stored by registry name — durability is a
registry-semirings feature; exotic user semirings can still use the store
in-memory.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from repro.errors import StoreError
from repro.obs.trace import span
from repro.resilience.faults import fail_point
from repro.semirings.base import Semiring
from repro.semirings.registry import available_semirings, get_semiring
from repro.store.columns import ShreddedColumns
from repro.store.integrity import column_digests, crc32_text, integrity_error

__all__ = [
    "SNAPSHOT_FORMAT",
    "SnapshotEnvelope",
    "semiring_registry_name",
    "write_snapshot",
    "read_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = 2


def _structurally_equal(candidate: Semiring, semiring: Semiring) -> bool:
    """True when ``candidate`` rebuilds ``semiring`` exactly.

    ``Semiring.__eq__`` compares only type and name, which is too weak here:
    a parameterized lattice with a non-default universe shares its name with
    the registry instance, and persisting it by that name would silently
    reopen as a *different* semiring.  Types that define ``__reduce__``
    expose their constructor arguments; compare those too.
    """
    if candidate != semiring:
        return False
    if type(semiring).__dict__.get("__reduce__") is not None:
        try:
            return candidate.__reduce__() == semiring.__reduce__()
        except Exception:
            return False
    return True


def semiring_registry_name(semiring: Semiring) -> Optional[str]:
    """The registry name reconstructing ``semiring``, or ``None``.

    Durability serializes the semiring by name; a semiring is persistable
    only when some registered factory rebuilds a *structurally* equal
    instance (see :func:`_structurally_equal`).
    """
    for name in available_semirings():
        if _structurally_equal(get_semiring(name), semiring):
            return name
    return None


def write_snapshot(
    path: Path | str,
    *,
    semiring_name: str,
    wal_lsn: int,
    documents: Dict[str, ShreddedColumns],
    views: list[dict],
) -> None:
    """Atomically write a snapshot of the given store state."""
    path = Path(path)
    with span("store.snapshot.write", documents=len(documents), views=len(views), wal_lsn=wal_lsn):
        _write_snapshot(path, semiring_name, wal_lsn, documents, views)


def _write_snapshot(
    path: Path,
    semiring_name: str,
    wal_lsn: int,
    documents: Dict[str, ShreddedColumns],
    views: list[dict],
) -> None:
    column_payloads = {
        doc_id: columns.to_payload() for doc_id, columns in documents.items()
    }
    payload = {
        "format": SNAPSHOT_FORMAT,
        "semiring": semiring_name,
        "wal_lsn": wal_lsn,
        "documents": column_payloads,
        "views": list(views),
        "column_digests": {
            doc_id: column_digests(columns) for doc_id, columns in column_payloads.items()
        },
    }
    body = json.dumps(payload, sort_keys=True) + "\n"
    header = json.dumps(
        {"format": SNAPSHOT_FORMAT, "algo": "crc32", "checksum": crc32_text(body)},
        sort_keys=True,
    )
    handle, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as temp:
            fail_point("snapshot.write")
            temp.write(header)
            temp.write("\n")
            temp.write(body)
            temp.flush()
            fail_point("snapshot.fsync")
            os.fsync(temp.fileno())
        fail_point("snapshot.replace")
        os.replace(temp_name, path)
        # Barrier: the rename must be durable before the caller truncates the
        # WAL, or a power loss could surface the old snapshot alongside an
        # already-empty log (losing every record since the previous snapshot).
        fail_point("snapshot.dirfsync")
        directory_fd = os.open(str(path.parent), os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    # The snapshot is durably published: the corruption harness damages the
    # whole file (header, body, digests alike).
    fail_point("corrupt.snapshot.file", path=str(path))


class SnapshotProblem(NamedTuple):
    """Why a snapshot file cannot be served."""

    detail: str
    damage: bool  # corruption (IntegrityError, quarantinable) vs a refusal


class SnapshotEnvelope(NamedTuple):
    """A snapshot file as read, before its columns are decoded."""

    payload: Optional[dict]  # the parsed body, even when it failed to verify
    verified: bool           # the whole-file checksum was checked and matched
    problems: List[SnapshotProblem]


def read_snapshot(path: Path, *, verify: bool = True) -> Optional[SnapshotEnvelope]:
    """Read a snapshot file's envelope: the one parser of its format.

    Returns ``None`` when no snapshot exists.  Pure — no telemetry:
    :func:`load_snapshot` raises on the first problem, and ``repro fsck``
    reports every problem (localizing checksum damage with the per-column
    digests of ``payload``).  ``verify=False`` skips the checksum.  A
    header-less body is a format-1 (pre-checksum) snapshot; one claiming
    any later format lost its header to damage.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as error:
        return SnapshotEnvelope(None, False, [SnapshotProblem(f"unreadable: {error}", False)])
    except UnicodeDecodeError as error:
        return SnapshotEnvelope(
            None, False, [SnapshotProblem(f"undecodable bytes: {error}", True)]
        )
    head, newline, body = text.partition("\n")
    header = None
    if newline:
        try:
            candidate = json.loads(head)
        except ValueError:
            candidate = None
        if isinstance(candidate, dict) and "checksum" in candidate:
            header = candidate
    problems: List[SnapshotProblem] = []
    verified = False
    if header is None:
        body = text
    elif verify:
        computed = crc32_text(body)
        if computed != header.get("checksum"):
            problems.append(
                SnapshotProblem(
                    f"whole-file CRC32 mismatch (stored {header.get('checksum')!r}, "
                    f"computed {computed})",
                    True,
                )
            )
        else:
            verified = True
    try:
        payload = json.loads(body)
    except ValueError as error:
        problems.append(SnapshotProblem(f"unparseable snapshot: {error}", True))
        return SnapshotEnvelope(None, verified, problems)
    found = payload.get("format") if isinstance(payload, dict) else payload
    if not problems:
        if header is None and found == SNAPSHOT_FORMAT:
            problems.append(
                SnapshotProblem(f"format-{found} snapshot without its checksum header", True)
            )
        elif found not in (1, SNAPSHOT_FORMAT):
            problems.append(SnapshotProblem(f"unsupported format {found!r}", False))
    return SnapshotEnvelope(payload if isinstance(payload, dict) else None, verified, problems)


def load_snapshot(path: Path | str, *, verify: bool = True) -> Optional[dict]:
    """Load a snapshot file into ``{semiring, wal_lsn, documents, views}``.

    Returns ``None`` when no snapshot exists.  ``documents`` maps document
    ids to :class:`ShreddedColumns`; the semiring is resolved through the
    registry.

    Format-2 envelopes are checksum-verified (whole-file CRC32, which
    transitively authenticates the per-column digests and every column
    byte); damage raises :class:`~repro.errors.IntegrityError` naming the
    file, an unsupported format a plain :class:`~repro.errors.StoreError`.
    ``verify=False`` skips the checksum — the integrity benchmark's
    unverified baseline and ``tests/store/test_integrity.py`` use it.
    Format-1 (pre-checksum) snapshots load with ``verified: False`` in the
    result.
    """
    path = Path(path)
    envelope = read_snapshot(path, verify=verify)
    if envelope is None:
        return None
    if envelope.problems:
        problem = envelope.problems[0]
        message = f"snapshot {path}: {problem.detail}"
        if problem.damage:
            raise integrity_error(message, artifact=str(path), kind="snapshot")
        raise StoreError(message)
    payload = envelope.payload
    try:
        semiring = get_semiring(payload["semiring"])
    except KeyError:
        raise StoreError(f"snapshot {path} names no semiring") from None
    documents = {
        doc_id: ShreddedColumns.from_payload(semiring, columns)
        for doc_id, columns in payload.get("documents", {}).items()
    }
    return {
        "semiring": semiring,
        "semiring_name": payload["semiring"],
        "wal_lsn": int(payload.get("wal_lsn", 0)),
        "documents": documents,
        "views": list(payload.get("views", [])),
        "format": payload["format"],
        "verified": envelope.verified,
        "column_digests": dict(payload.get("column_digests", {})),
    }
