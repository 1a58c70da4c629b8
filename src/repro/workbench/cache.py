"""Cross-design persistent artifact cache: content-addressed ArtifactStores.

A :class:`~repro.workbench.design.Design` memoises its derived-artifact
graph per object, but service-scale use means *many* near-identical designs
— template instantiations, parameter sweeps, re-submitted sources —
recomputing the same encodings and fixpoints.  This module makes that
memoisation durable and shareable: an :class:`ArtifactStore` maps a
**content-addressed key** to a pure-data payload, and ``Design(...,
cache=store)`` (or the process-wide :func:`configure_cache` default)
consults it before building any expensive artifact.

Keying.  A design's canonical identity is a SHA-256 over the *expanded*
process rendered back to concrete syntax (macro instantiations resolved, so
two routes to the same expanded process share a key) plus the declared
integer bounds (the renderer prints types only, and bounds change the
bit-blasted encoding).  Each artifact key appends the artifact name, a
fingerprint of every option that influences that artifact's value, and
:data:`CACHE_FORMAT` — bump the latter whenever any payload layout changes
and every stale entry becomes a clean miss.

Payloads.  Encodings and range reports are stored as the (picklable)
objects themselves; endochrony reports as pure data (their clock-hierarchy
back-reference holds BDDs and is dropped — recorded as ``hierarchy=None``
on a warm load); reached sets as the two-part node-table dumps of
:meth:`~repro.verification.symbolic_int.IntSymbolicReachability.snapshot`,
engine relation included, so a warm process re-runs neither the BDD circuit
compilation nor the fixpoint.  Structural failures
(:class:`~repro.verification.encoding.EncodingError`) are persisted as
error payloads — probing an unencodable design is a warm hit too — while
transient resource-limit failures are never stored (see
``Design._artifact``).

Stores.  :class:`MemoryArtifactStore` is a locked dict for sharing within a
process; :class:`DiskArtifactStore` persists pickles under a directory,
writing each entry to a temp file and :func:`os.replace`-ing it into place
so a killed process can never leave a torn entry — and treating any
unreadable entry as a miss, never as data.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from ..signal.printer import render_process
from ..verification.encoding import EncodingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .design import Design

#: Version of every payload layout this module reads and writes.  Part of
#: each key, so bumping it orphans (rather than mis-reads) old entries.
CACHE_FORMAT = 2

#: Sentinel distinguishing "stored None" from "not stored".
MISSING = object()


# --------------------------------------------------------------------------- stores

class ArtifactStore:
    """A content-addressed payload store (the cache backend interface).

    Implementations must make :meth:`get` return ``default`` for any key
    they cannot produce a **trustworthy** payload for — unknown, torn,
    unreadable or version-skewed entries are misses, never errors and never
    garbage data.  Keys are opaque hex-ish strings; payloads are pure data
    (picklable, no live BDD nodes).
    """

    def get(self, key: str, default: Any = None) -> Any:
        raise NotImplementedError

    def put(self, key: str, payload: Any) -> None:
        raise NotImplementedError


class MemoryArtifactStore(ArtifactStore):
    """An in-process store: a dict behind a lock, shareable across designs."""

    def __init__(self) -> None:
        self._entries: dict[str, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._entries.get(key, default)

    def put(self, key: str, payload: Any) -> None:
        with self._lock:
            self._entries[key] = payload

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries


class DiskArtifactStore(ArtifactStore):
    """An on-disk store: one pickle file per key under ``root``.

    Writes are atomic — the payload goes to a temp file in the same
    directory, fsynced, then :func:`os.replace`-d over the final name — so
    concurrent writers race benignly (last complete write wins) and a
    killed process leaves at worst an orphaned ``*.tmp`` file, never a torn
    entry a warm load would trust.  Reads treat any missing, truncated or
    undecodable file as a miss and drop the offender.

    ``max_bytes`` bounds the store: after every write the least-recently-used
    entries (by mtime — reads bump it) are deleted until the store fits, and
    a single payload larger than the whole budget is not persisted at all.
    Eviction uses plain :func:`os.unlink` and shrugs at races: a concurrent
    reader of an evicted entry just sees a miss, which the store's contract
    already allows at any time.  A long-lived worker pool sharing one store
    must not fill the disk — this is its backstop.
    """

    def __init__(self, root: str, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive (or None), not {max_bytes!r}")
        self.root = str(root)
        self.max_bytes = max_bytes
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.pkl")

    def get(self, key: str, default: Any = None) -> Any:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return default
        except Exception:
            # Torn, truncated or stale-format entry: a miss, and the bad
            # file is removed so the rebuilt payload can take its place.
            try:
                os.unlink(path)
            except OSError:
                pass
            return default
        try:
            os.utime(path)  # LRU bookkeeping: a hit is recent use
        except OSError:
            pass
        return payload

    def put(self, key: str, payload: Any) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        if self.max_bytes is not None and len(blob) > self.max_bytes:
            return  # would evict the whole store and still not fit
        descriptor, temporary = tempfile.mkstemp(dir=self.root, prefix=f".{key}.", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, self._path(key))
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._evict(self.max_bytes)

    def delete(self, key: str) -> bool:
        """Remove one entry; True when it existed."""
        try:
            os.unlink(self._path(key))
            return True
        except OSError:
            return False

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every live entry; vanished files skipped."""
        entries = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.root, name)
            try:
                status = os.stat(path)
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Bytes currently held in live entries."""
        return sum(size for _, size, _ in self._entries())

    def _evict(self, budget: int) -> None:
        """Delete least-recently-used entries until the store fits ``budget``."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        for _, size, path in sorted(entries):
            if total <= budget:
                return
            try:
                os.unlink(path)
            except OSError:
                continue  # a concurrent evictor/writer got there first
            total -= size

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root) if name.endswith(".pkl"))


# --------------------------------------------------------------------------- the process default

_default_store: Optional[ArtifactStore] = None


def configure_cache(store: Optional[ArtifactStore]) -> Optional[ArtifactStore]:
    """Install the process-wide default store (``None`` disables caching).

    Every later ``Design`` constructed without an explicit ``cache=``
    argument uses it.  Returns the previously installed store, so scoped
    callers can restore it.
    """
    global _default_store
    previous = _default_store
    _default_store = store
    return previous


def default_cache() -> Optional[ArtifactStore]:
    """The process-wide default store (None when caching is off)."""
    return _default_store


# --------------------------------------------------------------------------- keys

def canonical_design_text(design: "Design") -> str:
    """The content identity of a design: expanded syntax plus bounds.

    Rendered from the *expanded* definition (``design.compiled.definition``),
    so designs that reach the same expanded process through different macro
    structure share their artifacts.  The renderer deliberately omits the
    declared integer bounds (they are capacity annotations, not syntax), but
    they change the bit-blasted encoding — so they are appended explicitly.
    """
    definition = design.compiled.definition
    bounds = sorted(
        (declaration.name, declaration.bounds)
        for declarations in (definition.inputs, definition.outputs, definition.locals)
        for declaration in declarations
        if declaration.bounds is not None
    )
    text = render_process(definition)
    if bounds:
        annotations = ";".join(f"{name}:{lo}:{hi}" for name, (lo, hi) in bounds)
        text = f"{text}\nbounds {annotations}"
    return text


def _stable(value: Any) -> str:
    """A deterministic textual form of an options value, for fingerprints."""
    if is_dataclass(value) and not isinstance(value, type):
        rendered = ",".join(
            f"{field.name}={_stable(getattr(value, field.name))}" for field in fields(value)
        )
        return f"{type(value).__name__}({rendered})"
    if isinstance(value, Mapping):
        rendered = ",".join(f"{key}:{_stable(value[key])}" for key in sorted(value))
        return f"{{{rendered}}}"
    if isinstance(value, (list, tuple)):
        return f"[{','.join(_stable(item) for item in value)}]"
    return repr(value)


#: Per-artifact fingerprint extractors: every option that can change the
#: artifact's *value* must appear here, or two differently configured
#: designs would poison each other through a shared store.  The expansion
#: itself is covered by the canonical text.
ARTIFACT_FINGERPRINTS: dict[str, Callable[["Design"], Any]] = {
    "encoding": lambda design: (),
    "endochrony": lambda design: (),
    "ranges": lambda design: (
        tuple(design.integer_domain),
        sorted(design.symbolic_options.ranges.items()),
    ),
    "symbolic_int": lambda design: (design.symbolic_options, tuple(design.integer_domain)),
}

#: The artifacts ``Design._artifact`` consults a store for.
CACHEABLE_ARTIFACTS = frozenset(ARTIFACT_FINGERPRINTS)


def design_key(design: "Design") -> str:
    """The canonical content hash of a design (shared by all its artifacts)."""
    text = f"repro-cache/{CACHE_FORMAT}\n{canonical_design_text(design)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_key(design: "Design", artifact: str) -> str:
    """The store key of one artifact of one design (content + options)."""
    fingerprint = _stable(ARTIFACT_FINGERPRINTS[artifact](design))
    suffix = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]
    return f"{design_key(design)}.{artifact}.{suffix}"


# --------------------------------------------------------------------------- failure payloads

#: Marker key of a persisted structural failure.
_ERROR_KEY = "__repro_cache_error__"


def error_payload(error: EncodingError) -> dict:
    """The pure-data form of a persisted structural failure."""
    return {_ERROR_KEY: type(error).__name__, "message": str(error)}


def payload_error(payload: Any) -> Optional[EncodingError]:
    """The structural failure a payload encodes, or None for a value payload."""
    if isinstance(payload, Mapping) and _ERROR_KEY in payload:
        return EncodingError(payload.get("message", "cached encoding failure"))
    return None
