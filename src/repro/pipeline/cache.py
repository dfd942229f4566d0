"""Persistent, content-addressed result cache for the pair sweep.

Incremental analysis: every cache entry is keyed by the pair's names and
guarded by a *fingerprint* — a SHA-256 over the things that determine the
pair's result:

* each operation's definition (name, parameter kinds, and the source of
  its symbolic body, so editing one op's model invalidates exactly the
  pairs that use it);
* the state constructor and equivalence function sources;
* the kernels under test (factory identity and the source of the kernel,
  mtrace, testgen, and analyzer infrastructure — an infrastructure change
  invalidates everything, as it must);
* the TESTGEN ``tests_per_path`` knob.

File layout (JSON, human-inspectable)::

    {
      "version": 1,
      "entries": {
        "open|rename": {"fingerprint": "ab12...", "cell": {...PairCellData}}
      }
    }

A fingerprint mismatch is treated as a miss and overwritten on ``put``;
a corrupt or missing file starts an empty cache.  ``save()`` writes
atomically (tmp file + ``os.replace``) so an interrupted sweep never
destroys the previous cache, and *merges*: under an exclusive advisory
lock it re-reads the file and folds the entries this writer dirtied into
whatever other writers landed meanwhile, so concurrent jobs sharing one
cache directory (the service's worker pool, two CLI sweeps) never lose
each other's entries.  The cache object itself is thread-safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import threading
from functools import lru_cache
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.model import spec as model_spec
from repro.model.base import OpDef
from repro.model.spec import fingerprint_source
from repro.pipeline.jobs import PairJob

CACHE_VERSION = 1

#: Where the batch CLI and the service keep the cache unless told otherwise.
DEFAULT_CACHE = "results/pipeline-cache.json"


def atomic_write_json(path: str, payload: dict) -> str:
    """Write JSON via tmp file + rename, creating parent directories.

    Used for the cache and every ``results/`` artifact: an interrupted
    write never destroys the previous file, and a per-writer tmp name
    (``mkstemp``) keeps concurrent writers to one path from trampling
    each other's half-written files.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=1)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):  # json.dump raised; don't litter
            os.unlink(tmp)
        raise
    return path

#: Modules whose source feeds the infrastructure part of the fingerprint.
#: Anything that changes what a pair job computes belongs here.
_CONTEXT_MODULES = (
    "repro.analyzer.analyzer",
    "repro.symbolic.engine",
    "repro.symbolic.solver",
    "repro.symbolic.symtypes",
    "repro.symbolic.terms",
    "repro.symbolic.enumerate",
    "repro.testgen.testgen",
    "repro.testgen.casegen",
    "repro.mtrace.memory",
    "repro.mtrace.machine",
    "repro.mtrace.runner",
    "repro.kernels.base",
    "repro.kernels.mono",
    "repro.kernels.scalefs",
    "repro.model.base",
    "repro.model.registry",
    "repro.model.spec",
    "repro.testgen.sockets",
    "repro.pipeline.jobs",
)

#: Model modules are hashed with their registered op bodies *removed*:
#: op bodies are fingerprinted per-op (so editing one op invalidates only
#: its pairs) while the shared helpers around them (``fd_lookup``,
#: ``get_inode``, state classes, ...) invalidate everything.
_MODEL_MODULES = (
    "repro.model.fs",
    "repro.model.vm",
    "repro.model.posix",
    "repro.model.proc",
    "repro.model.sockets",
)


# Best-effort source text of a function/class, falling back to bytecode
# so dynamically built ops still get a content hash.  Spec-derived hooks
# have no meaningful source of their own — they stand in their owning
# spec's content hash via ``__fingerprint_source__``, so editing an
# ``InterfaceSpec`` (or bumping the spec schema) invalidates exactly the
# pairs derived from it.  One canonical implementation, shared with the
# spec layer's own content hashing.
_source_of = fingerprint_source


def op_fingerprint(op: OpDef) -> str:
    """Content hash of one operation definition."""
    h = hashlib.sha256()
    h.update(op.name.encode())
    for param in op.params:
        h.update(f"|{param.name}:{param.kind}".encode())
        sort = getattr(param, "sort", None)
        if sort is not None:
            h.update(f"[{sort.name}]".encode())
        if getattr(param, "lo", None) is not None:
            h.update(f"[{param.lo},{param.hi}]".encode())
    h.update(b"|")
    h.update(_source_of(op.fn).encode())
    return h.hexdigest()


def _import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    try:
        return __import__(name, fromlist=["_"])
    except ImportError:  # pragma: no cover - partial installs
        return None


def _module_source_without_ops(module) -> str:
    """Module source with every registered op body stripped.

    Op bodies are hashed per-op by :func:`op_fingerprint`; removing them
    here keeps the model-module hash sensitive to shared helpers and
    state classes but *not* to individual op edits, which is what makes
    the cache incremental at pair granularity.
    """
    source = _source_of(module)
    for value in vars(module).values():
        if not isinstance(value, list):
            continue
        for op in value:
            if not isinstance(op, OpDef):
                continue
            if getattr(op.fn, "__module__", None) != module.__name__:
                continue
            source = source.replace(_source_of(op.fn), "")
    return source


@lru_cache(maxsize=None)
def _context_hash() -> str:
    h = hashlib.sha256()
    for name in _CONTEXT_MODULES:
        module = _import(name)
        if module is None:
            h.update(f"missing:{name}".encode())
            continue
        h.update(name.encode())
        h.update(_source_of(module).encode())
    for name in _MODEL_MODULES:
        module = _import(name)
        if module is None:
            h.update(f"missing:{name}".encode())
            continue
        h.update(name.encode())
        h.update(_module_source_without_ops(module).encode())
    return h.hexdigest()


def context_fingerprint() -> str:
    """The analysis-context hash shared by every job fingerprint.

    This is the cluster handshake's compatibility check: a worker whose
    checkout computes a different context hash would produce results
    the coordinator's cache fingerprints could silently mis-attribute,
    so the coordinator rejects it at connect time instead.
    """
    return _context_hash()


def job_fingerprint(job: PairJob) -> str:
    """Fingerprint guarding one pair's cached result.

    Op fingerprints enter in canonical order, matching
    :attr:`PairJob.key`: a pair requested as (a, b) hits the entry a
    previous (b, a) run stored.
    """
    h = hashlib.sha256()
    # The spec/registry schema version guards every entry: a derivation
    # rule change invalidates the whole cache rather than silently
    # reusing results computed under the old rules.
    h.update(f"spec-schema:{model_spec.SPEC_SCHEMA_VERSION}".encode())
    for fp in sorted((op_fingerprint(job.op0), op_fingerprint(job.op1))):
        h.update(fp.encode())
    h.update(_source_of(job.build_state).encode())
    h.update(_source_of(job.state_equal).encode())
    h.update(str(job.tests_per_path).encode())
    # The interface picks the TESTGEN concretization hooks; the core
    # count sizes per-core kernel structures — both change results.
    h.update(job.interface.encode())
    h.update(str(job.ncores).encode())
    for name, factory in job.kernels:
        h.update(name.encode())
        h.update(
            f"{getattr(factory, '__module__', '')}."
            f"{getattr(factory, '__qualname__', repr(factory))}".encode()
        )
        h.update(_source_of(factory).encode())
    h.update(_context_hash().encode())
    return h.hexdigest()


class ResultCache:
    """JSON-backed pair-result cache with hit/miss accounting.

    Safe for concurrent use: method-level locking makes one instance
    shareable across threads (the service runs several jobs against one
    cache), and ``save()`` merges rather than overwrites, so separate
    writers — instances in other threads *or other processes* — pointed
    at the same path keep each other's entries.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._dirty_keys: set[str] = set()
        self._entries: dict[str, dict] = {}
        self._entries.update(self._read_entries())

    def _read_entries(self) -> dict[str, dict]:
        """The entries currently on disk (empty for missing/corrupt)."""
        try:
            with open(self.path) as f:
                raw = json.load(f)
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) or raw.get("version") != CACHE_VERSION:
            return {}
        entries = raw.get("entries")
        return entries if isinstance(entries, dict) else {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, fingerprint: str) -> Optional[dict]:
        """The cached cell dict, or None on a miss or stale fingerprint."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.get("fingerprint") == fingerprint:
                self.hits += 1
                return entry.get("cell")
            self.misses += 1
            return None

    def put(self, key: str, fingerprint: str, cell: dict) -> None:
        with self._lock:
            self._entries[key] = {"fingerprint": fingerprint, "cell": cell}
            self._dirty_keys.add(key)

    def save(self) -> None:
        """Persist this writer's dirty entries, merging with the file.

        Read-merge-write runs under an exclusive advisory lock on a
        sidecar ``<path>.lock`` file (when ``fcntl`` exists), so two
        writers saving simultaneously serialize instead of each
        publishing a file missing the other's keys.  Disk entries for
        keys this writer never touched are adopted into memory — a
        concurrent sweep's results become this instance's cache hits;
        stale adopted entries are harmless because ``get`` always checks
        the fingerprint.
        """
        with self._lock:
            if not self._dirty_keys:
                return
            with _file_lock(self.path + ".lock"):
                disk = self._read_entries()
                for key, entry in disk.items():
                    if key not in self._dirty_keys:
                        self._entries[key] = entry
                atomic_write_json(
                    self.path,
                    {"version": CACHE_VERSION, "entries": self._entries},
                )
            self._dirty_keys.clear()


def as_cache(cache):
    """A path becomes a :class:`ResultCache`; ``None`` and any object
    with ``get``/``put``/``save`` (the seam is duck-typed) pass through."""
    if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
        return ResultCache(cache)
    return cache


class _file_lock:
    """Exclusive advisory lock held for a read-merge-write critical
    section.  ``flock`` is per open-file-description, so it serializes
    threads and processes alike; without ``fcntl`` it degrades to the
    pre-merge behavior (atomic replace, last writer wins the race
    window)."""

    def __init__(self, path: str):
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self):
        if fcntl is not None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc):
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None
        return False
