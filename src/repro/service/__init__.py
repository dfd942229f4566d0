"""COMMUTER-as-a-service: async job server over the pair-sweep pipeline.

The batch CLI answers one question per invocation and pays Python
startup plus cache parsing every time.  This package keeps the pipeline
resident behind a dependency-free asyncio HTTP/JSON server, so a spec
iteration loop becomes: edit the model, POST a job, stream per-pair
NDJSON progress, and fetch the artifact by content digest — with the
fingerprinted :class:`~repro.pipeline.cache.ResultCache` recomputing
only the rows/columns the edit invalidated.

Layers
======

:mod:`repro.service.jobs`
    :class:`JobManager` — validated submissions, a bounded worker pool,
    the ``queued → running → done|error|cancelled`` lifecycle, and
    seq-numbered per-pair events (``repro.job/1``).
:mod:`repro.service.store`
    :class:`ArtifactStore` — content-addressed artifacts
    (``results/store/<sha256>.json``) plus request-key memoization, the
    source of the service's byte-identity guarantee.
:mod:`repro.service.http`
    :class:`ServiceServer` — the asyncio front end (``repro serve``).
:mod:`repro.service.client`
    :class:`ServiceClient` — the stdlib client (``repro submit``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import DEFAULT_HOST, DEFAULT_PORT, ServiceServer
from repro.kinds import BadRequest
from repro.service.jobs import (
    JOB_KINDS,
    JOB_SCHEMA,
    TERMINAL,
    JobCancelled,
    JobManager,
    JobRecord,
)
from repro.service.store import (
    DEFAULT_STORE,
    STORE_INDEX_VERSION,
    ArtifactStore,
    UnknownArtifactError,
    artifact_digest,
    canonical_bytes,
)

__all__ = [
    "ArtifactStore",
    "BadRequest",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_STORE",
    "JOB_KINDS",
    "JOB_SCHEMA",
    "JobCancelled",
    "JobManager",
    "JobRecord",
    "STORE_INDEX_VERSION",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "TERMINAL",
    "UnknownArtifactError",
    "artifact_digest",
    "canonical_bytes",
]
