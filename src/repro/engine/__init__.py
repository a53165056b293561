"""The experiment engine: registries → streaming runner → declarative sweeps.

Three layers, each usable on its own:

* :mod:`repro.engine.registry` — the capability-aware
  :class:`AlgorithmRegistry` every scheduler registers into
  (profit-aware / online / multiprocessor / certificate-producing); its
  workload-side mirror is :class:`repro.workloads.registry.
  WorkloadRegistry`, which both share one parameterized-spec grammar;
* :mod:`repro.engine.runner` — :class:`BatchRunner`, which *streams*
  (algorithm × instance) grids (``iter_records`` yields in completion
  order; ``run`` collects in request order) serially or on a process
  pool, with a content-addressed on-disk :class:`ResultCache`, per-cell
  measured wall times, and round-robin sharding (:func:`shard_requests`,
  :func:`merge_shards`);
* :mod:`repro.engine.experiment` — :class:`ExperimentSpec`, the
  declarative parameter-grid form (grid, variant, and workload axes)
  that compiles down to batch requests.

The *cache fabric* spans the cache layer: :mod:`repro.engine.cache`
adds an in-memory LRU (:class:`MemoryCache`) and the promoting/
write-through :class:`TieredCache`, :mod:`repro.engine.remote` holds
the network clients (:class:`HttpCache`, :class:`HttpClaimTable`), and
:mod:`repro.io.server` serves any local backend — plus the
work-stealing claim table :meth:`BatchRunner.run_stolen` consumes —
over a small JSON/HTTP wire protocol.

See ``docs/architecture.md`` for the layering contract and the cache
key scheme.
"""

from .cache import (
    CacheBackend,
    DirectoryCache,
    MemoryCache,
    ResultCache,
    SqliteCache,
    TieredCache,
    backend_stats,
    open_cache,
)
from .remote import (
    HttpCache,
    HttpClaimTable,
    HttpConnectionPool,
    RetryPolicy,
)
from .experiment import (
    ExperimentCell,
    ExperimentSpec,
    aggregate_records,
    resolve_family,
    run_experiment,
)
from .registry import (
    REGISTRY,
    AlgorithmInfo,
    AlgorithmRegistry,
    RunOutcome,
    canonical_variant_name,
    parse_variant_name,
    register_algorithm,
)
from .runner import (
    BatchRunner,
    ClaimTable,
    InProcessClaimTable,
    RunnerStats,
    RunRecord,
    RunRequest,
    evaluate_request,
    merge_shards,
    record_from_payload,
    record_to_payload,
    request_key,
    shard_requests,
)

__all__ = [
    "REGISTRY",
    "AlgorithmInfo",
    "AlgorithmRegistry",
    "RunOutcome",
    "register_algorithm",
    "parse_variant_name",
    "canonical_variant_name",
    "CacheBackend",
    "DirectoryCache",
    "MemoryCache",
    "ResultCache",
    "SqliteCache",
    "TieredCache",
    "HttpCache",
    "HttpClaimTable",
    "HttpConnectionPool",
    "RetryPolicy",
    "backend_stats",
    "open_cache",
    "BatchRunner",
    "ClaimTable",
    "InProcessClaimTable",
    "RunnerStats",
    "RunRecord",
    "RunRequest",
    "request_key",
    "evaluate_request",
    "shard_requests",
    "merge_shards",
    "record_to_payload",
    "record_from_payload",
    "ExperimentSpec",
    "ExperimentCell",
    "run_experiment",
    "aggregate_records",
    "resolve_family",
]
