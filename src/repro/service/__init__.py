"""The multi-tenant query serving layer (``QueryService``).

- :mod:`repro.service.service` -- :class:`QueryService`, the long-lived
  server: admission, dispatch, cache probes, explicit outcomes.
- :mod:`repro.service.cache` -- the session-aware semantic result cache
  with drill-down subsumption reuse above the chunk cache.
- :mod:`repro.service.scheduler` -- bounded per-tenant queues and
  smooth weighted round-robin dispatch with in-flight caps.
"""

from repro.service.cache import (
    FootprintIndex,
    SemanticResultCache,
    estimate_result_weight,
)
from repro.service.scheduler import FairScheduler
from repro.service.service import (
    QueryCompleted,
    QueryFailed,
    QueryOutcome,
    QueryRejected,
    QueryService,
    QueryTicket,
    ServiceConfig,
    live_services,
)

__all__ = [
    "FairScheduler",
    "FootprintIndex",
    "QueryCompleted",
    "QueryFailed",
    "QueryOutcome",
    "QueryRejected",
    "QueryService",
    "QueryTicket",
    "SemanticResultCache",
    "ServiceConfig",
    "estimate_result_weight",
    "live_services",
]
