"""Online serving: incremental flow state, micro-batching, HTTP front end.

The offline pipeline trains on a frozen trip log; this package is the
online half of the paper's train-offline/predict-online deployment
story (Sec. VII-I), built in three layers:

* :mod:`repro.serve.state` — :class:`FlowStateStore` ingests individual
  trip events and incrementally maintains the short-/long-term flow
  windows the model samples, bitwise-equivalent to the batch
  :func:`~repro.data.flows.build_flow_tensors` path.
* :mod:`repro.serve.service` — :class:`PredictionService` wraps a
  loaded STGNN-DJD behind the forward-only fast path with request
  micro-batching, bounded-queue backpressure, a per-slot forecast
  cache, and atomic checkpoint hot-reload.
* :mod:`repro.serve.http` — a stdlib ``ThreadingHTTPServer`` exposing
  ``/predict``, ``/ingest``, ``/healthz``, ``/metrics`` and
  ``/admin/reload``; ``python -m repro.serve`` boots it from the
  command line.
* :mod:`repro.serve.fleet` — the scale-out tier: K-way station-sharded
  flow state (bitwise-equal reassembly) behind N replicated prediction
  services and a front-of-fleet router; ``python -m repro.serve
  --shards K --replicas N`` boots a fleet behind the same HTTP surface.

Quickstart (in-process)::

    from repro.serve import PredictionService, ServiceConfig

    service = PredictionService.for_dataset(model, dataset)
    with service:
        service.store.ingest(trip)           # stream events in
        forecast = service.predict([3, 7])   # bikes, next slot
"""

from repro.serve.state import (
    FlowStateConfig,
    FlowStateStore,
    LateEventError,
    StoreSample,
)
from repro.serve.service import (
    Forecast,
    PredictionService,
    ReplicaCrash,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ServiceStopped,
)
from repro.serve.http import ServingHTTPServer, make_server
from repro.serve.fleet import (
    FleetConfig,
    FleetReloadError,
    FleetRouter,
    ShardedFlowStore,
    ShardMap,
    make_fleet_server,
)

__all__ = [
    "FleetConfig",
    "FleetReloadError",
    "FleetRouter",
    "FlowStateConfig",
    "FlowStateStore",
    "LateEventError",
    "Forecast",
    "PredictionService",
    "ReplicaCrash",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStopped",
    "ServingHTTPServer",
    "ShardMap",
    "ShardedFlowStore",
    "StoreSample",
    "make_fleet_server",
    "make_server",
]
