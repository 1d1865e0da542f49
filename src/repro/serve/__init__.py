"""Simulation-as-a-service: async job queue, admission, cross-request caches.

See :mod:`repro.serve.server` for the request pipeline and
:mod:`repro.serve.replay` for the heavy-traffic benchmark harness.
"""

from repro.serve.cache import ServeCaches
from repro.serve.replay import ReplayReport, build_request_mix, run_replay
from repro.serve.server import (
    SimulationRequest,
    SimulationResponse,
    SimulationServer,
    serve_forever,
)

__all__ = [
    "ReplayReport",
    "ServeCaches",
    "SimulationRequest",
    "SimulationResponse",
    "SimulationServer",
    "build_request_mix",
    "run_replay",
    "serve_forever",
]
