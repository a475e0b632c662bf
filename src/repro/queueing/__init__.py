"""The Chapter 5 queuing evaluation.

"In order to get an estimate for resource requirements, we used a
queuing system model to simulate a system. The model was an open
queuing model and was solved using IBM's RESQ2 model solver" (§5.1).

We solve the same Figure 5.1 open network two independent ways — an
analytic product-form solver (:mod:`repro.queueing.solver`) and a
discrete-event simulation (:mod:`repro.queueing.simulate`) — over the
Figure 5.2 hardware parameters and the Figure 5.4 operating points, and
search for the user capacity behind the thesis's headline claim that
"the recorder, constructed from current technology, can support a system
of up to 115 users".

No ``System`` uses the model, so nothing loads with the package: a
name loads its submodule when first accessed.
"""

from importlib import import_module

#: export -> the submodule defining it; a submodule not yet imported
#: loads when one of its names is first read
_EXPORTS = {
    "OperatingPoint": "workload",
    "OPERATING_POINTS": "workload",
    "StateSizeDistribution": "workload",
    "checkpoint_traffic": "workload",
    "OpenQueueingModel": "model",
    "StationLoad": "model",
    "StationSolution": "solver",
    "solve_station": "solver",
    "solve_model": "solver",
    "SimulationResult": "simulate",
    "simulate_model": "simulate",
    "capacity_in_users": "capacity",
    "capacity_in_nodes": "capacity",
    "storage_requirement_bytes": "capacity",
    "FederationCapacityModel": "federation",
    "FederationShape": "federation",
    "measure_gateway_knee": "federation",
    "modeled_gateway_knee_per_s": "federation",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
