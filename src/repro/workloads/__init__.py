"""Workload generation: distributions, sequences, load model, TPC-H-like."""

from .distributions import (LoadDistribution, ClientCountDistribution,
                            UniformLoad, DiscreteUniformClients,
                            ZipfClients, NormalizedClients, ModelLoad,
                            TraceLoads, DEFAULT_MAX_CLIENTS, MIN_LOAD)
from .sequences import (generate_sequence, generate_client_counts,
                        clients_to_sequence)
from .loadmodel import (LinearLoadModel, BoundaryPoint, fit_boundary,
                        DEFAULT_LOAD_MODEL)
from .tpch import (QueryTemplate, QueryStream, QueryExecution,
                   read_templates, update_template, mean_read_demand,
                   UPDATE_FRACTION, DEMAND_SCALE)
from .trace_io import save_trace, load_trace

__all__ = [
    "LoadDistribution", "ClientCountDistribution", "UniformLoad",
    "DiscreteUniformClients", "ZipfClients", "NormalizedClients",
    "ModelLoad", "TraceLoads", "DEFAULT_MAX_CLIENTS", "MIN_LOAD",
    "generate_sequence", "generate_client_counts", "clients_to_sequence",
    "LinearLoadModel", "BoundaryPoint", "fit_boundary",
    "DEFAULT_LOAD_MODEL", "QueryTemplate", "QueryStream",
    "QueryExecution", "read_templates", "update_template",
    "mean_read_demand", "UPDATE_FRACTION", "DEMAND_SCALE",
    "save_trace", "load_trace",
]
