#!/usr/bin/env python
"""Generate docs/api.md from the package's public API.

Walks every ``repro`` subpackage, collects the names each module exports
(``__all__`` when present, else public top-level definitions), and emits
a markdown reference with signatures and first docstring lines.  Run
from the repository root::

    python tools/gen_api_docs.py

The output is committed so the reference is readable without running
anything; regenerate after API changes (a test asserts staleness).
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

MODULES = [
    "repro",
    "repro.core.tenant",
    "repro.core.server",
    "repro.core.placement",
    "repro.core.classes",
    "repro.core.cube",
    "repro.core.multireplica",
    "repro.core.config",
    "repro.core.cubefit",
    "repro.core.validation",
    "repro.core.recovery",
    "repro.algorithms.base",
    "repro.algorithms.rfi",
    "repro.algorithms.naive",
    "repro.algorithms.offline",
    "repro.algorithms.repack",
    "repro.algorithms.lower_bound",
    "repro.algorithms.mixed",
    "repro.obs.metrics",
    "repro.obs.spans",
    "repro.obs.journal",
    "repro.analysis.weights",
    "repro.analysis.competitive",
    "repro.analysis.stats",
    "repro.analysis.cost",
    "repro.analysis.diagnostics",
    "repro.analysis.report",
    "repro.analysis.optimum",
    "repro.analysis.sla",
    "repro.workloads.distributions",
    "repro.workloads.sequences",
    "repro.workloads.loadmodel",
    "repro.workloads.tpch",
    "repro.workloads.trace_io",
    "repro.faults",
    "repro.store.wal",
    "repro.store.snapshot",
    "repro.store.recovery",
    "repro.cluster.engine",
    "repro.cluster.machine",
    "repro.cluster.datastore",
    "repro.cluster.client",
    "repro.cluster.background",
    "repro.cluster.routing",
    "repro.cluster.latency",
    "repro.cluster.failures",
    "repro.cluster.experiment",
    "repro.cluster.calibration",
    "repro.sim.scenarios",
    "repro.sim.runner",
    "repro.sim.figures",
    "repro.sim.timing",
    "repro.sim.churn",
    "repro.sim.elasticity",
    "repro.sim.sensitivity",
    "repro.sim.optgap",
    "repro.sim.soak",
    "repro.sim.chaos",
    "repro.par.pool",
    "repro.fleet.shard",
    "repro.fleet.router",
    "repro.fleet.fleet",
    "repro.fleet.rebalance",
    "repro.fleet.soak",
    "repro.fleet.chaos",
    "repro.serve.protocol",
    "repro.serve.server",
    "repro.serve.client",
    "repro.serve.drill",
    "repro.viz.svg",
    "repro.viz.charts",
    "repro.viz.figures",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_names(module) -> list:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        names.append(name)
    return names


def document_module(module_name: str) -> list:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    summary = first_line(module)
    if summary:
        lines.extend([summary, ""])
    for name in public_names(module):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{name}{signature_of(obj)}`")
            doc = first_line(obj)
            if doc:
                lines.append(f"\n{doc}\n")
            methods = []
            for method_name, method in inspect.getmembers(
                    obj, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                methods.append(
                    f"- `{method_name}{signature_of(method)}` — "
                    f"{first_line(method)}")
            lines.extend(methods)
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`")
            doc = first_line(obj)
            if doc:
                lines.append(f"\n{doc}\n")
        elif inspect.ismodule(obj):
            # A module's repr embeds its file path, which differs per
            # checkout; name it and quote its summary instead.
            lines.append(f"### module `{name}`")
            doc = first_line(obj)
            if doc:
                lines.append(f"\n{doc}\n")
        else:
            lines.append(f"### constant `{name}` = `{obj!r}`")
            lines.append("")
    lines.append("")
    return lines


def generate() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand;",
        "regenerate after changing the public API.",
        "",
    ]
    for module_name in MODULES:
        lines.extend(document_module(module_name))
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    out = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    out.write_text(generate())
    print(f"wrote {out} ({len(out.read_text().splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
