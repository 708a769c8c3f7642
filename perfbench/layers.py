"""Which diffqkv functions the traced run wraps, and how its spans are grouped.

Every public function of each layer module is wrapped at every name the
program looks it up by (a module global such as ``diffqkv.model.group_share``
as well as its home ``diffqkv.attention.group_share``), together with the
cache methods and ``Tensor.backward``.  A span is named ``<layer>.<function>``.
"""

from __future__ import annotations

import importlib
import inspect
import sys

from tracer import NAME, Tracer

# Modules on a timed path; config, errors, cli and bench are not.
LAYERS = (
    "model",
    "attention",
    "kvcache",
    "kernel",
    "autodiff",
    "reference",
    "tensorio",
    "costmodel",
    "verify",
)

METHODS = (
    ("kvcache", "DifferentialKVCache", "append"),
    ("kvcache", "DifferentialKVCache", "view"),
    ("kvcache", "DifferentialKVCache", "footprint"),
    ("autodiff", "Tensor", "backward"),
)


def _materialized(args, result) -> int:
    # Bytes of a freshly built array, computed from its size: group_share hands
    # its input back unchanged when no duplication is needed.
    return 0 if result is args[0] else result.nbytes


MEASURED = {
    "attention.group_share": _materialized,
    "attention.expand_k_dim": _materialized,
}


class Probe:
    """A tracer plus the prepared list of patches that route calls through it."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer or Tracer()
        self.traced_wall = 0.0  # wall time of traced operations, measured outside their spans
        self._patches = _prepare(self.tracer)

    def install(self) -> None:
        for owner, attr, wrapper in self._patches:
            self.tracer.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.tracer.uninstall()


def _prepare(tracer: Tracer) -> list[tuple[object, str, object]]:
    modules = {layer: importlib.import_module(f"diffqkv.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, MEASURED.get(name))
    patches = []
    package = [m for n, m in sorted(sys.modules.items()) if n == "diffqkv" or n.startswith("diffqkv.")]
    for module in package:
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, attr, wrappers[obj]))
    for layer, cls_name, attr in METHODS:
        cls = getattr(modules[layer], cls_name)
        patches.append((cls, attr, tracer.wrap(f"{layer}.{attr}", getattr(cls, attr))))
    return patches


def categories(spans: list[list]) -> list[str]:
    """Group each span's self time for the per-phase breakdown.

    The layer name, except that the augmented-Q block (with everything it
    calls) and the Q/K/V projection around it are split out of ``attention``,
    and SiLU called from the model's FFN counts as ``model``.
    """
    out: list[str] = []
    for name, _, _, parent, _ in spans:
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        if parent >= 0 and out[parent] == "attention.augment_q":
            cat = "attention.augment_q"
        elif name in ("attention.augment_q", "attention.project_qkv"):
            cat = name
        elif name == "attention.silu" and not parent_name.startswith("attention."):
            cat = "model"
        else:
            cat = name.partition(".")[0]
        out.append(cat)
    return out

