"""The library names the benchmark harness uses still exist and still take its arguments.

The harness's own tests are not part of this suite, so a change that renames
or trims a function it calls would otherwise go unseen until a benchmark run.
These tests read ``perfbench/workloads.py`` and ``perfbench/layers.py`` as
syntax trees, without importing them.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# workloads.py imports these diffqkv modules under these aliases.
ALIASES = {"dc": "config", "cm": "costmodel", "dm": "model", "dv": "verify"}


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _library_attributes(tree: ast.Module) -> list[ast.Attribute]:
    """Every ``dc.x``/``cm.x``/``dm.x``/``dv.x`` in the tree (code, not strings)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ALIASES
    ]


def _resolve(node: ast.Attribute):
    module = importlib.import_module(f"diffqkv.{ALIASES[node.value.id]}")
    return getattr(module, node.attr)


def _library_calls(tree: ast.Module) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ALIASES
    ]


def _assigned_literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"layers.py assigns no {name}")


WORKLOADS = _tree("workloads.py")
LAYERS = _tree("layers.py")


def test_every_attribute_exists():
    missing = []
    for node in _library_attributes(WORKLOADS):
        try:
            _resolve(node)
        except AttributeError:
            missing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert not missing


def test_every_call_binds():
    calls = _library_calls(WORKLOADS)
    assert len(calls) >= 20, "the harness no longer calls the library through the aliases"
    unbound = []
    for call in calls:
        # Each argument is only counted and named here; its value is not evaluated.
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        try:
            signature = inspect.signature(_resolve(call.func))
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except (AttributeError, TypeError) as exc:
            unbound.append(f"line {call.lineno}: {call.func.value.id}.{call.func.attr}: {exc}")
    assert not unbound


def test_every_traced_module_and_method_exists():
    for layer in _assigned_literal(LAYERS, "LAYERS"):
        importlib.import_module(f"diffqkv.{layer}")
    for layer, cls, method in _assigned_literal(LAYERS, "METHODS"):
        assert callable(getattr(getattr(importlib.import_module(f"diffqkv.{layer}"), cls), method))


def test_every_verify_check_binds_the_workload_call():
    # workloads.verify_checks calls every check_* of diffqkv.verify through getattr,
    # passing seed= when the signature names it and nothing else.
    verify = importlib.import_module("diffqkv.verify")
    checks = {
        name: fn for name, fn in vars(verify).items() if name.startswith("check_") and inspect.isfunction(fn)
    }
    assert len(checks) >= 10, "diffqkv.verify no longer holds its check_* properties"
    unbound = []
    for name, fn in checks.items():
        signature = inspect.signature(fn)
        try:
            signature.bind(**({"seed": 0} if "seed" in signature.parameters else {}))
        except TypeError as exc:
            unbound.append(f"{name}: {exc}")
    assert not unbound
