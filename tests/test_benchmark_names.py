"""The library names that the benchmark harness in ``perfbench/`` relies on.

``perfbench/child.py`` calls the library through ``mixlim.<name>`` chains,
and ``perfbench/tracer.py`` wraps every name in the ``__all__`` of each module
in its ``LAYERS``.  A change that deletes or renames one of them would make
every benchmark run fail, so these tests read both files (without importing
them) and check that each name still resolves.  The meters of child.py read
the arguments of the function they meter by parameter name, so a renamed
parameter is checked too.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _dotted(node):
    """``a.b.c`` of a Name/Attribute chain, or None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _child_chains():
    """Longest ``mixlim.<...>`` attribute chains in child.py."""
    chains = set()
    for node in ast.walk(_tree("child.py")):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None and dotted.startswith("mixlim."):
                chains.add(dotted)
    return sorted(c for c in chains if not any(o.startswith(c + ".") for o in chains))


def _assigned(filename, name):
    """The expression assigned to the module-level ``name`` of a perfbench file."""
    for node in _tree(filename).body:
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == name:
            return node.value
    raise LookupError(f"{filename} assigns no {name}")


def _layers():
    return ast.literal_eval(_assigned("tracer.py", "LAYERS"))


def _resolve(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            # a submodule that nothing has imported yet, such as mixlim.cli
            importlib.import_module(".".join(parts[: k + 1]))
        obj = getattr(obj, part)
    return obj


def test_child_chains_were_found():
    chains = _child_chains()
    assert "mixlim.collect_diagnostics" in chains
    assert "mixlim.RngStream.uniforms" in chains


@pytest.mark.parametrize("dotted", _child_chains())
def test_child_name_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("layer", _layers())
def test_tracer_layer_has_all(layer):
    module = importlib.import_module(f"mixlim.{layer}")
    assert isinstance(module.__all__, (list, tuple))
    for name in module.__all__:
        assert hasattr(module, name), f"mixlim.{layer}.__all__ names missing {name}"


@pytest.mark.parametrize("table", ["METERS", "COUNTED"])
def test_metered_names_are_traced(table):
    """Meters and counters attach by "<layer>.<name>"; a stale key is silently unused."""
    layers = _layers()
    for key in _assigned("child.py", table).keys:
        layer, name = ast.literal_eval(key).split(".")
        assert layer in layers
        assert name in importlib.import_module(f"mixlim.{layer}").__all__


def _meter_reads():
    """(metered name, key) of every ``args["key"]`` that a meter in child.py reads."""
    functions = {node.name: node for node in _tree("child.py").body
                 if isinstance(node, ast.FunctionDef)}
    table = _assigned("child.py", "METERS")
    reads = []
    for key, meter in zip(table.keys, table.values):
        for node in ast.walk(functions[meter.id]):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.append((ast.literal_eval(key), ast.literal_eval(node.slice)))
    return sorted(set(reads))


def test_meter_reads_were_found():
    assert {("samplers.monte_carlo", "n"), ("samplers.monte_carlo", "replicates"),
            ("stable_limit.sample_stable", "spec"), ("stable_limit.sample_stable", "size"),
            ("stable_limit.cdf", "x")} <= set(_meter_reads())


@pytest.mark.parametrize("metered, key", _meter_reads())
def test_meter_reads_a_parameter(metered, key):
    """The tracer binds each call to the metered function's signature."""
    layer, name = metered.split(".")
    function = getattr(importlib.import_module(f"mixlim.{layer}"), name)
    assert key in inspect.signature(function).parameters, f"{metered} has no parameter {key}"
