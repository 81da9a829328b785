"""Every name the benchmark harness under ``bench/`` looks up in magictrap resolves.

The harness runs against the package without importing it at collection
time, so a deleted or renamed function would only show up as a failed
benchmark run. The names are read from the harness sources with ``ast``:

* ``TRACED`` and ``NESTED`` in ``bench/tracer.py`` ("module.attribute" texts);
* every ``from magictrap... import ...`` and ``import magictrap...``;
* every attribute chain rooted at the name ``magictrap``, such as
  ``magictrap.polarizability.c_tensor_element``.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(BENCH.rglob("*.py"))


def _resolve(dotted):
    """The object named by ``dotted``, importing submodules as needed; raises if it is missing."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(".".join(parts[:i]))
    return obj


def _missing(names):
    out = []
    for name in names:
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            out.append(name)
    return out


def _tracer_names():
    values = {}
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TRACED", "NESTED"):
                values[node.targets[0].id] = ast.literal_eval(node.value)
    return sorted({f"magictrap.{n}" for n in values["TRACED"] + sum(values["NESTED"], ())})


def _dotted(node):
    """"a.b.c" for an attribute chain on a plain name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def _source_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "magictrap":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.partition(".")[0] == "magictrap")
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.partition(".")[0] == "magictrap":
                names.add(dotted)
    return sorted(names)


def test_traced_names_resolve():
    names = _tracer_names()
    assert "magictrap.stark.dressed_c20" in names
    assert _missing(names) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(BENCH)))
def test_harness_lookups_resolve(path):
    assert _missing(_source_names(path)) == []


def test_workload_imports_are_read():
    names = _source_names(BENCH / "workloads.py")
    assert {"magictrap.magic.find_magic_fields", "magictrap.stark.solve",
            "magictrap.polarizability.alpha_tensor_closed_form"} <= set(names)
