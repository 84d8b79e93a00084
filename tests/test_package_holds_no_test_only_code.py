"""The package holds no code that only the tests call.

A module-level function of ``src/fairltr`` must be referenced by the
package itself, exported in ``fairltr.__all__``, or patched by the
benchmark tracer (``bench/tracer.py``).  So must a method or property of a
module-level class, by an attribute of its name anywhere in the package,
unless Python or a base class outside the package calls it: a dunder
method, or an override such as ``_Parser.parse_known_args``.  Exporting a
class does not export its methods.  A function or method with none of
these callers serves only the tests, and belongs with them in ``tests/``,
as the exact references of ``tests/oracle.py`` do.
"""
import ast
import importlib
from pathlib import Path

import fairltr
from test_tracer_patch_points import load_tracer_module

PACKAGE = Path(fairltr.__file__).resolve().parent


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_functions():
    """``{(module, name): definition}`` of every module-level function, and
    of every method and property of a module-level class as
    ``(module, "Class.name")``, dunder methods left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, FUNCTIONS):
                found[(path.stem, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                found.update(((path.stem, f"{node.name}.{item.name}"), item)
                             for item in node.body if isinstance(item, FUNCTIONS)
                             and not (item.name.startswith("__")
                                      and item.name.endswith("__")))
    return found


def package_references():
    """``(module, name)`` of each function some package code refers to: by
    name in its own module, outside its own definition; as ``module.name``;
    or by a ``from`` import in a module other than ``__init__``.  And
    ``(None, name)`` of each attribute that some package code reads as
    ``<anything>.name`` outside a method of that name."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own_bodies = {id(node): node.name for node in tree.body
                      if isinstance(node, FUNCTIONS)}
        own_bodies.update((id(item), item.name) for node in tree.body
                          if isinstance(node, ast.ClassDef)
                          for item in node.body if isinstance(item, FUNCTIONS))
        stack = [(tree, None)]
        while stack:
            node, inside = stack.pop()
            inside = own_bodies.get(id(node), inside)
            if isinstance(node, ast.Name) and node.id != inside:
                found.add((path.stem, node.id))
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name):
                    found.add((node.value.id, node.attr))
                if node.attr != inside:
                    found.add((None, node.attr))
            elif isinstance(node, ast.ImportFrom) and path.stem != "__init__":
                module = (node.module or "").rpartition(".")[2]
                found.update((module, alias.name) for alias in node.names)
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


def overrides_outside_the_package(module: str, qualname: str) -> bool:
    """Whether method ``qualname`` overrides one of a base class from
    outside the package, whose own code calls it."""
    owner, _, name = qualname.partition(".")
    cls = getattr(importlib.import_module(f"fairltr.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("fairltr"))


def exported():
    return {(obj.__module__.rpartition(".")[2], name)
            for name in fairltr.__all__
            if callable(obj := getattr(fairltr, name))}


def patched_by_the_tracer():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        originals = [original for _, _, original in tracer._undo]
    finally:
        tracer.remove()
    return {(fn.__module__.rpartition(".")[2], fn.__qualname__) for fn in originals}


def test_every_package_function_has_a_caller_outside_the_tests():
    functions = module_functions()
    assert ("metrics", "ideal_dcg") in functions
    assert ("data", "Dataset.num_docs") in functions    # a property
    used = package_references() | exported() | patched_by_the_tracer()
    unused = sorted(
        f"{module}.{name}" for module, name in functions
        if (module, name) not in used
        and not ("." in name and ((None, name.rpartition(".")[2]) in used
                                  or overrides_outside_the_package(module, name))))
    assert unused == []


def test_the_scan_sees_each_kind_of_caller():
    """Each kind of reference the scan counts is found where the package
    makes it."""
    found = package_references()
    assert ("metrics", "position_bias_vector") in found  # from .metrics import
    assert ("data", "_read_letor") in found              # same module, by name
    assert ("policy", "gumbel_noise") in found           # policy.gumbel_noise
    assert (None, "with_params") in found                # model.with_params
    assert overrides_outside_the_package("cli", "_Parser.parse_known_args")
    assert not overrides_outside_the_package("policy", "LinearModel.backprop")
    assert ("policy", "sample_rankings") in exported()
    assert ("baselines", "solve_fair_lp") in patched_by_the_tracer()
