"""Dead-surface guard: every module-level function and class of the package,
and every method and property of its classes, has a reference from a package
module, the top-level `__init__` re-exports aside, or an allowlist entry that
says why it stays without one.

A reference is a name or an attribute of that spelling anywhere in a
package module other than `tapbound/__init__.py`; tests, the benchmark and
the re-export list do not count. Dunder methods, which Python calls by
protocol, are not scanned.
"""

import ast
from pathlib import Path

import tapbound

PACKAGE = Path(tapbound.__file__).parent

# name -> why it stays with no reference inside the package
ALLOWED = {
    "cover_cardinality_bound": "the |A_{eps,eta}| bound that the exhaustive cover "
                               "experiment prints beside log(#nodes)/N (ROADMAP item 4)",
    "restricted_log_partition": "the per-node oracle of that experiment's partition "
                                "identity (ROADMAP item 4)",
    "point_cloud": "the builder of the point-cloud measure whose general-flavor "
                   "entropy that experiment runs (ROADMAP item 4)",
    "log_partition_mc_sphere": "public one-problem call, the block of one of "
                               "log_partition_mc_sphere_many",
    "sample_disorders": "public block sampler; the harness fills its blocks from "
                        "stream states it has already hashed",
    "tap_gradient": "public one-row call of tap_gradient_many",
}


# "Class.member" -> why it stays with no reference inside the package
ALLOWED_MEMBERS = {}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scan():
    """({name: module} of the module-level functions and classes,
    {"Class.member": module} of the non-dunder methods and properties of
    those classes, the names that package modules but the top-level
    `__init__` reference)."""
    defined, members, referenced = {}, {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(PACKAGE).as_posix()
        for node in tree.body:
            if isinstance(node, _DEFS + (ast.ClassDef,)):
                defined[node.name] = module
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, _DEFS) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        members[f"{node.name}.{member.name}"] = module
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, members, referenced


def unreferenced():
    """{name: module} of the module-level functions and classes that no
    package module but the top-level `__init__` names."""
    defined, _, referenced = _scan()
    return {name: module for name, module in defined.items() if name not in referenced}


def unreferenced_members():
    """{"Class.member": module} of the methods and properties whose name no
    package module but the top-level `__init__` references."""
    _, members, referenced = _scan()
    return {key: module for key, module in members.items()
            if key.split(".", 1)[1] not in referenced}


def test_every_definition_has_a_reference_or_a_reason():
    dead = {name: module for name, module in unreferenced().items()
            if name not in ALLOWED}
    assert dead == {}


def test_every_allowlist_entry_is_still_unreferenced():
    # an entry whose name gained a caller, or was deleted, is stale
    assert sorted(set(ALLOWED) - set(unreferenced())) == []


def test_every_method_and_property_has_a_reference_or_a_reason():
    dead = {key: module for key, module in unreferenced_members().items()
            if key not in ALLOWED_MEMBERS}
    assert dead == {}


def test_every_member_allowlist_entry_is_still_unreferenced():
    assert sorted(set(ALLOWED_MEMBERS) - set(unreferenced_members())) == []


def test_member_scan_sees_methods_and_properties():
    # the scan must reach into class bodies: the stacked terms and their
    # derivative tensors are members that the kernels read
    _, members, _ = _scan()
    expect = {"DisorderSample.terms": "hamiltonian.py",
              "DisorderSample.gradient_terms": "hamiltonian.py",
              "DisorderSample.hessian_terms": "hamiltonian.py",
              "DisorderSample.replicas": "hamiltonian.py",
              "CoverBuilder.classify": "cover.py"}
    assert {key: members.get(key) for key in expect} == expect
