"""Dead-surface guard: every module-level function and class of the package
has a reference from a package module, the top-level `__init__` re-exports
aside, or an allowlist entry that says why it stays without one.

A reference is a name or an attribute of that spelling anywhere in a
package module other than `tapbound/__init__.py`; tests, the benchmark and
the re-export list do not count.
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


def unreferenced():
    """{name: module} of the module-level functions and classes that no
    package module but the top-level `__init__` names."""
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.relative_to(PACKAGE).as_posix()
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {name: module for name, module in defined.items() if name not in referenced}


def test_every_definition_has_a_reference_or_a_reason():
    dead = {name: module for name, module in unreferenced().items()
            if name not in ALLOWED}
    assert dead == {}


def test_every_allowlist_entry_is_still_unreferenced():
    # an entry whose name gained a caller, or was deleted, is stale
    assert sorted(set(ALLOWED) - set(unreferenced())) == []
