"""Every public name is used by the package or the benchmark.

A name that shiftlab or shiftlab.subset_sum exports must be referenced
somewhere in src/ or perfbench/ besides its own definition and the package
__init__ export lists. A helper that only tests reach is surface to delete,
not to export.
"""

import ast
import collections
import pathlib

import shiftlab
import shiftlab.subset_sum

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPORT_LISTS = {
    ROOT / "src" / "shiftlab" / "__init__.py",
    ROOT / "src" / "shiftlab" / "subset_sum" / "__init__.py",
}

# Public laws that the tests pin and nothing in src/ or perfbench/ calls:
# project_pair is the sequential projection law (failure exactly 1/|J| on
# an odd support), iqft_success_probability the closed-form readout
# success rate.
PINNED_BY_TESTS = {"project_pair", "iqft_success_probability"}


def references() -> collections.Counter:
    """How often each identifier is read, imported, read as an attribute or
    spelled as a whole string constant (a name patched by string) in the
    Python files of src/ and perfbench/, the export lists left out.
    Definitions and assignments are not reads."""
    seen: collections.Counter = collections.Counter()
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    for path in paths:
        if path in EXPORT_LISTS:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen[node.id] += 1
            elif isinstance(node, ast.Attribute):
                seen[node.attr] += 1
            elif isinstance(node, ast.alias):
                seen[node.name.rsplit(".", 1)[-1]] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen[node.value] += 1
    return seen


def test_every_public_name_is_used_outside_the_tests():
    # __version__ is package metadata, not an API to call
    public = set(shiftlab.__all__) | set(shiftlab.subset_sum.__all__)
    public.discard("__version__")
    assert PINNED_BY_TESTS <= public
    seen = references()
    unused = sorted(name for name in public - PINNED_BY_TESTS if not seen[name])
    assert not unused, f"exported but used only by tests: {unused}"
