"""Static checks on the package source and the tests, with the standard library only."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gaussnet").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references; __future__ is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detects_unused_import():
    source = "import json\nfrom typing import Iterable, Mapping\nx: Mapping = {}\n"
    assert unused_imports(source) == ["Iterable", "json"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def cached_functions(source: str) -> list[str]:
    """The functions that functools' lru_cache or cache decorates, then the
    line of each other use of either."""
    tree = ast.parse(source)
    caches = {"lru_cache", "cache"}
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in caches}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    uses = {
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in caches
        and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    decorated = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if found := uses.intersection(ast.walk(dec)):
                    decorated.append(node.name)
                    uses -= found
    return sorted(decorated) + [f"line {n}" for n in sorted(u.lineno for u in uses)]


def test_detects_cached_functions():
    source = (
        "import functools\nfrom functools import lru_cache as lc, wraps\n"
        "@lc(maxsize=8)\ndef a(): pass\n@functools.cache\ndef b(): pass\n"
        "@wraps(a)\ndef c(): pass\nd = functools.lru_cache(None)(len)\n"
    )
    assert cached_functions(source) == ["a", "b", "line 9"]


def test_per_k_tables_use_no_private_cache():
    # every per-k table lives under core.per_k's one bound; the CLI parser is
    # the one other cached value
    found = [f"{p.stem}.{name}"
             for p in SOURCES for name in cached_functions(p.read_text())]
    assert found == ["cli.build_parser"]


def per_k_signatures(source: str) -> dict[str, str]:
    """The parameter list of each function that per_k decorates, by name."""
    return {
        node.name: ast.unparse(node.args)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(ast.unparse(d).split(".")[-1] == "per_k" for d in node.decorator_list)
    }


def test_detects_per_k_signatures():
    source = ("@per_k\ndef a(k): pass\n@core.per_k\ndef b(k, j): pass\n"
              "@per_k\ndef c(k: int, *rest): pass\ndef d(k, j): pass\n")
    assert per_k_signatures(source) == {"a": "k", "b": "k, j", "c": "k: int, *rest"}


def test_per_k_tables_take_k_alone():
    # per_k keys a table by its builder alone, so a builder takes k and nothing else
    found = {f"{p.stem}.{name}": params
             for p in SOURCES for name, params in per_k_signatures(p.read_text()).items()}
    assert found and all(params in ("k", "k: int") for params in found.values()), found


def test_per_k_tables_are_pinned():
    # region_codes is the one per-residue region table and parent_rows the
    # one stored form of the trees: a new per-k table is a reviewed decision
    found = {f"{p.stem}.{name}" for p in SOURCES for name in per_k_signatures(p.read_text())}
    assert found == {
        "core.network", "core.region_codes",
        "trees.parent_rows", "trees.root_paths", "trees._children",
        "trees.fault_singles", "trees.fault_pairs", "trees.fault_triples",
        "router._grid_rows", "router._frames",
    }


def named(source: str) -> set[str]:
    """Every name a module reads or imports, and every module it imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {node.module or "", *(a.name for a in node.names)}
    return found


def test_detects_names():
    source = "import concurrent.futures\nfrom ._kernels import sweep_rounds as s\nx = y.z\n"
    assert named(source) >= {"concurrent.futures", "sweep_rounds", "x", "y", "z"}


def test_sweeps_use_no_flat_kernel_or_thread_pool():
    # sampled and exhaustive cells read the decomposition tables in the
    # calling thread; the flat kernel stays in _kernels as the tests' oracle
    found = [f"{p.name}: {name}" for p in SOURCES for name in named(p.read_text())
             if name == "concurrent.futures"
             or name == "sweep_rounds" and p.name != "_kernels.py"]
    assert found == []


def test_no_reach_table_in_the_package():
    # B, the n x n reach table, is the tests' oracle (tests/oracles.py):
    # broadcast walks the trees' child lists instead
    assert [p.name for p in SOURCES if "reach_tables" in p.read_text()] == []


def test_no_region_parent_map_in_the_package():
    # the parent pointers rebuilt from the region table alone are the tests'
    # oracle (tests/oracles.py): verify's region-resolution row checks the
    # region rows, child ports too, against parent_rows
    assert [p.name for p in SOURCES if "region_parent_map" in p.read_text()] == []


def module_names(source: str) -> set[str]:
    """The names a module binds at its top level or reads bare (not as an
    attribute), and the names it imports."""
    tree = ast.parse(source)
    found = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            found |= {a.asname or a.name for a in node.names}
    return found


def test_detects_module_names():
    source = ("from .core import neighbors as nb\ndef f(): pass\n"
              "class C:\n    def neighbors(self): pass\nx = net.neighbors(y)\n")
    assert module_names(source) == {"nb", "f", "C", "x", "net", "y"}


def test_one_node_query_per_quantity():
    # region_codes, distances_from and Network.neighbors are the package's
    # forms; the per-node classifier, the module-level neighbours and
    # bfs_distance are the tests' oracles (tests/oracles.py)
    found = []
    for p in SOURCES:
        text = p.read_text()
        names = module_names(text) | (named(text) - {"neighbors"})  # Network.neighbors stays
        found += [f"{p.name}: {name}" for name in sorted(names)
                  if name in ("classify", "_wedge_class", "bfs_distance", "neighbors")]
    assert found == []


def raisers(source: str, text: str, within=ast.Raise) -> list[str]:
    """The functions (methods as Class.name) with a raise, or other node of
    type within, whose string constants, f-string parts included, contain
    text; within=ast.FunctionDef finds any string of the function."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                       and text in c.value
                       for r in ast.walk(child) if isinstance(r, within)
                       for c in ast.walk(r)):
                    found.append(prefix + child.name)

    visit(ast.parse(source), "")
    return found


def test_detects_raisers():
    source = ("def a(v):\n    raise ValueError(f'{v} is bad')\n"
              "class C:\n    def b(self):\n        raise KeyError('is bad')\n"
              "    def c(self):\n        return 'is bad'\n")
    assert raisers(source, "is bad") == ["a", "C.b"]
    assert raisers(source, "is bad", ast.FunctionDef) == ["a", "C.b", "C.c"]


def test_one_node_check():
    # every node argument is checked, and its error worded, in one place
    found = [f"{p.stem}.{name}"
             for p in SOURCES for name in raisers(p.read_text(), "is not canonical")]
    assert found == ["core.node_residue"]


def test_one_spanning_check():
    # a parent table that is not four spanning trees of height <= 2k is
    # refused, and its defect worded, in one place: verify's spanning row
    # prints the reason and root_paths raises it
    found = [f"{p.stem}.{name}" for p in SOURCES
             for name in raisers(p.read_text(), "parent cycle", ast.FunctionDef)]
    assert found == ["trees.unspanned"]


def comprehensions(source: str, names: set[str]) -> dict[str, list[int]]:
    """The lines of the dict and set comprehensions in each named top-level function."""
    return {
        node.name: [c.lineno for c in ast.walk(node) if isinstance(c, (ast.DictComp, ast.SetComp))]
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }


def test_detects_comprehensions():
    source = ("def a():\n    return {v: 1 for v in x}\ndef b():\n    return [v for v in x]\n"
              "def c():\n    return {v for v in x}\n")
    assert comprehensions(source, {"a", "b", "c"}) == {"a": [2], "b": [], "c": [6]}


def test_local_operations_build_no_node_dict():
    # broadcast and run answer through trees.ResidueView over a residue list:
    # a dict or set comprehension in either is a per-call table of n nodes
    found = {}
    for name, fn in (("router.py", "broadcast"), ("simulator.py", "run")):
        found |= comprehensions((ROOT / "src" / "gaussnet" / name).read_text(), {fn})
    assert found == {"broadcast": [], "run": []}
