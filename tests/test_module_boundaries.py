"""Import rules between the package modules, checked on their source.

No module reaches into another module's private (single-underscore) names,
whether by `from .x import _y` or by `x._y` on an imported module, and only
`arith` imports sympy.  Block evaluation has one thread pool: only `multfun`
imports concurrent.futures or names the MULTSUM_THREADS variable.  Only
`multfun` knows what a base rule is at a prime: no other module calls
isinstance on a base rule class.  Every consumer reads iter_blocks' default
layout: no module but `multfun` calls eval_range, and no call of
iter_blocks passes a block length.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multsum"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
BASE_RULES = {"One", "Liouville", "RandomRademacher", "CoprimeIndicator", "CharacterTwist"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an ImportFrom reads names from, or "" for the
    package itself; None for imports from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "multsum":
        return node.module.partition(".")[2]
    return None


def violations(source: str) -> list[str]:
    """Private cross-module names and sympy imports in one module's source."""
    tree = ast.parse(source)
    module_aliases: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sympy":
                    found.append(f"imports {alias.name}")
                if alias.name.startswith("multsum.") and alias.asname:
                    module_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "sympy":
                found.append(f"imports from {node.module}")
            source_module = _package_module(node)
            if source_module is None:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {source_module or 'multsum'} imports {alias.name}")
                elif source_module == "" and alias.name in MODULES:
                    module_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and _private(node.attr)
        ):
            found.append(f"reads {node.value.id}.{node.attr}")
    return found


def pool_uses(source: str) -> list[str]:
    """concurrent.futures imports and MULTSUM_THREADS reads in a source: an
    import of the package, or the variable's name as a string constant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"imports {a.name}" for a in node.names
                      if a.name.startswith("concurrent")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent"):
            found.append(f"imports from {node.module}")
        elif isinstance(node, ast.Constant) and node.value == "MULTSUM_THREADS":
            found.append("reads MULTSUM_THREADS")
    return found


def base_rule_checks(source: str) -> list[str]:
    """isinstance calls in a source whose classes name a base rule, bare or
    as a module attribute, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        kinds = node.args[1]
        for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
            name = getattr(kind, "id", None) or getattr(kind, "attr", None)
            if name in BASE_RULES:
                found.append(f"isinstance on {name}")
    return found


def layout_calls(source: str) -> list[str]:
    """eval_range calls, and iter_blocks calls that pass a block length (a
    third positional argument or block=), bare or as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "eval_range":
            found.append("calls eval_range")
        elif name == "iter_blocks" and (
                len(node.args) > 2 or any(kw.arg == "block" for kw in node.keywords)):
            found.append("passes a block length to iter_blocks")
    return found


def test_rule_checker_sees_each_form():
    bad = (
        "from .multfun import _eval_block\n"
        "from multsum.arith import _icbrt\n"
        "from . import arith\n"
        "import multsum.lab as lab\n"
        "import sympy\n"
        "from sympy.ntheory import factorint\n"
        "x = arith._small_primes, lab._window_pair\n"
    )
    assert len(violations(bad)) == 6
    ok = "from . import __version__, arith\nfrom .arith import factor\nx = arith.factor\n"
    assert violations(ok) == []
    pools = (
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import os\n"
        "n = os.environ.get('MULTSUM_THREADS')\n"
    )
    assert len(pool_uses(pools)) == 3
    assert pool_uses('"""MULTSUM_THREADS caps the pool."""\nimport os\n') == []
    checks = (
        "isinstance(b, One)\n"
        "isinstance(b, (int, multfun.Liouville, CoprimeIndicator))\n"
        "if isinstance(spec.base, CharacterTwist): pass\n"
    )
    assert len(base_rule_checks(checks)) == 4
    assert base_rule_checks("isinstance(b, int)\nb = CharacterTwist(chi)\n") == []
    layouts = (
        "v = eval_range(f, 10)\n"
        "v = multfun.eval_range(f, 10)\n"
        "b = iter_blocks(f, 10, 4)\n"
        "b = multfun.iter_blocks(f, 10, block=4)\n"
    )
    assert len(layout_calls(layouts)) == 4
    assert layout_calls("b = iter_blocks(f, 10, start=3, squarefree=True)\nr = eval_range\n") == []


def test_no_private_cross_module_imports_and_sympy_only_in_arith():
    assert {"arith", "lab", "cli"} <= set(MODULES)
    problems = {}
    for name, path in MODULES.items():
        found = violations(path.read_text())
        if name == "arith":
            found = [v for v in found if "sympy" not in v]
        if found:
            problems[name] = found
    assert problems == {}


def test_only_multfun_checks_base_rules():
    checks = {name: base_rule_checks(path.read_text()) for name, path in MODULES.items()}
    assert checks.pop("multfun")
    assert {name: found for name, found in checks.items() if found} == {}


def test_only_multfun_runs_a_pool():
    uses = {name: pool_uses(path.read_text()) for name, path in MODULES.items()}
    assert uses.pop("multfun")
    assert {name: found for name, found in uses.items() if found} == {}


def test_one_block_layout_for_every_consumer():
    calls = {name: layout_calls(path.read_text()) for name, path in MODULES.items()}
    calls["multfun"] = [v for v in calls["multfun"] if v != "calls eval_range"]
    assert {name: found for name, found in calls.items() if found} == {}
