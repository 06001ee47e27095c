"""Source hygiene: every name a module imports is used in that module, and
only the CLI's degree-bound resolver reads the environment."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "singcalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


ENV_NAMES = ("environ", "environb", "getenv", "getenvb")


def _env_reads(node: ast.AST, func=None) -> list:
    """The enclosing function of every use of os.environ or os.getenv."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += _env_reads(child, child.name)
            continue
        if (isinstance(child, ast.Attribute) and child.attr in ENV_NAMES
                and isinstance(child.value, ast.Name) and child.value.id == "os") or (
                isinstance(child, ast.ImportFrom) and child.module == "os"
                and any(alias.name in ENV_NAMES for alias in child.names)):
            out.append(func)
        out += _env_reads(child, func)
    return out


def test_only_the_degree_bound_resolver_reads_the_environment():
    reads = [(path.name, func) for path in sorted(SRC.glob("*.py"))
             for func in _env_reads(ast.parse(path.read_text()))]
    assert reads == [("cli.py", "_resolve_max_deg")]
