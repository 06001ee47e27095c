"""Source hygiene: every name a module imports is used in that module, only
the CLI's degree-bound resolver reads the environment, the CLI defines no
cost bound of its own, only gf2 knows how a monomial is laid out, no
homogeneous_part call sits in a loop or comprehension (GF2Poly.graded()
splits a class by degree in one pass), the GF(2) kernel modules keep no
cache, no float reaches the exact rank decisions, and the family Jacobian,
whose entries are built from integers, does no true division."""

import ast
import re
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


# A cost bound defined in the CLI guards only the CLI's route to the work;
# each bound lives in the library function whose work it bounds.
BOUND_NAME = re.compile(r"(^|_)MAX(_|$)")


def _module_bounds(tree: ast.Module) -> list:
    """Module-level names that look like bounds (FOO_MAX_BAR, MAX_FOO)."""
    out = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        out += [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and BOUND_NAME.search(n.id)]
    return out


def test_cli_defines_no_cost_bound():
    assert _module_bounds(ast.parse((SRC / "cli.py").read_text())) == []


def test_bound_check_sees_bounds():
    source = ("GTP_MAX_R = 10\nMAX_DEPTH: int = 200\nLIMIT = 3\nMAXIMAL = 1\n"
              "A, SCAN_MAX = 1, 2\ndef f():\n    LOCAL_MAX_N = 1\n")
    assert _module_bounds(ast.parse(source)) == ["GTP_MAX_R", "MAX_DEPTH", "SCAN_MAX"]


# Only gf2 knows how a monomial is laid out: other modules edit monomials
# with gf2's split, split_above and mono_mul, which keep them canonical, and
# mono(), which sorts, reads only input from outside the program.
GEN_TAGS = ("w", "t")


def _mono_calls(node: ast.AST, func=None) -> list:
    """The enclosing function of every mono(...) call."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += _mono_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and getattr(
                child.func, "id", getattr(child.func, "attr", "")) == "mono":
            out.append(func)
        out += _mono_calls(child, func)
    return out


def _is_tag(node: ast.AST) -> bool:
    """A tag "w" or "t", or a tuple, list or set literal holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_is_tag, node.elts))
    return isinstance(node, ast.Constant) and node.value in GEN_TAGS


def _tag_compares(tree: ast.Module) -> list:
    """Lines of the comparisons of a field of a generator tuple (a subscript
    such as g[0]) with a generator tag."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(map(_is_tag, [node.left, *node.comparators]))
                  and any(isinstance(x, ast.Subscript) for x in [node.left, *node.comparators]))


def test_only_poly_from_json_calls_mono():
    calls = [(path.name, func) for path in sorted(SRC.glob("*.py"))
             for func in _mono_calls(ast.parse(path.read_text()))]
    assert calls == [("gf2.py", "poly_from_json")]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "gf2.py"],
                         ids=lambda p: p.name)
def test_only_gf2_compares_generator_tags(path):
    assert _tag_compares(ast.parse(path.read_text())) == []


def test_layout_checks_see_planted_cases():
    # a tag compared with anything but a tuple field (fmt == "t") is no layout
    source = ("from . import gf2\nm = mono(p)\ndef f(g):\n    if g[0] == 'w':\n"
              "        return gf2.mono(g)\n    return g[1] != \"t\" or g[0] in ('t',)\n"
              "def poly_from_json(x):\n    return mono_mul(mono(x), ())\nopen(p, 'w')\n"
              "ok = fmt == \"t\" or mode in ('w', 'a') or g[0] == 'x'\n")
    tree = ast.parse(source)
    assert _mono_calls(tree) == [None, "f", "poly_from_json"]
    assert _tag_compares(tree) == [4, 6, 6]


# Only gf2 groups terms by degree: GF2Poly.graded() splits a class into its
# homogeneous parts in one pass, so homogeneous_part, a scan of every term,
# picks a single degree and is never called once per degree.
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _rescans(tree: ast.Module) -> list:
    """Lines of the homogeneous_part(...) calls inside a loop or a comprehension."""
    return sorted({node.lineno for loop in ast.walk(tree) if isinstance(loop, LOOPS)
                   for node in ast.walk(loop) if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", getattr(node.func, "id", ""))
                   == "homogeneous_part"})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_per_degree_rescans(path):
    assert _rescans(ast.parse(path.read_text())) == []


def test_rescan_check_sees_planted_cases():
    source = ("e = p.homogeneous_part(0)\nfor d in ds:\n    q = p.homogeneous_part(d)\n"
              "xs = [p.homogeneous_part(d) for d in ds]\nwhile x:\n"
              "    x = f(homogeneous_part(x))\nok = all(f(q) for q in p.graded().values())\n"
              "for d in ds:\n    if d:\n        ys = {p.homogeneous_part(d): 1}\n")
    assert _rescans(ast.parse(source)) == [3, 4, 6, 10]


# A cache in the kernel could hide an injected fault behind an earlier
# result, and one keyed by generator grows with every w_i ever drawn.
KERNEL_MODULES = ("gf2.py", "thom.py", "gysin.py", "bundles.py")
CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)
CONTAINER_CALLS = ("dict", "set", "list", "defaultdict", "OrderedDict")
CACHE_DECORATORS = ("cache", "lru_cache", "cached_property")


def _caches(tree: ast.Module) -> list:
    """Module-level dict/set/list values and functools cache decorators."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        value = node.value
        if isinstance(value, CONTAINERS) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", "") in CONTAINER_CALLS):
            out.append((node.lineno, "module-level container"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name in CACHE_DECORATORS:
                    out.append((dec.lineno, f"@{name} on {node.name}"))
    return out


@pytest.mark.parametrize("name", KERNEL_MODULES)
def test_kernel_modules_keep_no_cache(name):
    assert _caches(ast.parse((SRC / name).read_text())) == []


def test_cache_check_sees_caches():
    source = ("import functools\nfrom functools import lru_cache\nKEYS = {}\nSEEN: set = set()\n"
              "ORDER = [1]\n@functools.cache\ndef f(x):\n    return x\n"
              "@lru_cache(maxsize=None)\ndef g(x):\n    return x\nLIMIT = 10\n")
    found = _caches(ast.parse(source))
    assert [line for line, _ in found] == [3, 4, 5, 6, 9]


# Corank and transversality verdicts are exact rank decisions over Q; a float
# anywhere on that path could round a rank away. (jets.jacobian_fd, the
# finite-difference sanity oracle, is not on the path and keeps its floats.)
RANK_MODULES = ("linalg.py", "germs.py")


def _floats(tree: ast.Module) -> list:
    """float(...) calls and float literals."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "float":
            out.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
    return out


@pytest.mark.parametrize("name", RANK_MODULES)
def test_rank_modules_use_no_float(name):
    assert _floats(ast.parse((SRC / name).read_text())) == []


def test_float_check_sees_floats():
    source = "a = float(x)\nb = 1 / 2\nc = 0.5\nd = 1e-9\ne = 2j\nf = int('3')\n"
    assert [line for line, _ in _floats(ast.parse(source))] == [1, 3, 4, 5]


# The family Jacobian builds every entry as Fraction(num, den) from integer
# numerators and denominators; an int / int there would give a float, which
# the float check does not see.
def _true_divisions(tree: ast.Module, func: str) -> list:
    """Lines of the / and /= inside the function func; None if there is none."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == func:
            return sorted(n.lineno for n in ast.walk(node)
                          if isinstance(n, (ast.BinOp, ast.AugAssign))
                          and isinstance(n.op, ast.Div))
    return None


def test_family_jacobian_does_no_true_division():
    tree = ast.parse((SRC / "germs.py").read_text())
    assert _true_divisions(tree, "jacobian_tilde_f") == []


def test_division_check_sees_planted_cases():
    source = ("q = a / b\ndef jacobian_tilde_f(a, b):\n    c = a // b\n    d = a / b\n"
              "    def inner(x):\n        return x / 2\n    c /= 2\n"
              "    return Fraction(a, b)\ndef other(a):\n    return a / 2\n")
    tree = ast.parse(source)
    assert _true_divisions(tree, "jacobian_tilde_f") == [4, 6, 7]
    assert _true_divisions(tree, "missing") is None
