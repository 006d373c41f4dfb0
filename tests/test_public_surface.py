"""Every public function and method of ``treespec`` has a caller: some ``src``
module other than the package ``__init__`` names it, or the benchmark does
(its ``_TRACED`` strings count).  The rest are oracles that only tests need,
pinned below with the test that needs each, so an API nobody calls fails here
instead of lingering.  A name only a pinned oracle refers to has no caller
either, since the bodies of the pinned oracles do not count, and a method is
called only where it is read as an attribute.  Likewise every stored field of
a class has a reader in ``src`` or the benchmark, or is pinned with the reason
it stays.

Every default value in ``src`` outside the config schema is pinned too, with
the reason it stays, so a library default cannot restate or contradict the
schema unnoticed.  So is every parameter that its function never reads."""

import ast
import importlib
from pathlib import Path

import pytest

import treespec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "treespec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# qualified name -> the test whose claim needs it
TEST_ORACLES = {
    "operator_1d.tail_bound_check": "test_acceptance.py::test_criterion_7_property_suites",
    "tree_model.Tree.tail_radius": "test_acceptance.py::test_criterion_7_property_suites",
}

# qualified stored field -> why it stays although no code in `src` or the
# benchmark reads it
UNREAD_FIELDS = {
    "fem_2d.Component2D.j":
        "names the generation whose k**j copies the component holds; "
        "test_fem_2d.py::test_blocks_equal_the_per_edge_layout matches components to edges by it",
    "tree_model.EdgeId.index":
        "half of the address: the fields make the equality and hash of the frozen EdgeId, "
        "so the vertex keys of Matched1D.p_parent_dof and p_child_dofs compare by them",
    "tree_model.EdgeId.j":
        "half of the address: the fields make the equality and hash of the frozen EdgeId, "
        "so the vertex keys of Matched1D.p_parent_dof and p_child_dofs compare by them",
}

# qualified parameter -> why it stays although its function never reads it
UNREAD_PARAMETERS = {
    "fem_2d.p_eps_project.tmesh":
        "the benchmark passes it; it goes with the next benchmark change (ROADMAP item 1)",
    "fem_2d.q_eps_lift.tmesh":
        "the benchmark passes it; it goes with the next benchmark change (ROADMAP item 1)",
}

# The config schema: its field defaults are the defaults of the config keys
# (with cli._CLI_ONLY, a dict and not a signature).
SCHEMA_CLASSES = {"TreeSpec", "ExperimentConfig"}

# qualified parameter or dataclass field -> why it keeps a default
ALLOWED_DEFAULTS = {
    "cli.main.argv": "`argv=None`: read sys.argv, as the console script does",
    "config.ExperimentConfig.geometry.h":
        "`h=None`: the pitch geometry.h; both values are used in `src`",
    "eigensolver.Spectrum.residuals":
        "`residuals=None`: merged and clustered spectra carry none",
    "eigensolver.Spectrum.vectors": "`vectors=None`: merged and clustered spectra carry none",
    "eigensolver.smallest_eigenpairs.with_vectors": "`with_vectors`: both values are used in `src`",
    "mesh2d.stiffness_and_mass.potential":
        "`potential=None`: no potential; both values are used in `src`",
    "operator_1d.VertexZones.child_arm":
        "`child_arm=1.0`: the bare skeleton; both values are used in `src`",
    "operator_1d.VertexZones.parent_arm":
        "`parent_arm=1.0`: the bare skeleton; both values are used in `src`",
}


def namedtuple_fields(node: ast.ClassDef) -> tuple:
    """(fields, fields with a default) of a class whose base is
    ``namedtuple("Name", "a b c", defaults=(...))``; the field string is
    split as namedtuple splits it, and the defaults go to the last fields."""
    for base in node.bases:
        if isinstance(base, ast.Call) and ast.unparse(base.func).endswith("namedtuple"):
            names = base.args[1].value.replace(",", " ").split()
            defaults = next((len(k.value.elts) for k in base.keywords
                             if k.arg == "defaults"), 0)
            return names, names[len(names) - defaults:]
    return [], []


def defaults_in(source: str, module: str) -> set:
    """Qualified names of every parameter with a default, nested functions
    included, and of every dataclass or named-tuple field with a default
    outside SCHEMA_CLASSES; ``field(...)`` without ``default`` or
    ``default_factory`` is no default."""
    found = set()

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.FunctionDef):
                args = sub.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.update(f"{prefix}{sub.name}.{a.arg}" for a in with_default)
                visit(sub, f"{prefix}{sub.name}.")
            elif isinstance(sub, ast.ClassDef):
                dataclass = any("dataclass" in ast.unparse(d) for d in sub.decorator_list)
                if dataclass and sub.name not in SCHEMA_CLASSES:
                    found.update(f"{prefix}{sub.name}.{st.target.id}" for st in sub.body
                                 if isinstance(st, ast.AnnAssign) and has_default(st.value))
                if sub.name not in SCHEMA_CLASSES:
                    found.update(f"{prefix}{sub.name}.{name}"
                                 for name in namedtuple_fields(sub)[1])
                visit(sub, f"{prefix}{sub.name}.")
            else:
                visit(sub, prefix)

    visit(ast.parse(source), f"{module}.")
    return found


def has_default(value) -> bool:
    if value is None:
        return False
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def public_defs(source: str, module: str) -> dict:
    """Qualified name -> bare name of every public module-level function and
    public method of a public class."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs[f"{module}.{node.name}"] = node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    defs[f"{module}.{node.name}.{sub.name}"] = sub.name
    return defs


def referenced_names(source: str, strings: bool = False, bare: bool = True) -> set:
    """Names a source reads or imports; with ``strings``, also the dotted
    parts of its string constants; without ``bare``, only the names it reads
    as attributes (how a method is reached) and the string parts."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and bare:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and bare:
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def without_bodies(source: str, module: str, oracles) -> str:
    """``source`` with the module-level functions and methods whose qualified
    names are in ``oracles`` left out."""
    tree = ast.parse(source)
    for scope in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
        prefix = f"{module}." if scope is tree else f"{module}.{scope.name}."
        scope.body = [n for n in scope.body if not (
            isinstance(n, ast.FunctionDef) and prefix + n.name in oracles)] or [ast.Pass()]
    return ast.unparse(tree)


def uncalled(sources: dict, bench_sources: list, oracles=frozenset()) -> set:
    """Qualified public names that no source of ``sources`` (module -> text)
    outside the bodies of the ``oracles`` and no benchmark source refers to;
    a method counts only where it is read as an attribute."""
    texts = [without_bodies(s, m, oracles) for m, s in sources.items()]

    def names(bare):
        return set().union(*(referenced_names(t, bare=bare) for t in texts),
                           *(referenced_names(s, True, bare) for s in bench_sources))

    functions, methods = names(True), names(False)
    return {qual for module, source in sources.items()
            for qual, name in public_defs(source, module).items()
            if name not in (methods if qual.count(".") == 2 else functions)}


def test_checker_flags_an_uncalled_function():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    pass\n\n"
             "class C:\n    def m(self):\n        return used()\n"
             "    def traced(self):\n        pass\n    def _private(self):\n        pass\n",
        "b": "from .a import C\n\ndef caller(c: C):\n    return c.m()\n",
    }
    bench = ['TRACED = (("treespec.a", "C.traced"),)\n']
    assert uncalled(sources, bench) == {"a.dead", "b.caller"}
    # a name that only an oracle refers to has no caller, and a local
    # variable of the same name does not call a method
    sources["c"] = ("def oracle(mesh):\n    return mesh.area() + helper()\n\n"
                    "def helper():\n    area = 1.0\n    return area\n\n"
                    "class Mesh:\n    def area(self):\n        return helper()\n")
    assert uncalled(sources, bench, {"c.oracle"}) == {"a.dead", "b.caller", "c.oracle",
                                                      "c.Mesh.area"}


def test_every_public_function_has_a_caller_or_a_pinned_oracle():
    sources = {p.stem: p.read_text() for p in MODULES}
    bench = [p.read_text() for p in BENCH]
    assert uncalled(sources, bench, set(TEST_ORACLES)) == set(TEST_ORACLES)


@pytest.mark.parametrize("qualified", sorted(TEST_ORACLES))
def test_pinned_oracle_is_used_by_its_test(qualified):
    filename, _, test = TEST_ORACLES[qualified].partition("::")
    source = (ROOT / "tests" / filename).read_text()
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == test)
    assert qualified.rpartition(".")[2] in referenced_names(ast.unparse(body))


def stored_fields(source: str, module: str) -> dict:
    """Qualified name -> bare name of every dataclass field, every
    named-tuple field and every ``self.x`` assigned in ``__init__``, on
    classes not named ``*Report`` or ``*Row`` (the experiment results, whose
    fields are read off by name)."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or node.name.endswith(("Report", "Row")):
            continue
        prefix = f"{module}.{node.name}."
        found.update({prefix + name: name for name in namedtuple_fields(node)[0]})
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            found.update({prefix + st.target.id: st.target.id for st in node.body
                          if isinstance(st, ast.AnnAssign)})
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                found.update({prefix + st.attr: st.attr for st in ast.walk(sub)
                              if isinstance(st, ast.Attribute)
                              and isinstance(st.ctx, ast.Store)
                              and ast.unparse(st.value) == "self"})
    return found


def unread(sources: dict, bench_sources: list) -> set:
    """Qualified stored fields whose name no source of ``sources`` (module ->
    text) and no benchmark source reads as an attribute."""
    read = {node.attr for text in [*sources.values(), *bench_sources]
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {qual for module, source in sources.items()
            for qual, name in stored_fields(source, module).items() if name not in read}


def test_checker_flags_an_unread_field():
    sources = {
        "a": "from dataclasses import dataclass\n\n"
             "@dataclass\nclass D:\n    kept: int\n    dead: int\n\n"
             "class T:\n    def __init__(self, d):\n        self.d = d\n"
             "        self.spare = d.kept\n\n"
             "@dataclass\nclass FitReport:\n    unread: int\n\n"
             "class N(namedtuple('N', 'used, idle')):\n    __slots__ = ()\n",
        "b": "def f(t, n):\n    t.d = None\n    return t.d, n.used\n",
    }
    assert unread(sources, []) == {"a.D.dead", "a.T.spare", "a.N.idle"}
    assert unread(sources, ["def g(d):\n    return d.dead, d.idle\n"]) == {"a.T.spare"}


def test_every_stored_field_is_read_or_pinned():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unread(sources, [p.read_text() for p in BENCH]) == set(UNREAD_FIELDS)


def test_default_scan_sees_signatures_nested_functions_and_fields():
    source = ("from dataclasses import dataclass, field\n\n"
              "def f(a, b=1, *, c=2, d):\n"
              "    for i in ():\n"
              "        def g(x, i=i):\n"
              "            pass\n\n"
              "@dataclass\nclass D:\n    x: int\n    y: int = 0\n"
              "    z: list = field(repr=False)\n    w: list = field(default_factory=list)\n"
              "    def m(self, k=3):\n        pass\n\n"
              "@dataclass\nclass TreeSpec:\n    k: int = 2\n\n"
              "class N(namedtuple('N', 'p q r', defaults=(0, 1))):\n    pass\n\n"
              "class ExperimentConfig(namedtuple('E', 's', defaults=(0,))):\n    pass\n")
    assert defaults_in(source, "a") == {"a.f.b", "a.f.c", "a.f.g.i", "a.D.y", "a.D.w",
                                        "a.D.m.k", "a.N.q", "a.N.r"}


def test_every_default_outside_the_config_schema_is_pinned():
    found = set().union(*(defaults_in(p.read_text(), p.stem) for p in MODULES))
    assert found == set(ALLOWED_DEFAULTS)


def parameters(fn) -> list:
    """Every parameter name of a function or lambda node, * and ** included."""
    a = fn.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            if p is not None]


def names_read(nodes) -> set:
    """Names the nodes load; a nested function or lambda contributes the
    names its body loads other than its own parameters, and its defaults."""
    found = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
            found |= names_read(body) - set(parameters(node))
            found |= names_read([*node.args.defaults, *filter(None, node.args.kw_defaults)])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        else:
            found |= names_read(ast.iter_child_nodes(node))
    return found


def unread_parameters(source: str, module: str) -> set:
    """Qualified names of the parameters, of every function and method with
    nested ones included, that the function's body never reads."""
    found = set()

    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.FunctionDef):
                read = names_read(sub.body)
                found.update(f"{prefix}{sub.name}.{p}" for p in parameters(sub)
                             if p not in read)
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                visit(sub, f"{prefix}{sub.name}.")
            else:
                visit(sub, prefix)

    visit(ast.parse(source), f"{module}.")
    return found


def test_checker_flags_an_unread_parameter():
    # a nested function's or lambda's own parameter shadows the outer one,
    # and a default is read in the enclosing function
    source = ("def f(a, b, *args, c, **kw):\n    return a + c + kw['x']\n\n"
              "def g(x, y):\n    def h(x):\n        return x\n"
              "    return h(1) + (lambda y: y)(2)\n\n"
              "def outer(z, w=0):\n    def inner(q=w):\n        return z + q\n"
              "    return inner\n\n"
              "class C:\n    def m(self, v):\n        return 1\n")
    assert unread_parameters(source, "a") == {"a.f.b", "a.f.args", "a.g.x", "a.g.y",
                                              "a.C.m.self", "a.C.m.v"}


def test_every_parameter_is_read_or_pinned():
    found = set().union(*(unread_parameters(p.read_text(), p.stem)
                          for p in SRC.glob("*.py")))
    assert found == set(UNREAD_PARAMETERS)


def top_level_names(source: str) -> set:
    """Names a module binds at top level by ``def``, ``class`` or assignment;
    imported names are not among them."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_exports_exactly_what_it_imports():
    # the lazy table maps each exported name to the module that defines it,
    # and the package returns that module's own object
    assert sorted(treespec.__all__) == sorted(["__version__", *treespec._EXPORTS])
    for name, module in treespec._EXPORTS.items():
        assert name in top_level_names((SRC / f"{module}.py").read_text()), name
        defining = importlib.import_module(f"treespec.{module}")
        assert getattr(treespec, name) is getattr(defining, name), name
    assert not hasattr(treespec, "ExperimentError")
    assert set(treespec.__all__) <= set(dir(treespec))
