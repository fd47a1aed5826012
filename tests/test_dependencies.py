"""numpy is the only runtime dependency: every import in src/fiolab is the
standard library, numpy or fiolab itself, except matplotlib, which only
runner._maybe_plot imports (and which degrades when it is missing).  Every
module other than __init__ also reads each name it imports at module scope,
and every entry point the benchmark's tracer wraps exists in fiolab, with
every call the benchmark's workloads make into it binding to its signature.
Every name fiolab defines is read somewhere; every module-level function and
every method or property of a module-level class is read by program code
rather than by tests alone; every defaulted parameter of those functions and
methods, and every defaulted dataclass field, is passed by some program
call (a member's reads and calls are resolved to the classes their receiver
can be, see _Types); every dataclass field is read, not only set or
copied, by program code; and every config key an experiment accepts, a
keyword-only parameter of its runner, is read by that runner.
No numpy.fft call passes out=, which numpy 1.24 lacks."""
import ast
import fnmatch
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fiolab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fiolab"}
OPTIONAL = {("runner.py", "_maybe_plot", "matplotlib")}


def _imports(tree):
    """(top-level module, enclosing function name or None) per import."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.extend((a.name.split(".")[0], func) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                out.append((child.module.split(".")[0], func))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(tree, None)
    return out


def test_runtime_imports_are_numpy_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    bad = []
    for path in files:
        for mod, func in _imports(ast.parse(path.read_text(), str(path))):
            if mod not in ALLOWED and (path.name, func, mod) not in OPTIONAL:
                bad.append(f"{path.name}: {mod} (in {func or 'module scope'})")
    assert not bad, "non-numpy runtime imports: " + ", ".join(bad)


def test_guard_sees_nested_imports():
    tree = ast.parse("def f():\n    def g():\n        import scipy.linalg\n"
                     "from hypothesis import given\n")
    assert _imports(tree) == [("scipy", "g"), ("hypothesis", None)]


def _unused_imports(tree, lines):
    """Names bound by module-scope imports that the module never reads.  An
    import whose line carries "# noqa: F401" is a deliberate re-export."""
    bound = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_no_unused_imports():
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert files
    bad = []
    for path in files:
        text = path.read_text()
        for name in _unused_imports(ast.parse(text, str(path)), text.splitlines()):
            bad.append(f"{path.name}: {name}")
    assert not bad, "unused imports: " + ", ".join(bad)


def test_unused_import_check_sees_names():
    src = ("import numpy as np\nfrom .grid import a, b as c\n"
           "from .grid import d  # noqa: F401\nx = np.pi + c\n")
    assert _unused_imports(ast.parse(src), src.splitlines()) == ["a"]


def test_traced_entry_points_exist():
    """perfbench/spans.py wraps fiolab functions by (module, attribute); a
    renamed one would fail only inside a traced benchmark run.  The file is
    parsed, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.Assign)
               and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in n.targets)]
    entries = ast.literal_eval(node.value)
    assert entries
    missing = [f"{mod}.{attr}" for mod, attr, _ in entries
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, "entry points missing from fiolab: " + ", ".join(missing)


def _fiolab_bindings(tree):
    """Module-scope names that `from fiolab... import` binds, each to the
    fiolab module, class or function it names."""
    out = {}
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "fiolab"):
            continue
        mod = importlib.import_module(node.module)
        for a in node.names:
            try:
                obj = importlib.import_module(f"{node.module}.{a.name}")
            except ModuleNotFoundError:
                obj = getattr(mod, a.name)
            out[a.asname or a.name] = obj
    return out


def _unbound_calls(tree):
    """Calls `name(...)` or `alias.attr...(...)` rooted at a fiolab import
    whose target is missing or whose signature rejects the call's positional
    count or keywords; calls that unpack * or ** arguments are skipped."""
    bound = _fiolab_bindings(tree)
    bad = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func, attrs = call.func, []
        while isinstance(func, ast.Attribute):
            attrs.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in bound:
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        where = f"line {call.lineno}: {ast.unparse(call.func)}"
        try:
            obj = bound[func.id]
            for attr in reversed(attrs):
                obj = getattr(obj, attr)
            inspect.signature(obj).bind(*call.args, **{k.arg: k for k in call.keywords})
        except (AttributeError, TypeError) as exc:
            bad.append(f"{where}: {exc}")
    return bad


def test_benchmark_calls_bind():
    """perfbench/workloads.py calls fiolab by keyword (frame_bounds(seed=),
    for_grid(k_radius=, n_radius=), ...); a renamed or deleted parameter
    would fail only inside a benchmark run.  The file is parsed, not
    imported."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    assert len(_fiolab_bindings(tree)) >= 6
    bad = _unbound_calls(tree)
    assert not bad, "benchmark calls fiolab rejects: " + "; ".join(bad)


def test_call_check_sees_misspelt_keyword():
    src = ("import numpy as np\nfrom fiolab import gabor as gb\n"
           "from fiolab.grid import GridSpec\n"
           "g = GridSpec(1, 8.0, 256)\nnp.zeros(3, nonsense=1)\n"
           "gb.frame_bounds(w, lat, seed=3)\ngb.Window.gaussian(g, width=0.5)\n")
    assert _unbound_calls(ast.parse(src)) == []
    bad = _unbound_calls(ast.parse(src.replace("seed=3", "sed=3")))
    assert len(bad) == 1 and "gb.frame_bounds" in bad[0] and "sed" in bad[0]
    bad = _unbound_calls(ast.parse(src + "gb.Window.gausian(g)\nGridSpec(1, 2, 3, 4, 5)\n"))
    assert len(bad) == 2


def _module_names(tree):
    """Names bound at module scope by def, class or assignment."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update(n.id for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _strings(nodes):
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _reads(tree):
    """Every name a file can reach a definition by: Name loads, attribute
    names, imported names, and the string constants of getattr-style tables
    (tuple, list, set and dict literals, and the name getattr or hasattr
    takes).  Any other string, such as a subcommand name passed to
    add_parser, reads nothing."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, (ast.Tuple, ast.List, ast.Set)):
            out |= _strings(n.elts)
        elif isinstance(n, ast.Dict):
            out |= _strings(n.keys + n.values)
        elif isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("getattr", "hasattr"):
            out |= _strings(n.args[1:2])
    return out


def _class_members(tree):
    """(class, name) of each non-dunder method or property defined in the
    body of a module-level class."""
    return {(node.name, item.name)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def _tree_reads(*dirs):
    reads = set()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            reads |= _reads(ast.parse(path.read_text(), str(path)))
    return reads


def test_no_unreferenced_module_names():
    """Every module-level def, class or assignment in fiolab, and every
    non-dunder method or property of a module-level class, is read
    somewhere in src/, tests/, perfbench/ or scripts/."""
    reads = _tree_reads("src", "tests", "perfbench", "scripts")
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name in sorted(_module_names(tree)):
            if name not in reads:
                bad.append(f"{path.stem}.{name}")
        for cls, name in sorted(_class_members(tree)):
            if name not in reads:
                bad.append(f"{path.stem}.{cls}.{name}")
    assert not bad, "module names nothing reads: " + ", ".join(bad)


def test_unreferenced_name_check_sees_reads():
    src = ("import numpy as np\nfrom .grid import a\nX, Y = 1, 2\nZ: int = 3\n"
           "def f():\n    return X\nclass C:\n    pass\nW = np.pi + C.attr\n"
           "T = ('mod', 'f')\nhelp('Y', getattr(C, 'gone'))\n"
           "class D:\n    def __init__(self):\n        self.v = self.prop\n"
           "    @property\n    def prop(self):\n        return 1\n"
           "    def dead(self):\n        return self.v\n")
    tree = ast.parse(src)
    assert _module_names(tree) == {"X", "Y", "Z", "f", "C", "W", "T", "D"}
    assert _class_members(tree) == {("D", "prop"), ("D", "dead")}
    assert {"X", "np", "a", "C", "attr", "f", "mod", "prop", "gone"} <= _reads(tree)
    assert not {"Y", "Z", "W", "T", "dead"} & _reads(tree)


# Module-level functions that only tests call, kept on purpose: the dense
# references that fast paths are compared against, the dense STFT and its
# inverse that the gate's criteria c01 and c02 run (the benchmark's tracer
# also wraps stft), and the four structural identity checks of criterion
# c07.  apply_fio1 is a one-line shim over OperatorHandle.apply, kept only
# because the tracer's ENTRY_POINTS wraps it by name; the benchmark refresh
# (ROADMAP item 1) deletes both.  No method or property is kept.
TEST_ONLY_FUNCTIONS = {
    "gabor.stft_direct", "gabor.gabor_analysis_direct", "gabor.frame_matrix_dense",
    "gabor.stft", "gabor.istft",
    "operators.adjoint_identity_check", "operators.transpose_identity_check",
    "operators.fourier_conjugation_check", "operators.dilation_conjugation_check",
    "operators.apply_fio1",
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _decorated(fn, name):
    return any(getattr(d, "id", None) == name for d in fn.decorator_list)


def _owned_nodes(tree):
    """(owner, class, node) over the statements of a module: a module-level
    function or a method of a module-level class owns itself, as "f" or
    "C.m", and a method also names its class C; every other statement, the
    rest of a class included, has owner and class None."""
    for node in tree.body:
        if _is_def(node):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_def(item):
                    yield f"{node.name}.{item.name}", node.name, item
                else:
                    yield None, None, item
            for extra in node.decorator_list + node.bases + node.keywords:
                yield None, None, extra
        else:
            yield None, None, node


class _Types:
    """Which classes of the program modules an expression can evaluate to,
    read off annotations, constructor calls and return annotations: enough
    to tell the class whose member an `obj.attr` read or call reaches.  A
    class is named by its bare name (fiolab's are unique).  A receiver
    whose class cannot be named this way is unknown (None)."""

    MODULE = "module"

    def __init__(self, modules):
        self.stems = set(modules)
        self.members, self.fields, self.returns = {}, {}, {}
        for tree in modules.values():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.members[node.name] = {i.name: i for i in node.body if _is_def(i)}
                    self.fields[node.name] = {
                        i.target.id: i.annotation for i in node.body
                        if isinstance(i, ast.AnnAssign) and isinstance(i.target, ast.Name)}
                elif _is_def(node):
                    self.returns[node.name] = node.returns

    def ann(self, node):
        """The classes an annotation allows: C, "C", Optional[C], or a union
        of classes and None; None when it allows anything else."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Name) and node.id in self.members:
            return {node.id}
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Optional":
            return self.ann(node.slice)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            parts = [self.ann(x) for x in (node.left, node.right)
                     if not (isinstance(x, ast.Constant) and x.value is None)]
            if all(parts):
                return set().union(*parts)
        return None

    def _each(self, recv, env, per_class):
        owners = self.of(recv, env)
        if not owners:
            return None
        out = set()
        for c in owners:
            t = per_class(c)
            if t is None:
                return None
            out |= t
        return out

    def _attr(self, c, name):
        if name in self.fields[c]:
            return self.ann(self.fields[c][name])
        fn = self.members[c].get(name)
        return self.ann(fn.returns) if fn is not None and _decorated(fn, "property") else None

    def _called(self, c, name):
        fn = self.members[c].get(name)
        return self.ann(fn.returns) if fn is not None else None

    def _is_module(self, node, env):
        return isinstance(node, ast.Name) and env.get(node.id) == self.MODULE

    def of(self, node, env):
        """The classes node evaluates to an instance of (or, for a class
        name, the class itself), or None when unknown."""
        if isinstance(node, ast.Name):
            t = env.get(node.id, {node.id} if node.id in self.members else None)
            return t if isinstance(t, set) else None
        if isinstance(node, ast.Attribute):
            if self._is_module(node.value, env):
                return {node.attr} if node.attr in self.members else None
            return self._each(node.value, env, lambda c: self._attr(c, node.attr))
        if not isinstance(node, ast.Call):
            return None
        f = node.func
        if isinstance(f, ast.Attribute) and not self._is_module(f.value, env):
            return self._each(f.value, env, lambda c: self._called(c, f.attr))
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if isinstance(f, ast.Name) and name in env:
            # a class object (cls) makes an instance; an instance is __call__ed
            return self._each(f, env, lambda c: self._called(c, "__call__")
                              if "__call__" in self.members[c] else {c})
        if name in self.members:
            return {name}
        return self.ann(self.returns.get(name))

    def module_env(self, tree):
        """Module aliases (`from . import gabor`, `from fiolab import
        experiments as xp`) and the module-level names of plain
        assignments."""
        env = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level and node.module is None) or node.module == "fiolab"):
                env.update({a.asname or a.name: self.MODULE
                            for a in node.names if a.name in self.stems})
        top = [n for n in tree.body if not (_is_def(n) or isinstance(n, ast.ClassDef))]
        return self._bind(top, env, [])

    def env(self, fn, cls, base):
        """base plus the names of fn bound to classes: annotated parameters,
        self or cls of a method of cls, and locals; a local is known only
        when every one of its assignments is a single-name `x = value` or
        `x: T = value` of known classes."""
        pos = fn.args.posonlyargs + fn.args.args
        first = pos[0] if cls and pos and not _decorated(fn, "staticmethod") else None
        mine = {cls} if cls in self.members else None
        params = []
        for node in ast.walk(fn):
            if _is_def(node) or isinstance(node, ast.Lambda):
                a = node.args
                params += [(p.arg, mine if p is first else self.ann(p.annotation))
                           for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [(p.arg, None) for p in (a.vararg, a.kwarg) if p]
        return self._bind(fn.body, dict(base), params)

    def _bind(self, body, env, params):
        sources, plain = {}, set()
        for name, t in params:
            sources.setdefault(name, []).append(t)
        stmts = [n for stmt in body for n in ast.walk(stmt)]
        for node in stmts:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                sources.setdefault(node.targets[0].id, []).append(node.value)
                plain.add(id(node.targets[0]))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                sources.setdefault(node.target.id, []).append(self.ann(node.annotation))
                plain.add(id(node.target))
        unknown = {n.id for n in stmts if isinstance(n, ast.Name)
                   and isinstance(n.ctx, ast.Store) and id(n) not in plain}
        for name, srcs in sources.items():
            # start from the parameter and annotation types, so that
            # cfg = cfg.resolve(...) resolves against cfg's annotation
            known = [x for x in srcs if not isinstance(x, ast.AST)]
            if known and all(known):
                env[name] = set().union(*known)
        for _ in range(2):  # a second pass resolves x = ...; y = x.attr chains
            for name, srcs in sources.items():
                ts = [self.of(x, env) if isinstance(x, ast.AST) else x for x in srcs]
                env[name] = set().union(*ts) if all(ts) else None
        env.update(dict.fromkeys(unknown))
        return env

    def owned(self, tree):
        """_owned_nodes of tree, each with the env its names resolve in."""
        base = self.module_env(tree)
        for owner, cls, node in _owned_nodes(tree):
            yield owner, cls, node, (self.env(node, cls, base) if owner else base)

    def member_reads(self, node, env, skip=frozenset()):
        """(class, name) for each attribute read in node, and for each
        getattr(obj, "name"), once per class its receiver can be.  When the
        receiver is unknown the key is ("call", name) for a call obj.name(...)
        and ("read", name) otherwise.  Module attributes are not member
        reads, nor are the attribute nodes whose ids are in skip."""
        called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
        out = set()
        for n in ast.walk(node):
            if id(n) in skip:
                continue
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                recv, name = n.value, n.attr
            elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr" \
                    and len(n.args) > 1 and isinstance(n.args[1], ast.Constant):
                recv, name = n.args[0], n.args[1].value
            else:
                continue
            if self._is_module(recv, env):
                continue
            owners = self.of(recv, env)
            if owners:
                out |= {(c, name) for c in owners}
            else:
                out.add(("call" if id(n) in called else "read", name))
        return out


def _test_only_functions(modules, others):
    """Module-level functions, and non-dunder methods and properties of
    module-level classes, of `modules` ({stem: tree}) that no statement of
    another function, method or module reads, nor any statement of the
    trees `others` (code outside those modules).  A function is read by
    name; a member C.m only by an attribute read `obj.m` whose receiver can
    be a C, or whose class is unknown (see _Types) unless C.m is a property
    and the read is a call.  Neither a local name m nor a read of another
    class's m counts."""
    types = _Types(modules)
    fn_readers, member_readers, defs = {}, {}, []
    trees = [(stem, tree) for stem, tree in modules.items()] + [(None, t) for t in others]
    for stem, tree in trees:
        for owner, cls, node, env in types.owned(tree):
            if stem and owner and not _is_dunder(node.name):
                defs.append((stem, owner, cls, node.name))
            for name in _reads(node):
                fn_readers.setdefault(name, set()).add((stem, owner))
            for key in types.member_reads(node, env):
                member_readers.setdefault(key, set()).add((stem, owner))
    out = []
    for stem, owner, cls, name in defs:
        if cls:
            # an unknown receiver's call obj.name(...) cannot reach a property
            prop = _decorated(types.members[cls][name], "property")
            readers = set().union(*(member_readers.get(k, set()) for k in
                                    [(cls, name), ("read", name)] + [("call", name)] * (not prop)))
        else:
            readers = fn_readers.get(name, set())
        if not readers - {(stem, owner)}:
            out.append(f"{stem}.{owner}")
    return sorted(out)


def _program_modules():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _other_trees():
    """perfbench/ and scripts/, less the benchmark's ENTRY_POINTS table: it
    names the functions the tracer wraps, and naming one does not call it."""
    trees = [ast.parse(p.read_text(), str(p)) for d in ("perfbench", "scripts")
             for p in sorted((ROOT / d).rglob("*.py"))]
    for tree in trees:
        tree.body = [n for n in tree.body if not (isinstance(n, ast.Assign) and any(
            getattr(t, "id", None) == "ENTRY_POINTS" for t in n.targets))]
    return trees


def test_no_test_only_functions():
    """Every module-level def in fiolab, and every method or property of a
    module-level class, is read by program code: src/ outside its own
    definition and outside __init__.py, perfbench/ or scripts/ (less the
    tracer's ENTRY_POINTS, see _other_trees).  One that only tests call is
    dead weight unless it is listed in TEST_ONLY_FUNCTIONS."""
    found = _test_only_functions(_program_modules(), _other_trees())
    assert TEST_ONLY_FUNCTIONS <= set(found), "listed functions now have a caller: " \
        + ", ".join(sorted(TEST_ONLY_FUNCTIONS - set(found)))
    bad = sorted(set(found) - TEST_ONLY_FUNCTIONS)
    assert not bad, "functions or methods only tests call: " + ", ".join(bad)


def test_test_only_check_sees_callers():
    a = ast.parse("def f():\n    return f()\ndef g():\n    return h()\n"
                  "def h():\n    pass\nTABLE = {'k': k}\ndef k():\n    pass\n"
                  "def s():\n    pass\ndef w():\n    pass\n"
                  "class C:\n    def __init__(self):\n        self.v = self.used\n"
                  "    @property\n    def used(self):\n        return 1\n"
                  "    def own(self):\n        return self.own()\n"
                  "    def called(self):\n        pass\n"
                  "    def width(self):\n        pass\n"
                  "    def fetched(self):\n        pass\n")
    b = ast.parse("from .a import w\ndef u():\n    return w()\n"
                  "def t(c):\n    return c.called()\n"
                  "class D:\n    def own(self):\n        pass\n"
                  "    def make(self) -> 'C':\n        return C()\n"
                  "    def width(self, width):\n        return width\n"
                  "def v(d: D):\n    x = d.make()\n"
                  "    return d.own(), getattr(x, 'fetched')\n")
    ext = ast.parse("s()\nt(None)\n")
    assert _test_only_functions({"a": a, "b": b}, [ext]) == \
        ["a.C.own", "a.C.width", "a.f", "a.g", "b.D.width", "b.u"]
    # an unknown receiver reaches every class's member of that name
    ext = ast.parse("s()\nt(None)\ndef z(obj):\n    return obj.width()\n")
    assert _test_only_functions({"a": a, "b": b}, [ext]) == ["a.C.own", "a.f", "a.g", "b.u"]


# Defaulted parameters that no program call passes, kept on purpose, as
# fnmatch patterns of "module.function(parameter)", each with its reason.
DEFAULT_EXCEPTIONS = {
    "runner.run_*(*)": "config keys, bound by keyword from a config "
                       "(test_every_runner_parameter_is_read)",
    "symbols._sym_*(*)": "registry builders: the name(args) strings of the CLI "
                         "and configs pass them",
    "symbols._phase_*(*)": "registry builders: the name(args) strings of the CLI "
                           "and configs pass them",
    "experiments.lp_threshold_experiment(grid)": "tests run the sweep on small grids "
                                                 "(TestLpThreshold)",
    "experiments.sharpness_m1_experiment(grid)": "test_m1_one_application runs it on a "
                                                 "small grid",
    "experiments.main_theorem_boundedness_suite(grid)":
        "test_boundedness_one_application_per_operator runs it on a small grid",
    "gabor.stft_direct(x_stride)": "the dense reference of stft's strided x nodes "
                                   "(test_stft_strided_matches_direct)",
    "gabor.stft(x_stride)": "the strided inversion and norm references "
                            "(TestMergedPathsByteReference::test_stft_istft, "
                            "TestStreamedModNorm); fiolab stft streams its rows "
                            "through persist.stft_to_csv",
    "experiments.m2_conjugation_consistency(n_sweep)":
        "the gate's c13 pins its deviation line at n = 4, 6, 8 "
        "(test_c13_m2_by_conjugation)",
}


def _defaulted(cls, fn):
    """(name, index) of each defaulted parameter of fn, a method of class
    cls when cls is given: index is its position among the arguments a call
    passes (self or cls is skipped, except for a staticmethod), and None for
    a keyword-only parameter."""
    a = fn.args
    pos = a.posonlyargs + a.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if cls and not static else 0
    first = len(pos) - len(a.defaults)
    return [(arg.arg, i - skip) for i, arg in enumerate(pos) if i >= first] \
        + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _dataclass_fields(node):
    """The field declarations of a @dataclass class node, in order."""
    if not any(ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list):
        return []
    return [i for i in node.body
            if isinstance(i, ast.AnnAssign) and isinstance(i.target, ast.Name)]


def _dataclass_defaults(node):
    """(name, index) of each defaulted field of a @dataclass class node:
    index is its position among the constructor's arguments."""
    return [(f.target.id, k) for k, f in enumerate(_dataclass_fields(node))
            if f.value is not None]


def _passes(call, name, index):
    """Whether call passes parameter `name` at position `index`: by keyword,
    by position, or through a * or ** argument that could reach it."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and any(
        isinstance(arg, ast.Starred) or j == index for j, arg in enumerate(call.args))


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _unpassed_defaults(modules, others):
    """"module.function(parameter)" for each defaulted parameter of a
    module-level function or a method of a module-level class in `modules`
    ({stem: tree}) that no call passes, anywhere in `modules` outside the
    function's own body or in the trees of `others`.  A function is called
    by its name (its class's name for __init__); a method C.m only by a call
    obj.m(...) whose receiver can be a C or is unknown (see _Types), so a
    call of another class's m does not count.  A defaulted field of a
    dataclass C is reported as "module.C(field)" and is passed only by a
    call of C by name.  Same-named functions can only make the check more
    lenient."""
    types = _Types(modules)
    calls = []
    for tree in [*modules.values(), *others]:
        for _, _, node, env in types.owned(tree):
            for c in ast.walk(node):
                if isinstance(c, ast.Call):
                    f = c.func
                    method = isinstance(f, ast.Attribute) and not types._is_module(f.value, env)
                    calls.append((c, types.of(f.value, env) if method else None, method))
    out = []
    for stem, tree in modules.items():
        for _, cls, fn in _owned_nodes(tree):
            if not _is_def(fn):
                continue
            own = {id(n) for n in ast.walk(fn)}
            if cls and fn.name != "__init__":
                mine = [c for c, owners, method in calls if method and c.func.attr == fn.name
                        and (owners is None or cls in owners) and id(c) not in own]
            else:
                target = cls or fn.name
                mine = [c for c, _, _ in calls if _callee(c) == target and id(c) not in own]
            qual = f"{cls}.{fn.name}" if cls else fn.name
            out += [f"{stem}.{qual}({name})" for name, index in _defaulted(cls, fn)
                    if not any(_passes(c, name, index) for c in mine)]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                mine = [c for c, _, _ in calls if _callee(c) == node.name]
                out += [f"{stem}.{node.name}({name})" for name, index in _dataclass_defaults(node)
                        if not any(_passes(c, name, index) for c in mine)]
    return out


def test_every_default_is_passed():
    """Every defaulted parameter of a fiolab function or method is passed,
    by keyword or by position, by some call in src/ outside the function's
    own body, in perfbench/ or in scripts/: a default that only tests
    override is an option no program sets.  The exceptions are the
    patterns of DEFAULT_EXCEPTIONS, each of which still matches a parameter."""
    found = _unpassed_defaults(_program_modules(), _other_trees())
    stale = [pat for pat in DEFAULT_EXCEPTIONS if not fnmatch.filter(found, pat)]
    assert not stale, "exceptions that match no unpassed parameter: " + ", ".join(stale)
    bad = [f for f in found
           if not any(fnmatch.fnmatchcase(f, pat) for pat in DEFAULT_EXCEPTIONS)]
    assert not bad, "defaulted parameters no program call passes: " + ", ".join(bad)


def test_default_check_sees_calls():
    a = ast.parse("def f(x, y=1, *, z=2):\n    return f(x, y=0, z=0)\n"
                  "def g(x, y=1, w=2):\n    pass\n"
                  "class C:\n    def __init__(self, v=0):\n        pass\n"
                  "    def m(self, u=1, t=2):\n        pass\n"
                  "    @staticmethod\n    def s(q=1):\n        pass\n"
                  "def h(k=1):\n    pass\n"
                  "class D:\n    def m(self, u=1, t=2):\n        pass\n")
    b = ast.parse("g(1, 2)\nC(v=3).m(4)\nC.s(5)\nh(*args)\n"
                  "def z(d: D):\n    d.m(0, 0)\n")
    assert _unpassed_defaults({"a": a}, [b]) == \
        ["a.f(y)", "a.f(z)", "a.g(w)", "a.C.m(t)"]
    # a receiver of unknown class reaches every class's m
    b = ast.parse("g(1, 2)\nC(v=3).m(4)\nC.s(5)\nh(*args)\n"
                  "def z(obj):\n    obj.m(0, 0)\n")
    assert _unpassed_defaults({"a": a}, [b]) == ["a.f(y)", "a.f(z)", "a.g(w)"]
    # a defaulted dataclass field is passed only by a call of its class,
    # by position or keyword; a plain class attribute is no field
    a = ast.parse("@dataclass\nclass E:\n    x: int\n    y: int = 0\n"
                  "    z: int = 1\n    w: int = field(default=2)\n"
                  "@dataclass(frozen=True)\nclass F:\n    u: int = 0\n"
                  "class G:\n    v: int = 0\n")
    b = ast.parse("E(1, 2)\nE(1, w=3)\nz = 4\n")
    assert _unpassed_defaults({"a": a}, [b]) == ["a.E(z)", "a.F(u)"]
    b = ast.parse("E(1, 2, 3)\nm.F(u=1)\n")
    assert _unpassed_defaults({"a": a}, [b]) == ["a.E(w)"]


def _copies(node):
    """ids of the attribute reads x.f inside the value of a keyword argument
    f=... in node: params={**sym.params} or ratios=base.ratios copies the
    field into a new record and reads nothing."""
    return {id(a) for c in ast.walk(node) if isinstance(c, ast.Call)
            for k in c.keywords if k.arg
            for a in ast.walk(k.value) if isinstance(a, ast.Attribute) and a.attr == k.arg}


def _write_only_fields(modules, others):
    """"module.C.field" for each field of a @dataclass class C in `modules`
    ({stem: tree}) that no code in `modules` or `others` reads: a read is an
    attribute read or getattr whose receiver can be a C or is unknown (see
    _Types.member_reads), and not a copy (_copies).  A class that serialises
    itself with asdict(self) reads every field there, so it is skipped."""
    types = _Types(modules)
    reads = set()
    for tree in [*modules.values(), *others]:
        for _, _, node, env in types.owned(tree):
            reads |= types.member_reads(node, env, skip=_copies(node))
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or any(
                    isinstance(c, ast.Call) and _callee(c) == "asdict"
                    and [ast.unparse(a) for a in c.args] == ["self"] for c in ast.walk(node)):
                continue
            out += [f"{stem}.{node.name}.{f.target.id}" for f in _dataclass_fields(node)
                    if not {(node.name, f.target.id), ("read", f.target.id),
                            ("call", f.target.id)} & reads]
    return sorted(out)


def test_no_write_only_fields():
    """Every field of a fiolab dataclass is read by program code (src/,
    perfbench/ or scripts/, less the tracer's ENTRY_POINTS): a field that is
    only set, or only copied into another record, is state no program
    uses."""
    bad = _write_only_fields(_program_modules(), _other_trees())
    assert not bad, "dataclass fields no program reads: " + ", ".join(bad)


def test_write_only_check_sees_reads():
    a = ast.parse("@dataclass\nclass R:\n    value: float\n    fit: int\n"
                  "    params: dict\n    sweep: tuple\n    tag: str\n    cb: object\n"
                  "    @property\n    def flat(self):\n        return self.sweep\n"
                  "def make(r: R) -> R:\n    return R(value=0.0, fit=r.fit,\n"
                  "             params={**r.params}, sweep=(r.value,), tag='', cb=None)\n"
                  "@dataclass\nclass M:\n    kept: list\n"
                  "    def write(self):\n        return asdict(self)\n"
                  "class Plain:\n    unread: int = 0\n")
    b = ast.parse("def use(r: R, obj):\n    return getattr(r, 'tag'), obj.cb(), obj.fit.x\n")
    # fit and params are only copied into their own fields, value is read
    # into another one, sweep by a property and tag by getattr; a receiver
    # of unknown class reads, or calls, that field of every class
    assert _write_only_fields({"a": a}, []) == ["a.R.cb", "a.R.fit", "a.R.params", "a.R.tag"]
    assert _write_only_fields({"a": a}, [b]) == ["a.R.params"]


def _unread_runner_params(tree):
    """runner(parameter) for each keyword-only parameter of a module-level
    run_* function that the function's body never reads."""
    bad = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("run_"):
            reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            bad += [f"{node.name}({a.arg})" for a in node.args.kwonlyargs
                    if a.arg not in reads]
    return bad


def test_every_runner_parameter_is_read():
    """An experiment accepts exactly the keyword-only parameters of its
    runner, so each one is read in that runner's body and is a config key
    ([grid] binds as `grid`), and every key config._SCHEMA accepts is taken
    by some runner; a key nothing reads is an option that changes nothing."""
    from fiolab.config import _SCHEMA
    from fiolab.runner import EXPERIMENTS
    tree = ast.parse((SRC / "runner.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert {fn.__name__ for fn in EXPERIMENTS.values()} <= defined
    bad = _unread_runner_params(tree)
    assert not bad, "runner parameters the runner never reads: " + ", ".join(bad)
    taken = {a.name for fn in EXPERIMENTS.values()
             for a in inspect.signature(fn).parameters.values() if a.kind is a.KEYWORD_ONLY}
    keys = {"grid", *_SCHEMA["lattice"], *_SCHEMA["experiment"]} - {"name"}
    assert taken == keys


def test_runner_parameter_check_sees_reads():
    src = ("def run_a(out, plot, jobs, seed, *, p=1.0, grid=None):\n    return p\n"
           "def run_b(out, plot, jobs, seed, *, q=1.0):\n"
           "    def inner():\n        return q\n    return inner\n"
           "def helper(*, r=1):\n    pass\n")
    assert _unread_runner_params(ast.parse(src)) == ["run_a(grid)"]


def _fft_out_calls(tree):
    """numpy.fft calls that pass out=, reached as np.fft.f, numpy.fft.f,
    fft.f or a name imported from numpy.fft."""
    from_fft = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) and n.module == "numpy.fft"
                for a in n.names}
    bad = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and any(k.arg == "out" for k in call.keywords)):
            continue
        func = call.func
        if (isinstance(func, ast.Attribute)
                and ast.unparse(func.value) in {"np.fft", "numpy.fft", "fft"}) \
                or (isinstance(func, ast.Name) and func.id in from_fft):
            bad.append(f"line {call.lineno}: {ast.unparse(func)}")
    return bad


def test_no_fft_out_argument():
    """pyproject.toml declares numpy>=1.24, and the out= argument of the
    numpy.fft functions first appears in numpy 2.0."""
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()
    bad = []
    for path in sorted(SRC.glob("*.py")):
        bad += [f"{path.name}: {b}" for b in _fft_out_calls(ast.parse(path.read_text()))]
    assert not bad, "numpy.fft calls with out= (numpy >= 2.0 only): " + ", ".join(bad)


def test_fft_out_check_sees_calls():
    src = ("import numpy as np\nfrom numpy.fft import ifft as inv\n"
           "a = np.fft.fftn(x, axes=(1,), out=x)\nb = inv(x, out=x)\n"
           "c = np.fft.fft(x)\nd = np.multiply(x, 2, out=x)\n")
    assert _fft_out_calls(ast.parse(src)) == ["line 3: np.fft.fftn", "line 4: inv"]


def _as_strided_calls(tree):
    """Calls of numpy's as_strided: any attribute call .as_strided
    (np.lib.stride_tricks.as_strided, stride_tricks.as_strided, ...) or a
    name imported as as_strided from any module."""
    names = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
             for a in n.names if a.name == "as_strided"}
    bad = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "as_strided") \
                or (isinstance(func, ast.Name) and func.id in names):
            bad.append(f"line {call.lineno}: {ast.unparse(func)}")
    return bad


def test_no_as_strided():
    """Window translates are basic slices of sliding_window_view, which
    checks its bounds; as_strided checks none, so no src/ module calls it."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        bad += [f"{path.name}: {b}" for b in _as_strided_calls(ast.parse(path.read_text()))]
    assert not bad, "as_strided calls: " + ", ".join(bad)


def test_as_strided_check_sees_calls():
    src = ("import numpy as np\nfrom numpy.lib.stride_tricks import as_strided as ast_\n"
           "from numpy.lib import stride_tricks\n"
           "a = np.lib.stride_tricks.as_strided(x, (2,), (8,))\nb = ast_(x, (2,), (8,))\n"
           "c = stride_tricks.as_strided(x)\n"
           "d = np.lib.stride_tricks.sliding_window_view(x, 2)\n")
    assert _as_strided_calls(ast.parse(src)) == [
        "line 4: np.lib.stride_tricks.as_strided", "line 5: ast_",
        "line 6: stride_tricks.as_strided"]


# The kernel sums that only OperatorHandle.apply_columns may call
OPERATOR_SUMS = {"_kernel_apply", "_weyl_sum"}


def _operator_sum_names(tree):
    """Where a module names a kernel sum of OPERATOR_SUMS: as a name, an
    attribute (operators._kernel_apply) or an imported name."""
    hits = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names = [n.id]
        elif isinstance(n, ast.Attribute):
            names = [n.attr]
        elif isinstance(n, ast.ImportFrom):
            names = [a.name for a in n.names]
        else:
            continue
        hits += [(n.lineno, name) for name in names if name in OPERATOR_SUMS]
    return [f"line {line}: {name}" for line, name in sorted(hits)]


def test_operator_sums_stay_in_operators():
    """Every consumer applies an operator through OperatorHandle, so no src/
    module but operators.py names _kernel_apply or _weyl_sum."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "operators.py":
            bad += [f"{path.name}: {b}" for b in _operator_sum_names(ast.parse(path.read_text()))]
    assert not bad, "kernel sums named outside operators.py: " + ", ".join(bad)


def test_operator_sum_check_sees_names():
    src = ("from .operators import _weyl_sum as w\nfrom . import operators\n"
           "a = operators._kernel_apply(None, s, g, v)\nb = _kernel_apply\n"
           "c = operators.kernel_path(None, s, g)\n")
    assert _operator_sum_names(ast.parse(src)) == [
        "line 1: _weyl_sum", "line 3: _kernel_apply", "line 4: _kernel_apply"]
