"""numpy is the only runtime dependency: every import in src/fiolab is the
standard library, numpy or fiolab itself, except matplotlib, which only
runner._maybe_plot imports (and which degrades when it is missing).  Every
module other than __init__ also reads each name it imports at module scope,
and every entry point the benchmark's tracer wraps exists in fiolab, with
every call the benchmark's workloads make into it binding to its signature.
Every name fiolab defines is read somewhere; every module-level function and
every method or property of a module-level class is read by program code
rather than by tests alone; every defaulted parameter of those functions and
methods is passed by some program call; and every config key an experiment
accepts, a keyword-only parameter of its runner, is read by that runner.
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


def _reads(tree):
    """Every name a file can reach a definition by: Name loads, attribute
    names, imported names and string constants (getattr-style tables)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
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
           "T = ('mod', 'f')\n"
           "class D:\n    def __init__(self):\n        self.v = self.prop\n"
           "    @property\n    def prop(self):\n        return 1\n"
           "    def dead(self):\n        return self.v\n")
    tree = ast.parse(src)
    assert _module_names(tree) == {"X", "Y", "Z", "f", "C", "W", "T", "D"}
    assert _class_members(tree) == {("D", "prop"), ("D", "dead")}
    assert {"X", "np", "a", "C", "attr", "f", "mod", "prop"} <= _reads(tree)
    assert not {"Y", "Z", "W", "T", "dead"} & _reads(tree)


# Module-level functions that only tests call, kept on purpose: the dense
# references that fast paths are compared against, the STFT inverse that
# the gate's inversion criterion (c01) runs, and the four structural
# identity checks of criterion c07.  No method or property is kept.
TEST_ONLY_FUNCTIONS = {
    "gabor.stft_direct", "gabor.gabor_analysis_direct", "gabor.frame_matrix_dense",
    "gabor.istft",
    "operators.adjoint_identity_check", "operators.transpose_identity_check",
    "operators.fourier_conjugation_check", "operators.dilation_conjugation_check",
}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _owned_nodes(tree):
    """(owner, node) over the statements of a module: a module-level
    function or a method of a module-level class owns itself, as "f" or
    "C.m"; every other statement, the rest of a class included, has owner
    None."""
    for node in tree.body:
        if _is_def(node):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}" if _is_def(item) else None), item
            for extra in node.decorator_list + node.bases + node.keywords:
                yield None, extra
        else:
            yield None, node


def _test_only_functions(modules, program_reads):
    """Module-level functions, and non-dunder methods and properties of
    module-level classes, of `modules` ({stem: tree}) that no statement of
    another function, method or module reads, and that are not in
    `program_reads` (names read by code outside those modules)."""
    readers, defs = {}, []
    for stem, tree in modules.items():
        for owner, node in _owned_nodes(tree):
            if owner and not (node.name.startswith("__") and node.name.endswith("__")):
                defs.append((stem, owner, node.name))
            for name in _reads(node):
                readers.setdefault(name, set()).add((stem, owner))
    return sorted(f"{stem}.{owner}" for stem, owner, name in defs
                  if name not in program_reads
                  and not readers.get(name, set()) - {(stem, owner)})


def _program_modules():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def test_no_test_only_functions():
    """Every module-level def in fiolab, and every method or property of a
    module-level class, is read by program code: src/ outside its own
    definition and outside __init__.py, perfbench/ or scripts/.  One that
    only tests call is dead weight unless it is listed in
    TEST_ONLY_FUNCTIONS."""
    found = _test_only_functions(_program_modules(), _tree_reads("perfbench", "scripts"))
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
                  "    def called(self):\n        pass\n")
    b = ast.parse("from .a import w\ndef u():\n    return w()\n"
                  "def t(c):\n    return c.called()\n")
    assert _test_only_functions({"a": a, "b": b}, {"s", "t"}) == \
        ["a.C.own", "a.f", "a.g", "b.u"]


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
    "experiments.m2_conjugation_consistency(n_sweep)":
        "the gate's c13 pins its deviation line at n = 4, 6, 8 "
        "(test_c13_m2_by_conjugation)",
    "operators.op_norm_estimate(tol)": "TestOpNorm::test_power_iteration_matches_reference "
                                       "pins the power loop's stop",
    "operators.op_norm_estimate(maxiter)": "TestOpNorm::test_power_iteration_matches_"
                                           "reference pins the power loop's step cap",
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
    ({stem: tree}) that no call passes: calls by the function's name (its
    class's name for __init__) anywhere in `modules` outside the function's
    own body, or in the trees of `others`.  Calls are matched by name, so a
    same-named function elsewhere can only make the check more lenient."""
    calls = [n for tree in [*modules.values(), *others] for n in ast.walk(tree)
             if isinstance(n, ast.Call)]
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if _is_def(node):
                defs = [(None, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(node.name, item) for item in node.body if _is_def(item)]
            else:
                continue
            for cls, fn in defs:
                own = {id(n) for n in ast.walk(fn)}
                target = cls if fn.name == "__init__" else fn.name
                mine = [c for c in calls if _callee(c) == target and id(c) not in own]
                qual = f"{cls}.{fn.name}" if cls else fn.name
                out += [f"{stem}.{qual}({name})" for name, index in _defaulted(cls, fn)
                        if not any(_passes(c, name, index) for c in mine)]
    return out


def test_every_default_is_passed():
    """Every defaulted parameter of a fiolab function or method is passed,
    by keyword or by position, by some call in src/ outside the function's
    own body, in perfbench/ or in scripts/: a default that only tests
    override is an option no program sets.  The exceptions are the patterns
    of DEFAULT_EXCEPTIONS, and each of them still matches a parameter."""
    modules = _program_modules()
    others = [ast.parse(p.read_text(), str(p)) for d in ("perfbench", "scripts")
              for p in sorted((ROOT / d).rglob("*.py"))]
    found = _unpassed_defaults(modules, others)
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
                  "def h(k=1):\n    pass\n")
    b = ast.parse("g(1, 2)\nC(v=3).m(4)\nC.s(5)\nh(*args)\n")
    assert _unpassed_defaults({"a": a}, [b]) == \
        ["a.f(y)", "a.f(z)", "a.g(w)", "a.C.m(t)"]


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
