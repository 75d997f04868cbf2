"""Release-hygiene tests: public API surface, reachability, docs, version."""

import ast
import functools
import importlib
import pathlib
import re
import textwrap

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_objects_importable_from_top(self):
        assert repro.HYBRID_MULTIPLE.name == "hybrid-multiple"
        assert repro.BGP_SPEC.node.n_cores == 4
        assert callable(repro.simulate_fd)

    @pytest.mark.parametrize(
        "package",
        [
            "repro.des", "repro.machine", "repro.netmodel",
            "repro.grid", "repro.stencil", "repro.transport", "repro.core",
            "repro.dft", "repro.analysis", "repro.util",
        ],
    )
    def test_every_package_has_docstring_and_all(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__ and len(mod.__doc__) > 80
        assert getattr(mod, "__all__", None), f"{package} must define __all__"
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, f"{package}.{name}"


class TestRepositoryDocs:
    @pytest.mark.parametrize(
        "path",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
         "CONTRIBUTING.md", "CHANGES.md", "docs/MODEL.md", "docs/API.md"],
    )
    def test_doc_exists_and_nonempty(self, path):
        f = ROOT / path
        assert f.exists(), path
        assert len(f.read_text()) > 400

    def test_design_confirms_paper_identity(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "10.1109/IPDPS.2009.5160936" in text
        assert "matches the claimed paper" in text

    def test_experiments_covers_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for marker in ("Table I", "Figure 2", "Figure 5", "Figure 6",
                       "Figure 7", "headline", "sub-groups"):
            assert marker in text, marker

    def test_api_index_mentions_every_package(self):
        import runpy

        text = (ROOT / "docs" / "API.md").read_text()
        for pkg in ("repro.des", "repro.machine", "repro.core", "repro.dft"):
            assert f"`{pkg}`" in text
        generate = runpy.run_path(str(ROOT / "tools" / "gen_api_index.py"))[
            "generate"
        ]
        assert text == generate(), (
            "docs/API.md is stale: run `python tools/gen_api_index.py`"
        )

    def test_docs_name_only_what_exists(self):
        """Every dotted ``repro.…`` name in the docs imports, and every
        backticked ``*.py`` path exists (``bench/README.md`` is sealed
        with the benchmark, so it is not scanned)."""
        docs = [ROOT / name for name in (
            "README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md",
        )] + sorted((ROOT / "docs").glob("*.md"))

        def resolves(dotted):
            parts = dotted.split(".")
            for i in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:i]))
                except ImportError:
                    continue
                return functools.reduce(
                    lambda o, attr: getattr(o, attr, None), parts[i:], obj
                ) is not None
            return False

        stale, names, paths = [], 0, 0
        for doc in docs:
            text = doc.read_text()
            for dotted in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text):
                names += 1
                if not resolves(dotted):
                    stale.append(f"{doc.name}: {dotted}")
            # inline code only: a fenced block's backticks pair differently
            inline = re.sub(r"```.*?```", "", text, flags=re.S)
            roots = (ROOT, ROOT / "src", ROOT / "src" / "repro",
                     ROOT / "tests", doc.parent)
            for span in re.findall(r"`([^`]+)`", inline):
                for path in re.findall(r"[\w./-]+\.py\b", span):
                    paths += 1
                    if not any((root / path).exists() for root in roots):
                        stale.append(f"{doc.name}: {path}")
        assert names > 100 and paths > 50  # the scan still finds the docs' names
        assert stale == [], f"docs name what does not exist: {stale}"


class TestBenchSeams:
    """The benchmark reaches the program only through ``bench/adapters.py``;
    a seam that stops resolving would turn its metric into ``null``
    without failing anything there, so it fails here."""

    @staticmethod
    def _adapters():
        return ast.parse((ROOT / "bench" / "adapters.py").read_text())

    def test_every_seam_resolves(self):
        seams = [
            [arg.value for arg in node.args]
            for node in ast.walk(self._adapters())
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_seam"
        ]
        assert seams
        for module, name in seams:
            target = getattr(importlib.import_module(module), name, None)
            assert target is not None, f"seam {module}.{name}"

    def test_every_imported_name_exists(self):
        imports = [
            node
            for node in ast.walk(self._adapters())
            if isinstance(node, ast.ImportFrom)
            and node.module.partition(".")[0] == "repro"
        ]
        assert imports
        for node in imports:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


#: what the reachability scan reads: the library and everything that ships
#: with it, but not the tests
_SCANNED_DIRS = ("src", "examples", "bench", "tools")
#: reference oracles that only tests compare against.  Exact: an entry that
#: becomes reached, or disappears, fails the scan, so the list only shrinks
_ORACLE_NAMES = {"apply_stencil_naive", "analytic_bandwidth_curve"}
_ORACLE_MODULES = {"src/repro/stencil/reference.py"}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


class _Loads(ast.NodeVisitor):
    """The references the code under one node makes, typed by receiver.

    Each reference is ``(kind, class, name)``: ``"def"`` for a bare name,
    ``"own"`` for a bare name in the body of ``class`` (not in its
    methods), ``"line"`` for ``self.name``/``cls.name``/``super().name``
    in ``class`` or ``C.name``/``mod.C.name`` for a library class ``C``,
    and ``"any"`` for an attribute on any other receiver or an
    identifier-shaped string passed to a call.  Docstrings, comments,
    stores and import statements make none, and neither does forwarding:
    ``self.<attr>.name`` inside a def named ``name`` (a wrapper handing
    the call on to the object it wraps) reaches nothing on its own.
    """

    def __init__(self, classes, cls=None, body=None):
        self.classes = classes
        self.refs: set = set()
        self._cls = cls  # the class ``self`` and ``cls`` are an instance of
        self._body = body  # the class whose body is being read directly
        self._def = None  # the name of the innermost enclosing def

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.refs.add(("def", None, node.id))
            if self._body is not None:
                self.refs.add(("own", self._body, node.id))

    def _receiver_class(self, receiver):
        """The library class the syntax says ``receiver`` is, if any."""
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            return self._cls
        if isinstance(receiver, ast.Call) and _spelling(receiver) == "super":
            return self._cls
        name = getattr(receiver, "id", None) or getattr(receiver, "attr", None)
        return name if name in self.classes else None

    def _forwards(self, node) -> bool:
        """``self.<attr>.name`` inside ``def name``."""
        inner = node.value
        return (
            node.attr == self._def
            and isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        )

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and not self._forwards(node):
            cls = self._receiver_class(node.value)
            if cls in self.classes:
                self.refs.add(("line", cls, node.attr))
            else:
                self.refs.add(("any", None, node.attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        for arg in node.args + [k.value for k in node.keywords]:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and _IDENTIFIER.match(arg.value)
            ):
                self.refs.add(("any", None, arg.value))
        self.generic_visit(node)

    def _visit_function_body(self, body):
        """A function's or lambda's body: not part of any class body."""
        outer, self._body = self._body, None
        for stmt in body:
            self.visit(stmt)
        self._body = outer

    def visit_FunctionDef(self, node):
        for expr in node.decorator_list + [node.args]:
            self.visit(expr)
        outer, self._def = self._def, node.name
        self._visit_function_body(node.body)
        self._def = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.visit(node.args)
        self._visit_function_body([node.body])

    def visit_ClassDef(self, node):
        for expr in node.decorator_list + node.bases + node.keywords:
            self.visit(expr)
        outer = self._cls, self._body
        self._cls = self._body = node.name
        for stmt in node.body:
            self.visit(stmt)
        self._cls, self._body = outer


def _lineages(classes) -> dict:
    """``class name -> {it, its ancestors, its descendants}``."""
    parents = {
        name: {_spelling(b) for b in node.bases} & set(classes)
        for name, node in classes.items()
    }

    children = {
        name: {n for n, ps in parents.items() if name in ps} for name in classes
    }

    def closure(start, edges):
        out, todo = set(), [start]
        while todo:
            for nxt in edges[todo.pop()] - out:
                out.add(nxt)
                todo.append(nxt)
        return out

    return {
        name: {name} | closure(name, parents) | closure(name, children)
        for name in classes
    }


def _ci_python() -> list:
    """The Python the CI workflow runs inline: heredocs and ``python -c``."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    blocks = re.findall(r"<<'EOF'\n(.*?)\n\s*EOF\n", text, re.S)
    blocks += [
        re.sub(r"\\\n\s*", "", code)
        for code in re.findall(r'python -c "(.*?)"', text, re.S)
    ]
    return [ast.parse(textwrap.dedent(code)) for code in blocks]


@functools.lru_cache(maxsize=None)
def _reachability():
    """``(unreached definitions, unused modules)``: a fixpoint from what ships.

    The subjects are every top-level function and class and every method
    under ``src/repro``, private ones included.  The roots are what runs
    without being called by name: every module-level statement,
    decorators, default values, base classes and class-body statements,
    every dunder method, every file under ``bench/``,
    ``tools/`` and ``examples/``, and the Python inlined in the CI
    workflow.  A subject is reached when a reference from the roots, or
    from a reached subject's body, names it; the syntax types the
    receiver where it can (see :class:`_Loads`):

    1. a bare name reaches the module-level definitions of that name and,
       in a class-body statement, that class's members of that name;
    2. ``self.x``, ``cls.x`` or ``super().x`` in class ``C`` reaches
       ``x`` on ``C``, its ancestors and its descendants, never on a
       sibling;
    3. ``C.x`` and ``mod.C.x``, for a class ``C`` under ``src/repro``,
       reach ``x`` on the same lineage of ``C``;
    4. an identifier-shaped string reaches every definition of that
       spelling only as a call argument (the ``getattr``/``_seam``/
       ``hasattr`` case), never as a dict key or docstring.

    A wrapper's forwarding call, ``self.<attr>.x`` inside its own ``def
    x``, reaches nothing: a method that only wrappers forward to is as
    dead as the wrappers.  Any other attribute reaches every definition
    of its spelling.  That
    is the blind spot left: ``obj.x`` on a receiver the syntax does not
    type (a parameter, a local, a call result) keeps alive every ``x`` of
    every class, so a method can still hide behind a live namesake on an
    untyped receiver.  A module is unused when none of its definitions
    is reached.
    """
    sources = {}
    for top in _SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            sources[path.relative_to(ROOT).as_posix()] = ast.parse(path.read_text())
    classes = {
        stmt.name: stmt
        for rel, tree in sources.items() if rel.startswith("src/repro/")
        for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    lineage = _lineages(classes)

    def refs(node, cls=None, body=None) -> set:
        loads = _Loads(classes, cls, body)
        loads.visit(node)
        return loads.refs

    subjects: dict[tuple[str, str], set] = {}
    roots = set().union(*(refs(tree) for tree in _ci_python()))
    for rel, tree in sources.items():
        if not rel.startswith("src/repro/"):
            roots |= refs(tree)
            continue
        for stmt in tree.body:
            if not isinstance(stmt, _DEFS):
                roots |= refs(stmt)
                continue
            for expr in stmt.decorator_list:
                roots |= refs(expr)
            if not isinstance(stmt, ast.ClassDef):
                subjects[rel, stmt.name] = refs(stmt)
                roots |= refs(stmt.args)
                continue
            subjects[rel, stmt.name] = set()
            for expr in stmt.bases + stmt.keywords:
                roots |= refs(expr)
            for item in stmt.body:
                if isinstance(item, _FUNCS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    subjects[rel, f"{stmt.name}.{item.name}"] = refs(item, stmt.name)
                    for expr in item.decorator_list + [item.args]:
                        roots |= refs(expr, stmt.name, stmt.name)
                else:
                    roots |= refs(item, stmt.name, stmt.name)

    targets: dict = {}  # reference -> the subjects it reaches
    for key in subjects:
        owner, _, name = key[1].rpartition(".")
        targets.setdefault(("any", None, name), set()).add(key)
        if not owner:
            targets.setdefault(("def", None, name), set()).add(key)
            continue
        targets.setdefault(("own", owner, name), set()).add(key)
        for cls in lineage[owner]:
            targets.setdefault(("line", cls, name), set()).add(key)
    reached: set = set()
    todo = list(roots)
    seen = set(roots)
    while todo:
        for key in targets.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                new = subjects[key] - seen
                seen |= new
                todo += new
    unreached = {key for key in subjects if key not in reached}
    modules = {rel for rel, _ in subjects}
    used = {rel for rel, _ in reached}
    return unreached, modules - used


#: hardware and calibration data: their defaults are the machine's and the
#: paper's published constants, so no root needs to pass them.  Exact, as
#: ``_ORACLE_NAMES``: a class with no unset default fails the scan
_CALIBRATION_CLASSES = {
    "CoreSpec", "NodeSpec", "TorusSpec", "TreeSpec", "ThreadSpec",
    "MachineSpec", "PaperAnchors",
}
#: ``(owner, parameter)`` defaults nothing passes yet.  Exact, shrink-only
_UNSET_PARAMETERS = {
    # decomposing on the partition (ROADMAP, "Decompose on the
    # partition") passes the partition's shape from ``timing_plan``
    ("Decomposition", "domains_shape"),
}
#: the callee under which ``dataclasses.replace`` and attribute stores
#: record the fields they set
_ANY_FIELD = "<field>"


def _spelling(node) -> str:
    """The name a call or decorator is spelled with (``a.b`` -> ``b``)."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _is_dataclass(cls) -> bool:
    return any(_spelling(d) == "dataclass" for d in cls.decorator_list)


def _has_decorator(fn, name: str) -> bool:
    return any(_spelling(d) == name for d in fn.decorator_list)


def _init_fields(cls, classes) -> list:
    """``[(name, has_default, own)]`` of a dataclass's ``__init__``
    fields, in order: inherited dataclass fields first."""
    out = []
    for base in cls.bases:
        parent = classes.get(getattr(base, "id", None))
        if parent is not None and _is_dataclass(parent):
            out += [(n, d, False) for n, d, _ in _init_fields(parent, classes)]
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and _spelling(value) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if getattr(kw.get("init"), "value", True) is False:
                continue
            default = "default" in kw or "default_factory" in kw
        else:
            default = value is not None
        out = [f for f in out if f[0] != item.target.id]
        out.append((item.target.id, default, True))
    return out


class _Calls(ast.NodeVisitor):
    """What a body of code passes, indexed by callee spelling.

    ``keywords[name]`` holds the keyword names and ``positional[name]``
    the most positional arguments any call spelled ``name`` passes.
    ``super().__init__`` and ``cls(...)`` in a classmethod are calls of
    the class; ``dataclasses.replace`` and an attribute store outside
    ``self`` set fields of any dataclass; ``**kwargs`` forwarding and a
    call through a parameter are resolved by :meth:`resolve`.
    """

    def __init__(self):
        self.keywords: dict = {}
        self.positional: dict = {}
        self.forwards: dict = {}  # callee -> functions whose **kwargs it gets
        self.arguments: dict = {}  # (callee, position or keyword) -> names
        self._classes: list = []
        self._functions: list = []

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node):
        for target in node.targets:
            if isinstance(target, ast.Attribute) and not (
                isinstance(target.value, ast.Name) and target.value.id == "self"
            ):
                self.keywords.setdefault(_ANY_FIELD, set()).add(target.attr)
        self.generic_visit(node)

    def _callees(self, func) -> set:
        fn = self._functions[-1] if self._functions else None
        if isinstance(func, ast.Name):
            if func.id == "replace":
                return {_ANY_FIELD}
            if func.id == "cls" and fn and _has_decorator(fn, "classmethod"):
                return {self._classes[-1].name}
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args] if fn else []
            if func.id in params:  # resolved once every caller is known
                skip = 1 if self._classes and params[0] in ("self", "cls") else 0
                return {(fn.name, params.index(func.id) - skip)}
            return {func.id}
        if isinstance(func, ast.Attribute):
            target = func.value
            if func.attr == "__init__" and isinstance(target, ast.Call) and (
                getattr(target.func, "id", None) == "super"
            ):
                bases = self._classes[-1].bases
                return {b.id for b in bases if isinstance(b, ast.Name)}
            if func.attr == "replace" and getattr(target, "id", None) == "dataclasses":
                return {_ANY_FIELD}
            return {func.attr}
        return set()

    def visit_Call(self, node):
        fn = self._functions[-1] if self._functions else None
        n_args = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            n_args = float("inf")
        for callee in self._callees(node.func):
            if callee == _ANY_FIELD:
                n_args = 0  # replace(obj, ...): the object is no field
            self.positional[callee] = max(self.positional.get(callee, 0), n_args)
            kws = self.keywords.setdefault(callee, set())
            for i, arg in enumerate(node.args):
                self._argument(callee, i, arg)
            for k in node.keywords:
                if k.arg is not None:
                    kws.add(k.arg)
                    self._argument(callee, k.arg, k.value)
                elif fn and fn.args.kwarg and (
                    getattr(k.value, "id", None) == fn.args.kwarg.arg
                ):
                    self.forwards.setdefault(callee, set()).add(fn.name)
                elif fn and isinstance(k.value, ast.Name):
                    kws |= _dict_keys(fn, k.value.id)
        self.generic_visit(node)

    def _argument(self, callee, slot, value):
        if isinstance(value, (ast.Name, ast.Attribute)):
            name = value.id if isinstance(value, ast.Name) else value.attr
            self.arguments.setdefault((callee, slot), set()).add(name)

    def resolve(self) -> None:
        """Fold calls through parameters and ``**kwargs`` forwards into
        the callees they reach."""
        for key in [k for k in self.positional if isinstance(k, tuple)]:
            function, index = key
            for name in self.arguments.get((function, index), ()):
                self.positional[name] = max(
                    self.positional.get(name, 0), self.positional[key]
                )
                self.keywords.setdefault(name, set()).update(self.keywords[key])
                self.forwards.setdefault(name, set()).update(
                    self.forwards.get(key, ())
                )
        grew = True
        while grew:
            grew = False
            for callee, functions in self.forwards.items():
                got = self.keywords.setdefault(callee, set())
                for function in functions:
                    new = self.keywords.get(function, set()) - got
                    if new:
                        got |= new
                        grew = True


def _dict_keys(function, name: str) -> set:
    """Keys of ``name = {...}`` / ``name = dict(...)`` inside ``function``."""
    keys = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign) or not any(
            getattr(t, "id", None) == name for t in node.targets
        ):
            continue
        if isinstance(node.value, ast.Dict):
            keys |= {k.value for k in node.value.keys if isinstance(k, ast.Constant)}
        elif isinstance(node.value, ast.Call) and _spelling(node.value) == "dict":
            keys |= {k.arg for k in node.value.keywords if k.arg}
    return keys


def _serialised_fields(tree) -> set:
    """``(class, field)`` pairs ``JobSpec.to_dict`` writes into a config."""
    (jobspec,) = [
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "JobSpec"
    ]
    sections = {
        item.target.id: ast.unparse(item.annotation)
        for item in jobspec.body if isinstance(item, ast.AnnAssign)
    }
    (to_dict,) = [
        n for n in jobspec.body
        if isinstance(n, ast.FunctionDef) and n.name == "to_dict"
    ]
    return {
        (sections[node.value.attr], node.attr)
        for node in ast.walk(to_dict)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and getattr(node.value.value, "id", None) == "self"
        and node.value.attr in sections
    }


@functools.lru_cache(maxsize=None)
def _parameters():
    """``(every defaulted parameter, those no root passes)``.

    The subjects are the defaulted parameters of the definitions
    ``_reachability`` scans (oracles aside: only tests call them) and the
    defaulted ``__init__`` fields of dataclasses, keyed ``(owner, name)``
    with ``owner`` a function, a ``Class.method`` or a dataclass.  A
    subject is passed when a call of a spelling that reaches it passes
    its keyword, or enough positional arguments; the roots are the same
    as ``_reachability``'s.  A parameter named like a ``CLI_KNOBS`` knob
    and a spec field ``JobSpec.to_dict`` serialises are set by the CLI
    and by a stored config.
    """
    from repro.core.jobspec import CLI_KNOBS

    calls = _Calls()
    for tree in _ci_python():
        calls.visit(tree)
    trees = {}
    for top in _SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            trees[rel] = ast.parse(path.read_text())
            calls.visit(trees[rel])
    calls.resolve()
    serialised = _serialised_fields(trees["src/repro/core/jobspec.py"])
    classes = {
        node.name: node
        for rel, tree in trees.items() if rel.startswith("src/repro/")
        for node in tree.body if isinstance(node, ast.ClassDef)
    }

    def constructors(name) -> set:
        """Spellings that run ``name.__init__``: the class and subclasses
        that inherit it."""
        out, grew = {name}, True
        while grew:
            grew = False
            for c in classes.values():
                if c.name not in out and not _is_dataclass(c) and any(
                    getattr(b, "id", None) in out for b in c.bases
                ) and not any(
                    isinstance(i, _FUNCS) and i.name == "__init__" for i in c.body
                ):
                    out.add(c.name)
                    grew = True
        return out

    subjects = {}  # (owner, name) -> (callee spellings, position or None)

    def add(owner, fn, callees, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            subjects[owner, arg.arg] = (callees, i - skip)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                subjects[owner, arg.arg] = (callees, None)

    for rel, tree in trees.items():
        if not rel.startswith("src/repro/") or rel in _ORACLE_MODULES:
            continue
        for stmt in tree.body:
            if isinstance(stmt, _FUNCS) and stmt.name not in _ORACLE_NAMES:
                add(stmt.name, stmt, {stmt.name}, 0)
            if not isinstance(stmt, ast.ClassDef):
                continue
            if _is_dataclass(stmt):
                for i, (name, default, own) in enumerate(_init_fields(stmt, classes)):
                    if default and own:
                        subjects[stmt.name, name] = ({stmt.name, _ANY_FIELD}, i)
            for item in stmt.body:
                if isinstance(item, _FUNCS):
                    callees = (
                        constructors(stmt.name) if item.name == "__init__"
                        else {item.name}
                    )
                    skip = 0 if _has_decorator(item, "staticmethod") else 1
                    add(f"{stmt.name}.{item.name}", item, callees, skip)

    def passed(key) -> bool:
        (owner, name), (callees, position) = key, subjects[key]
        if name in CLI_KNOBS or (owner, name) in serialised:
            return True
        return any(
            name in calls.keywords.get(c, ())
            or (position is not None and calls.positional.get(c, 0) > position)
            for c in callees
        )

    return set(subjects), {key for key in subjects if not passed(key)}


class TestReachability:
    """Nothing outside the tests reaches dead code, so it cannot hide:
    every definition under ``src/repro`` is reached from what ships."""

    def test_references_are_typed_by_receiver(self):
        tree = ast.parse(textwrap.dedent('''
            class C:
                alias = helper
                def m(self, obj):
                    self.a, C.b, obj.c, getattr(obj, "d"), {"e": 1}, f
        '''))
        loads = _Loads({"C": tree.body[0]})
        loads.visit(tree)
        assert {
            ("own", "C", "helper"), ("def", None, "helper"),
            ("line", "C", "a"), ("line", "C", "b"),
            ("any", None, "c"), ("any", None, "d"), ("def", None, "f"),
        } <= loads.refs
        names = {name for _, _, name in loads.refs}
        assert "e" not in names
        assert ("any", None, "a") not in loads.refs
        assert ("own", "C", "f") not in loads.refs  # a method body is no class body

    def test_forwarding_reaches_nothing(self):
        tree = ast.parse(textwrap.dedent('''
            class W:
                def send(self, x):
                    self.inner.send(x)
                    self.inner.other(x)
                    return self.send, other.send

                @property
                def size(self):
                    return self.inner.size

                def nested(self):
                    def deeper():
                        return self.inner.nested
                    return self.inner.deeper
        '''))
        loads = _Loads({"W": tree.body[0]})
        loads.visit(tree)
        assert ("any", None, "other") in loads.refs
        assert ("line", "W", "send") in loads.refs  # self.send is no forward
        assert ("any", None, "send") in loads.refs  # nor is other.send
        names = {name for _, _, name in loads.refs}
        assert "size" not in names
        # the innermost def counts: deeper forwards nothing named nested
        assert ("any", None, "nested") in loads.refs
        assert ("any", None, "deeper") in loads.refs

    def test_every_def_is_reached_from_an_entry_point(self):
        unreached, _ = _reachability()
        names = {name for _, name in unreached}
        assert names - _ORACLE_NAMES == set(), (
            "definitions nothing outside the tests reaches: delete them"
        )
        assert _ORACLE_NAMES - names == set(), (
            "allowlisted oracles that are now reached or gone: "
            "drop them from _ORACLE_NAMES"
        )

    def test_every_module_is_used(self):
        _, unused = _reachability()
        assert unused - _ORACLE_MODULES == set(), (
            "modules none of whose definitions is reached: delete them"
        )
        assert _ORACLE_MODULES - unused == set(), (
            "allowlisted modules that are now used or gone: "
            "drop them from _ORACLE_MODULES"
        )

    def test_every_default_is_set_from_an_entry_point(self):
        _, unset = _parameters()
        calibration = {
            key for key in unset
            if key[0].partition(".")[0] in _CALIBRATION_CLASSES
        }
        assert unset - calibration - _UNSET_PARAMETERS == set(), (
            "defaults nothing outside the tests sets: delete the "
            "parameter or make it a module constant"
        )
        assert _UNSET_PARAMETERS - unset == set(), (
            "allowlisted parameters that are now passed or gone: "
            "drop them from _UNSET_PARAMETERS"
        )
        assert {
            owner.partition(".")[0] for owner, _ in calibration
        } == _CALIBRATION_CLASSES, (
            "allowlisted classes whose defaults are all set or gone: "
            "drop them from _CALIBRATION_CLASSES"
        )
