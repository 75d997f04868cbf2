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


def _is_docstring(stmt, owner) -> bool:
    return (
        owner.body[0] is stmt
        and isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _names(*nodes) -> set:
    """Every name the code under ``nodes`` loads.

    Variables, attributes and identifier-shaped string constants (the
    benchmark's ``getattr`` seams name their targets as strings); not
    docstrings, comments, stores or import statements.
    """
    docstrings = {
        id(owner.body[0].value)
        for node in nodes
        for owner in ast.walk(node)
        if isinstance(owner, (ast.Module,) + _DEFS)
        and owner.body
        and _is_docstring(owner.body[0], owner)
    }
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
            elif (
                isinstance(sub, ast.Constant)
                and isinstance(sub.value, str)
                and id(sub) not in docstrings
                and _IDENTIFIER.match(sub.value)
            ):
                out.add(sub.value)
    return out


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
    without being called by name: every module-level statement except
    ``__all__``, decorators, default values, base classes and class-body
    statements, every dunder method, every file under ``bench/``,
    ``tools/`` and ``examples/``, and the Python inlined in the CI
    workflow.  A subject is reached when its name is in the closure of
    names loaded from the roots; its own body then adds to the closure.
    Names are matched by spelling, so two methods of one name are reached
    together.  A module is unused when none of its definitions is reached.
    """
    subjects: dict[tuple[str, str], set] = {}
    roots: list = _ci_python()
    for top in _SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            tree = ast.parse(path.read_text())
            if not rel.startswith("src/repro/"):
                roots.append(tree)
                continue
            for stmt in tree.body:
                if _is_docstring(stmt, tree) or _is_all(stmt):
                    continue
                if not isinstance(stmt, _DEFS):
                    roots.append(stmt)
                    continue
                roots += stmt.decorator_list
                if not isinstance(stmt, ast.ClassDef):
                    subjects[rel, stmt.name] = _names(stmt)
                    roots.append(stmt.args)
                    continue
                subjects[rel, stmt.name] = set()
                roots += stmt.bases + stmt.keywords
                for item in stmt.body:
                    if _is_docstring(item, stmt):
                        continue
                    if isinstance(item, _FUNCS) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        subjects[rel, f"{stmt.name}.{item.name}"] = _names(item)
                        roots += item.decorator_list + [item.args]
                    else:
                        roots.append(item)
    reached_names = _names(*roots)
    reached: set = set()
    grew = True
    while grew:
        grew = False
        for key, loads in subjects.items():
            if key not in reached and key[1].rpartition(".")[2] in reached_names:
                reached.add(key)
                reached_names |= loads
                grew = True
    unreached = {key for key in subjects if key not in reached}
    modules = {rel for rel, _ in subjects}
    used = {rel for rel, _ in reached}
    return unreached, modules - used


class TestReachability:
    """Nothing outside the tests reaches dead code, so it cannot hide:
    every definition under ``src/repro`` is reached from what ships."""

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
