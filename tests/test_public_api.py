"""Release-hygiene tests: public API surface, reachability, docs, version."""

import ast
import collections
import functools
import pathlib
import re

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
        import importlib

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


#: what the reachability scan reads: the library and everything that ships
#: with it, but not the tests
_SCANNED_DIRS = ("src", "examples", "bench", "tools")
#: reference oracles that only tests compare against.  Exact: an entry that
#: becomes reached, or disappears, fails the scan, so the list only shrinks
_ORACLE_NAMES = {
    "apply_stencil_naive", "apply_gradient_global", "analytic_bandwidth_curve",
}
_ORACLE_MODULES = {"src/repro/stencil/reference.py"}


@functools.lru_cache(maxsize=None)
def _reachability():
    """``(unnamed defs, unused modules)`` over the scanned files.

    A public top-level function or class is *unnamed* when its name occurs
    nowhere but its own ``def``; a module under ``src/repro`` is *unused*
    when none of its public top-level names occurs in another scanned
    file.  Package ``__init__`` files are not scanned (a re-export is not
    a use), and ``__main__`` is an entry point, not an importable module.
    """
    files = [
        path
        for top in _SCANNED_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    words = {
        path: collections.Counter(re.findall(r"[A-Za-z_]\w*", path.read_text()))
        for path in files
    }
    total = sum(words.values(), collections.Counter())
    unnamed, unused = set(), set()
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        if not rel.startswith("src/repro/") or path.name == "__main__.py":
            continue
        defs, assigned = set(), set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.add(node.name)
            elif isinstance(node, ast.Assign):
                assigned.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                assigned.add(node.target.id)
        defs = {n for n in defs if not n.startswith("_")}
        public = defs | {n for n in assigned if not n.startswith("_")}
        unnamed.update(n for n in defs if total[n] <= 1)
        if not any(total[n] > words[path][n] for n in public):
            unused.add(rel)
    return unnamed, unused


class TestReachability:
    """Nothing outside the tests reaches dead code, so it cannot hide:
    every public definition is named somewhere, every module is used."""

    def test_every_public_def_is_named_outside_its_def(self):
        unnamed, _ = _reachability()
        assert unnamed - _ORACLE_NAMES == set(), (
            "public definitions nothing names: delete them"
        )
        assert _ORACLE_NAMES - unnamed == set(), (
            "allowlisted oracles that are now reached or gone: "
            "drop them from _ORACLE_NAMES"
        )

    def test_every_module_is_used_outside_itself(self):
        _, unused = _reachability()
        assert unused - _ORACLE_MODULES == set(), (
            "modules nothing outside them uses: delete them"
        )
        assert _ORACLE_MODULES - unused == set(), (
            "allowlisted modules that are now used or gone: "
            "drop them from _ORACLE_MODULES"
        )
