"""Release-hygiene tests: public API surface, docs, version."""

import pathlib

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
            "repro.des", "repro.machine", "repro.netmodel", "repro.smpi",
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
         "CONTRIBUTING.md", "CHANGELOG.md", "docs/MODEL.md", "docs/API.md"],
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
