"""Generate docs/API.md — a one-line-per-symbol index of the public API.

Walks every ``repro`` subpackage, collects the names each ``__init__``
exports (``__all__``), and writes their first docstring lines into a
markdown table per package.  Run from the repository root::

    python tools/gen_api_index.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

PACKAGES = [
    "repro",
    "repro.des",
    "repro.machine",
    "repro.netmodel",
    "repro.grid",
    "repro.stencil",
    "repro.transport",
    "repro.obs",
    "repro.core",
    "repro.dft",
    "repro.analysis",
    "repro.util",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.splitlines()[0] if doc else ""
    return line.replace("|", "\\|")


def package_section(name: str) -> str:
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    header = first_line(module)
    lines = [f"## `{name}`", "", header, ""]
    if exported:
        lines += ["| symbol | kind | summary |", "|---|---|---|"]
        for sym in exported:
            if sym.startswith("__"):
                continue
            obj = getattr(module, sym, None)
            if obj is None:
                continue
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj):
                kind = "function"
            elif inspect.ismodule(obj):
                kind = "module"
            else:
                kind = type(obj).__name__
            lines.append(f"| `{sym}` | {kind} | {first_line(obj)} |")
    lines.append("")
    return "\n".join(lines)


def generate() -> str:
    parts = [
        "# API index",
        "",
        "Generated by `python tools/gen_api_index.py`; regenerate after",
        "changing any `__init__.py` exports.",
        "",
    ]
    parts += [package_section(p) for p in PACKAGES]
    return "\n".join(parts)


def main() -> int:
    out = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"
    out.write_text(generate())
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
