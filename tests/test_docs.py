"""The docs/ subsystem can't drift from the code.

``docs/cli.md`` must match the argparse tree exactly; every relative
link in docs/*.md and README.md must resolve; the reference pages must
name every registered backend and redesign.
"""

import os
import re

import pytest

from repro.docsgen import render_cli_md
from repro.pipeline.backends import backend_names

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(REPO, "docs")

LINK = re.compile(r"\[[^\]]*\]\(([^)]+)\)")


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _doc_paths():
    return sorted(
        os.path.join(DOCS, name)
        for name in os.listdir(DOCS)
        if name.endswith(".md")
    )


class TestCliReference:
    def test_cli_md_is_current(self):
        """Regenerate with `python -m repro docs` when this fails."""
        path = os.path.join(DOCS, "cli.md")
        assert os.path.exists(path), "docs/cli.md missing; run " \
            "`python -m repro docs`"
        assert _read(path) == render_cli_md(), \
            "docs/cli.md is stale; run `python -m repro docs`"

    def test_every_subcommand_documented(self):
        from repro.cli import build_parser
        import argparse

        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        text = render_cli_md()
        for name in sub.choices:
            assert f"## {name}" in text

    def test_every_flag_documented(self):
        text = render_cli_md()
        for flag in ("--backend", "--workers", "--interface", "--cache",
                     "--ncores", "--solver-cache-size", "--check"):
            assert f"`{flag}" in text


class TestLinks:
    @pytest.mark.parametrize(
        "path",
        [os.path.join(REPO, "README.md")] + _doc_paths(),
        ids=lambda p: os.path.relpath(p, REPO),
    )
    def test_relative_links_resolve(self, path):
        base = os.path.dirname(path)
        broken = []
        for target in LINK.findall(_read(path)):
            if target.startswith(("http://", "https://", "#")):
                continue
            target = target.split("#", 1)[0]
            if not os.path.exists(os.path.join(base, target)):
                broken.append(target)
        assert not broken, f"broken links in {path}: {broken}"

    def test_readme_links_into_every_doc_page(self):
        readme = _read(os.path.join(REPO, "README.md"))
        for doc in _doc_paths():
            rel = os.path.relpath(doc, REPO)
            assert rel in readme, f"README does not link {rel}"


class TestReferenceCompleteness:
    def test_backends_md_names_every_backend(self):
        text = _read(os.path.join(DOCS, "backends.md"))
        for name in backend_names():
            assert f"`{name}`" in text

    def test_interfaces_md_names_every_interface_and_redesign(self):
        from repro.compare import redesign_names
        from repro.model.registry import interface_names

        text = _read(os.path.join(DOCS, "interfaces.md"))
        for name in interface_names():
            assert f"`{name}`" in text
        for name in redesign_names():
            assert f"`{name}`" in text

    def test_readme_claim_table_names_every_redesign(self):
        from repro.compare import redesign_names

        readme = _read(os.path.join(REPO, "README.md"))
        for name in redesign_names():
            assert f"compare {name}" in readme

    def test_artifacts_md_names_every_schema(self):
        text = _read(os.path.join(DOCS, "artifacts.md"))
        for schema in ("repro.heatmap/1", "repro.analyze/1",
                       "repro.testgen/1", "repro.bench/1",
                       "repro.compare/1", "repro.bench-report/1",
                       "repro.job/1"):
            assert schema in text
