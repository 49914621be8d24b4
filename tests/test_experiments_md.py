"""EXPERIMENTS.md carries its generator's prose verbatim.

``tools/build_experiments_md.py`` rewrites EXPERIMENTS.md from its
``HEADER`` and ``NOTES`` plus the benchmark blocks, so prose edited in only
one of the two places is lost (or resurrected) by the next regeneration.
"""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _builder():
    path = os.path.join(ROOT, "tools", "build_experiments_md.py")
    spec = importlib.util.spec_from_file_location("build_experiments_md", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_md_carries_the_generator_text():
    builder = _builder()
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith(builder.HEADER)
    assert builder.NOTES in text
