"""Smoke test: every script in ``demos/`` runs to completion.

The demos call the integrators and the certificate directly, so an API
change that breaks one fails here rather than silently.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script, argv", [
    ("branching_pair.py", ["--step", "1e-3"]),
    ("stability_certificate.py", []),
    ("vertical_shortcut.py", []),
])
def test_demo_runs(script, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        f"demo_{Path(script).stem}", DEMOS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    module.main()
    assert capsys.readouterr().out
