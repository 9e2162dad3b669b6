"""The bench's traced layer names must name real program attributes.

``bench/tracing.py`` wraps each ``(owner, attribute)`` of its target list
while a traced run is installed; a renamed layer would only fail there.
This test fails the suite instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_every_traced_layer_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing._targets()
               if attr not in vars(owner)]
    assert missing == []
