"""The bench's tracer rebinds fedfair functions by name (``bench/spans.py``);
every name it rebinds must still exist, or ``bench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name", [f"{owner}.{attr}" for owner, attr, _ in spans.SPANNED + spans.COUNTED])
def test_every_traced_name_resolves(name):
    owner, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"fedfair.{owner}"), attr))
