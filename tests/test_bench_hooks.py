"""The benchmark's tracer patches module attributes of the program by name
(``bench/spans.py``); every one of them must keep resolving, or
``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
SITES = sorted({site for sites in _spans.SPANS.values() for site in sites} | set(_spans.EVAL_SITES))


@pytest.mark.parametrize("module,attribute", SITES, ids=[f"{m}:{a}" for m, a in SITES])
def test_traced_attribute_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
