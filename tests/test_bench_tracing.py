"""The bench tracer (``bench/tracing.py``) wraps package functions and
methods by name.  Every name it lists must resolve in the package, and a
traced call must still yield its counts, so that a rename cannot silently
break ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import wwords
from wwords import Monomial, ProductFactor, ProductSpec


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    for modname, attr, _ in _tracing().WRAPPED:
        module = importlib.import_module(f"wwords.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer replaces the method on the class itself
            assert meth in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_traced_series_calls_report_term_counts():
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        # called through the package, where the tracer rebinds the name
        f = wwords.product_expand(ProductSpec(
            [ProductFactor(1, Monomial.var("a"), 1, 7, 1)]), 6)   # 1/(1 - aq)
        (f * f).specialize({"a": 1})
    finally:
        tracer.uninstall()
    counts = {span[0]: span[4] for span in tracer.spans}
    assert counts["algebra.TruncatedSeries.__mul__"] == {"terms_out": 7}
    assert counts["algebra.TruncatedSeries.specialize"] == {"terms_in": 7}
    assert "algebra.product_expand" in counts
