"""The benchmark under perfbench/ binds package names; removing or renaming one fails here."""

import sys
from pathlib import Path

import cascade_droop

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_benchmark_binds_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import tracer
        import workloads

        assert {"cases-all", "wide-string"} <= set(workloads.WORKLOADS)
        spy = tracer.Tracer()
        spy.install()  # looks up every traced name in its module
        try:
            assert len(spy._patched) >= len(tracer.SPANNED) + len(tracer.COUNTED)
        finally:
            spy.uninstall()
        assert not hasattr(cascade_droop.simulate, "__wrapped__")  # uninstall restored it
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
