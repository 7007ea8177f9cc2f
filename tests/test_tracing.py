"""The benchmark's tracer (perfbench/tracing.py) rebinds names inside
pickroute from outside the package; a binding whose name is gone fails here
before it fails a traced benchmark run."""
from pathlib import Path

from pickroute import prelim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_every_binding_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    before = prelim.integrate_1d, prelim.integrate_2d, prelim.gap_kernel
    with Tracer().installed():
        pass
    assert (prelim.integrate_1d, prelim.integrate_2d, prelim.gap_kernel) == before
