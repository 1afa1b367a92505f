"""The library names that the benchmark's tracer wraps all exist.

``perfbench/child.py``'s ``instrument`` plans a wrapper on every public name
the workloads reach, at each site where a module imports it.  ``Tracer.plan``
only reads each name with ``getattr`` and installs nothing, so planning them
all raises ``AttributeError`` as soon as the library drops or renames a name
that ``perfbench/run.py --trace 1`` wraps.  The list of names is perfbench's
own, so it is not copied here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_tracer_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import child
    from tracer import Tracer

    nh = child.load_modules()
    rref = nh.linalg.RationalMatrix.rref
    child.instrument(Tracer(), nh)
    # planned, not installed: the library is left as it was
    assert nh.linalg.RationalMatrix.rref is rref
