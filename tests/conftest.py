"""Keeps the tests directory importable so shared oracles can be loaded, and
holds the fixtures that more than one test file uses."""
import sys

import pytest


@pytest.fixture
def call_counts():
    """A function run(targets, fn, *args) that makes one call fn(*args) and
    returns its result followed by the number of calls made to each target,
    a function or a code object, counted with sys.settrace, so a bound on
    work does not depend on the host's load."""

    def run(targets, fn, *args):
        codes = [getattr(target, "__code__", target) for target in targets]
        counts = dict.fromkeys(codes, 0)

        def count(frame, event, arg):
            if frame.f_code in counts:
                counts[frame.f_code] += 1

        previous = sys.gettrace()
        sys.settrace(count)
        try:
            result = fn(*args)
        finally:
            sys.settrace(previous)
        return (result, *(counts[code] for code in codes))

    return run


@pytest.fixture
def enumeration_codes():
    """The code objects of _fincke_pohst and of its nested descend: their
    calls are the short-vector enumerations and their nodes."""
    from tracelattice.lattice_core import _fincke_pohst

    enumerate_code = _fincke_pohst.__code__
    (descend_code,) = [
        c for c in enumerate_code.co_consts if getattr(c, "co_name", None) == "descend"
    ]
    return [enumerate_code, descend_code]
