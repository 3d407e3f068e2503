"""Keeps the tests directory importable so shared oracles can be loaded, and
holds the fixtures that more than one test file uses."""
import sys

import pytest


@pytest.fixture
def enumeration_work():
    """A function that makes one call and returns its result with the
    number of _fincke_pohst calls and of descend nodes the call made,
    counted with sys.settrace, so a bound on work does not depend on the
    host's load."""
    from tracelattice.lattice_core import _fincke_pohst

    enumerate_code = _fincke_pohst.__code__
    (descend_code,) = [
        c for c in enumerate_code.co_consts if getattr(c, "co_name", None) == "descend"
    ]

    def run(fn, *args):
        counts = {enumerate_code: 0, descend_code: 0}

        def count(frame, event, arg):
            if frame.f_code in counts:
                counts[frame.f_code] += 1

        previous = sys.gettrace()
        sys.settrace(count)
        try:
            result = fn(*args)
        finally:
            sys.settrace(previous)
        return result, counts[enumerate_code], counts[descend_code]

    return run
