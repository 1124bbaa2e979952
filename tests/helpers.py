"""Helpers shared by the tests."""

import sys

import pytest


def shallow(call, *args):
    """``call(*args)`` under a recursion limit of 1,000.  A walk that
    recurses along a long term fails the test in one line: the
    ``RecursionError`` is dropped before the failure is raised, because
    pytest would compare the large terms held by every pair of its frames
    to shorten the traceback, which takes minutes."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return call(*args)
    except RecursionError:
        pass
    finally:
        sys.setrecursionlimit(limit)
    pytest.fail(f"{call.__name__} recursed along the term", pytrace=False)
