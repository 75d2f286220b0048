"""The work budgets' counting helpers."""

import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np


def counted(owner, name: str):
    """Patch ``owner.name`` with a mock that still does the work."""
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


def numpy_calls(fn) -> Counter:
    """The numpy C functions and array methods ``fn()`` calls, by name."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event != "c_call":
            return
        owner = getattr(arg, "__self__", None)
        if (
            isinstance(owner, np.ndarray)
            or isinstance(owner, np.ufunc)
            or (getattr(arg, "__module__", None) or "").startswith("numpy")
        ):
            calls[getattr(arg, "__qualname__", arg.__name__)] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class _Counting:
    """A numpy callable, or numpy itself, that counts each call made
    through it under its dotted name (``"minimum.reduceat"``)."""

    def __init__(self, target, calls: Counter, name: str = "") -> None:
        self._target, self._calls, self._name = target, calls, name

    def __getattr__(self, attr: str):
        value = getattr(self._target, attr)
        if callable(value) and not isinstance(value, type):
            return _Counting(value, self._calls, f"{self._name}.{attr}".lstrip("."))
        return value  # dtypes, classes and constants as they are

    def __call__(self, *args, **kwargs):
        self._calls[self._name] += 1
        return self._target(*args, **kwargs)


@contextmanager
def numpy_through(*modules):
    """Patch each module's ``np`` so that every numpy function, ufunc and
    ufunc method the modules call is counted; the context yields the one
    ``Counter``.  Unlike :func:`numpy_calls` it sees ufunc calls and
    ``np.where``, and nothing of array methods or operators."""
    calls: Counter = Counter()
    with ExitStack() as stack:
        for module in modules:
            stack.enter_context(mock.patch.object(module, "np", _Counting(np, calls)))
        yield calls
