"""Good: the optional accelerator resolves inside the function that needs it."""

import numbers  # not numpy: only the top-level package name counts


def _require_numpy():
    try:
        import numpy
    except ImportError:
        raise ImportError("this path requires numpy") from None
    return numpy


def zeros(n):
    from numpy import zeros as np_zeros

    return np_zeros(n), numbers.Real, _require_numpy()
