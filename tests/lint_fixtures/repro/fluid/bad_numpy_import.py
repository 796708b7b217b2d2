"""Bad: numpy loaded at import time, by every process that imports this."""

import numpy as np
from numpy import linalg

try:
    import numpy.random as npr
except ImportError:
    npr = None


class Grid:
    import numpy  # a class body runs at import too

    def zeros(self, n):
        return np.zeros(n), linalg, npr
