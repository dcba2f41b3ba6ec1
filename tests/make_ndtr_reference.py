"""Write tests/ndtr_reference.json: the standard normal CDF at a fixed grid
of float arguments, from mpmath at 60 digits, rounded to 40 decimal places.

test_newsvendor.py compares scipy's ndtr against this file, so the test
suite needs no mpmath. The grid is [-40, 40] in steps of 0.04, the 50 floats
either side of +-sqrt(2) (where ndtr switches between erf and erfc), a band
of 0.01 around them, and the far tails. Regenerate with

    python tests/make_ndtr_reference.py

(needs mpmath); the output is deterministic.
"""

import json
from pathlib import Path

import mpmath
import numpy as np

PLACES = 40


def grid():
    root2 = np.sqrt(2.0)
    return np.concatenate([np.linspace(-40.0, 40.0, 2001)]
                          + [s * root2 + np.arange(-50, 51) * np.spacing(root2) for s in (-1, 1)]
                          + [s * root2 + np.linspace(-0.01, 0.01, 101) for s in (-1, 1)]
                          + [[-1e10, -1e3, -38.4, -37.5, 8.3, 9.0, 1e3, 1e10]])


def fixed(v):
    """v in [0, 1] as a decimal string with PLACES digits after the point."""
    q = int(mpmath.nint(v * 10 ** PLACES))
    return "%d.%0*d" % (q // 10 ** PLACES, PLACES, q % 10 ** PLACES)


def main():
    mpmath.mp.dps = 60
    points = [[float(u), fixed(mpmath.ncdf(mpmath.mpf(float(u))))] for u in grid()]
    out = Path(__file__).with_name("ndtr_reference.json")
    rows = ",\n".join(json.dumps(point) for point in points)
    out.write_text('{"places": %d, "points": [\n%s\n]}\n' % (PLACES, rows))


if __name__ == "__main__":
    main()
