#!/usr/bin/env python3
"""Print the Gauss-Legendre constants block of src/semiclass/quadrature.py.

The block holds the rules of the orders that every run of
quadrature.gl_adaptive uses, as numpy.polynomial.legendre.leggauss gives
them: for each order, its positive nodes in ascending order and their
weights, written as 17-digit reprs (each reads back as the same double).
leggauss symmetrizes its rules, so mirroring the positive half rebuilds
the whole rule bit for bit.  Run from the repository root and paste the
output over the block between the marker comments:

    python tools/make_gl_rules.py
"""

import numpy as np

ORDERS = (16, 32)  # gl_adaptive's first two orders; no committed config reaches a higher one
PER_LINE = 3


def positive_half(n: int):
    """The nodes x >= 0 of leggauss(n), ascending, and their weights."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x[n // 2:].tolist(), w[n // 2:].tolist()


def _floats(values, indent: str) -> list:
    return [indent + " ".join(f"{v!r}," for v in values[i:i + PER_LINE])
            for i in range(0, len(values), PER_LINE)]


def block() -> str:
    lines = ["# BEGIN GL RULES (tools/make_gl_rules.py)", "_GL_RULES = {"]
    for n in ORDERS:
        x, w = positive_half(n)
        lines += [f"    {n}: (", "        ("]
        lines += _floats(x, " " * 12)
        lines += ["        ),", "        ("]
        lines += _floats(w, " " * 12)
        lines += ["        ),", "    ),"]
    lines += ["}", "# END GL RULES"]
    return "\n".join(lines)


if __name__ == "__main__":
    print(block())
