"""Reference load: a fixed job that uses nothing from bridgebound.

    python3 perfbench/refload.py

``run.py`` runs it in a fresh interpreter after every iteration it measures,
and scales the iteration's times by its wall time, so the speed of a shared
host, which drifts by tens of percent within minutes, cancels out of the
end-to-end metrics while a change to bridgebound does not: this job runs
none of its code. It does what the CLI commands spend their time on, in
about 0.35 s at nominal speed: interpreter start and the numpy import, numpy
calls on small arrays, pure-Python loops over a dict, and elementwise work on
a 200k-element vector.
"""

import numpy as np


def main() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    small = rng.random((3, 4))
    for i in range(6000):
        acc += float((small * (i % 5)).sum() / (small.max() + 1.0))
    table = {}
    for i in range(150_000):
        table[i & 1023] = table.get(i & 1023, 0.0) + i * 0.5
    x = rng.standard_normal(200_000)
    for _ in range(8):
        acc += float(np.exp(-0.5 * x * x).sum())
    return acc + sum(table.values())


if __name__ == "__main__":
    main()
