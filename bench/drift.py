"""Spread of a fixed numpy kernel, to tell machine drift from a change.

    python3 bench/drift.py [--samples 40]

The kernel applies 200 single-qubit 2x2 matrices by einsum to a fixed
(500, 64) complex stack, the operation the noisy batch repeats, on one
BLAS thread.  It does not depend on vibriq, so its spread across back-to-
back samples is the box's own.  Prints the quartiles and extremes in
seconds and the quartile spread as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=40)
    args = parser.parse_args()
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    import numpy as np

    rng = np.random.default_rng(0)
    stack = rng.normal(size=(500, 64)) + 1j * rng.normal(size=(500, 64))
    mat = np.array([[0.6, 0.8j], [0.8j, 0.6]])

    def kernel():
        amps = stack
        for step in range(200):
            q = step % 6
            view = amps.reshape(500, 1 << (5 - q), 2, 1 << q)
            amps = np.einsum("ij,bhjl->bhil", mat, view).reshape(500, 64)
        return amps

    kernel()
    times = []
    for _ in range(args.samples):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    print(json.dumps({"samples": args.samples, "min": min(times), "q1": q1,
                      "median": median, "q3": q3, "max": max(times),
                      "spread": (q3 - q1) / median}))


if __name__ == "__main__":
    main()
