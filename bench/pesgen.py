"""Seeded synthetic quartic force fields for the benchmark.

Each mode gets a harmonic frequency, a Q^3 term and a Q^4 term; each mode
pair gets Q*Q, Q^2*Q^2 and Q*Q^3 couplings; v0 is 0.  Every coefficient is
a fixed base value times a seeded factor in [1 - JITTER, 1 + JITTER], so
that all seeds give molecules of the same make-up and about the same
numerical difficulty.  Energies are in cm^-1.
"""

from __future__ import annotations

import json

import numpy as np

BASE_FREQUENCIES = (1150.0, 1480.0, 1720.0, 2260.0, 2940.0)
CUBIC_SCALE = -0.012      # Q_l^3 coefficient / w_l
QUARTIC_SCALE = 0.0020    # Q_l^4 coefficient / w_l
PAIR_QQ = 22.0            # Q_l Q_m
PAIR_Q2Q2 = 3.2           # Q_l^2 Q_m^2
PAIR_QQ3 = -1.9           # Q_l Q_m^3
JITTER = 0.05


def make_pes(num_modes: int, seed: int) -> dict:
    """PES file contents (the vibriq JSON format) for one seed."""
    if not 1 <= num_modes <= len(BASE_FREQUENCIES):
        raise ValueError(f"num_modes must be in [1, {len(BASE_FREQUENCIES)}]")
    rng = np.random.default_rng([seed, num_modes])

    def jitter() -> float:
        return 1.0 + JITTER * rng.uniform(-1.0, 1.0)

    freqs = [w * jitter() for w in BASE_FREQUENCIES[:num_modes]]
    terms = []
    for l, w in enumerate(freqs):
        terms.append({"coeff": CUBIC_SCALE * w * jitter(), "powers": {str(l): 3}})
        terms.append({"coeff": QUARTIC_SCALE * w * jitter(), "powers": {str(l): 4}})
    for l in range(num_modes):
        for m in range(l + 1, num_modes):
            terms.append({"coeff": PAIR_QQ * jitter(),
                          "powers": {str(l): 1, str(m): 1}})
            terms.append({"coeff": PAIR_Q2Q2 * jitter(),
                          "powers": {str(l): 2, str(m): 2}})
            terms.append({"coeff": PAIR_QQ3 * jitter(),
                          "powers": {str(l): 1, str(m): 3}})
    return {"num_modes": num_modes, "units": "cm-1", "frequencies": freqs,
            "v0": 0.0, "terms": terms}


def write_pes(path, num_modes: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(make_pes(num_modes, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
