"""Seeded input generators for the benchmark workloads.

Each generator writes one CSV in a schema the ``semest`` CLI reads and
depends only on numpy, never on the package under test.  The same
``(seed, index)`` pair always gives a byte-identical file.
"""

from __future__ import annotations

import numpy as np

# Leprosy-shaped case-control design for the ``wide-support`` workload: the
# bundled table's seven 5-year age bands and its pooled covariate mix, spread
# over 50 distinct ages, with the published slope magnitudes as the truth.
LEPROSY_BAND_AGES = (2.5, 7.5, 12.5, 17.5, 22.5, 27.5, 32.5)
# pooled (cases + controls) share of each (band, scar) cell of the bundled
# table, rows = bands, columns = scar 0 / scar 1
LEPROSY_BAND_MIX = (
    (25, 32),
    (33, 53),
    (51, 49),
    (21, 50),
    (29, 31),
    (53, 16),
    (68, 9),
)
WIDE = {
    "ages": 50,
    "age_range": (0.5, 34.5),
    "alpha": 2.0,
    "beta": (-0.3, -4.3),
    "cases": 1000,
    "controls": 1000,
}

# Normal discriminant design for the ``unit-long`` workload: covariates are
# N(0, I) among controls and N(beta, I) among cases, which makes
# P(case | x) exactly logistic with slope vector beta.
LONG = {
    "per_stratum": 5000,
    "beta": (0.5, -0.3, 0.2),
}


def _rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def transform_age(age):
    """The package's age covariate 100 / (age + 7.5)^2, restated here so the
    generator does not import the program under test."""
    return 100.0 / (np.asarray(age, dtype=float) + 7.5) ** 2


def wide_cells():
    """The 100 covariate cells (age, scar) and their population mass."""
    lo, hi = WIDE["age_range"]
    ages = np.round(np.linspace(lo, hi, WIDE["ages"]), 6)
    mix = np.asarray(LEPROSY_BAND_MIX, dtype=float)
    band = np.abs(ages[:, None] - np.asarray(LEPROSY_BAND_AGES)[None, :]).argmin(axis=1)
    per_band = np.bincount(band, minlength=len(LEPROSY_BAND_AGES))
    mass = mix[band] / per_band[band][:, None]  # (ages, 2)
    mass /= mass.sum()
    age = np.repeat(ages, 2)
    scar = np.tile([0, 1], len(ages))
    return age, scar, mass.reshape(-1)


def wide_support_csv(seed, index):
    """Grouped ``age,scar,cases,controls`` CSV text for dataset ``index``."""
    rng = _rng(seed, index)
    age, scar, g = wide_cells()
    b_scar, b_age = WIDE["beta"]
    eta = WIDE["alpha"] + b_scar * scar + b_age * transform_age(age)
    mu = 1.0 / (1.0 + np.exp(-eta))
    p_case = g * mu / np.sum(g * mu)
    p_control = g * (1.0 - mu) / np.sum(g * (1.0 - mu))
    cases = rng.multinomial(WIDE["cases"], p_case)
    controls = rng.multinomial(WIDE["controls"], p_control)
    lines = ["age,scar,cases,controls"]
    lines += [
        f"{a:.6g},{s},{c},{k}" for a, s, c, k in zip(age, scar, cases, controls)
    ]
    return "\n".join(lines) + "\n"


def unit_long_csv(seed, index):
    """Unit-row ``sample,y,x1,x2,x3`` CSV text for dataset ``index``."""
    rng = _rng(seed, index)
    m = LONG["per_stratum"]
    beta = np.asarray(LONG["beta"])
    controls = rng.standard_normal((m, len(beta)))
    cases = rng.standard_normal((m, len(beta))) + beta
    lines = ["sample,y,x1,x2,x3"]
    for sample, block in ((1, controls), (2, cases)):
        y = sample - 1
        lines += [f"{sample},{y}," + ",".join(f"{v:.17g}" for v in row) for row in block]
    return "\n".join(lines) + "\n"
