#!/usr/bin/env python3
"""Draw random function curves from GP priors.

Each panel fixes a (output scale, length scale, noise) triple for the
Matern-5/2 kernel and draws a few sample paths, showing how the three
numbers shape a series: amplitude, wiggliness, and measurement grit. This is
the intuition behind shipping only (sigma_f, sigma_l, sigma_n) between nodes:
three numbers already pin down what the traffic at a sensor "looks like".
"""

import numpy as np

from gptdf import GPModel, Matern52, sample_prior

SETTINGS = [
    # (output_scale, length_scale, noise_std)
    (np.sqrt(0.5), 0.2, 0.0),
    (np.sqrt(1.5), 0.2, 0.0),
    (np.sqrt(0.5), 1.0, 0.0),
    (np.sqrt(0.5), 0.2, 2.0),
]

ts = np.linspace(0.0, 2.0, 200)
ts = ts + np.arange(ts.size) * 1e-9  # strictly increasing guard

draws = {}
for h, lam, noise in SETTINGS:
    model = GPModel(Matern52(h, lam), noise_std=noise)
    draws[(h, lam, noise)] = [sample_prior(model, ts, seed) for seed in range(4)]
    spread = np.std(np.concatenate(draws[(h, lam, noise)]))
    print(f"output_scale={h:.3f} length_scale={lam:.1f} noise={noise:.1f}: "
          f"4 draws, empirical spread {spread:.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 2, figsize=(9, 5), sharex=True)
    for ax, (key, paths) in zip(axes.ravel(), draws.items()):
        h, lam, noise = key
        for path in paths:
            ax.plot(ts, path, lw=1)
        ax.set_title(f"scale²={h**2:.1f}, length scale={lam}, noise={noise}")
    fig.tight_layout()
    fig.savefig("prior_samples.png", dpi=120)
    print("wrote prior_samples.png")
except ImportError:
    print("matplotlib not installed; skipped the figure")
