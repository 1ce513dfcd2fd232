"""``regret_and_residuals`` as it ran before it checked the log's columns as a
whole: one Python loop over the records checks each record's quality index,
bitrate and segment size in turn and copies its omega, or the one-hot
distribution of its choice, into the matrix row by row.  The package's
function must give the same series, the same ``one_hot_fallback`` and, on a
bad history, the same first error."""

from __future__ import annotations

import numbers

import numpy as np

from abrsim import ConvergenceSeries


def reference_regret_and_residuals(history, manifest, benchmark, segment_duration_s, b_max_s):
    t_total = len(history)
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    n = ladder.size
    if t_total == 0:
        empty = np.zeros(0)
        return ConvergenceSeries(empty if benchmark else None, empty, empty, False)
    if t_total > manifest.num_segments:
        raise ValueError("more epochs than manifest segments")

    levels = manifest.bitrates_kbps
    sizes = manifest.segment_sizes_kbit[:t_total]
    # indexing a flat memoryview of the sizes gives Python floats
    flat_sizes = memoryview(sizes.reshape(-1))
    omegas = np.zeros((t_total, n))
    rates_c = []
    fallback = False
    for idx, (t, x, bitrate, size, rate, _, _, _, _, _, _, omega) in enumerate(history):
        if not isinstance(x, numbers.Integral):
            raise ValueError(f"epoch {t}: quality index {x!r} is not an integer")
        if not 1 <= x <= n:
            raise ValueError(f"epoch {t}: quality index {x} outside 1..{n}")
        if bitrate != levels[x - 1]:
            raise ValueError(f"epoch {t}: r_kbps is {bitrate!r}; the manifest's bitrate"
                             f" at x_t={x} is {levels[x - 1]!r}")
        if size != flat_sizes[idx * n + x - 1]:
            raise ValueError(f"epoch {t}: size_kbit is {size!r}; the manifest's size"
                             f" at x_t={x} is {flat_sizes[idx * n + x - 1]!r}")
        if omega is None:
            omegas[idx, x - 1] = 1.0
            fallback = True
        else:
            omegas[idx] = omega
        rates_c.append(rate)

    rates_c = np.array(rates_c)
    expected_dl = np.einsum("tn,tn->t", sizes, omegas) / rates_c
    g1 = expected_dl - segment_duration_s
    g2 = segment_duration_s - expected_dl - b_max_s / t_total
    epochs = np.arange(1, t_total + 1)
    residual1 = np.cumsum(g1) / epochs
    residual2 = np.cumsum(g2) / epochs

    regret = None
    if benchmark is not None:
        star = float(ladder @ np.asarray(benchmark.omega_star))
        losses = -(omegas @ ladder)
        regret = (np.cumsum(losses) + epochs * star) / epochs

    return ConvergenceSeries(regret, residual1, residual2, fallback)
