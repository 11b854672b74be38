"""Synthetic batches from real length distributions.

The three bundled presets reproduce the published per-bin sequence masses of
long-context corpora. Sampling draws a bin by mass, a length uniformly inside
it, and truncates the final draw so the batch hits the requested token total
exactly.
"""

import numpy as np

from varlenplan import preset, sample_batch
from varlenplan.workload import BIN_EDGES, PRESET_NAMES

for name in PRESET_NAMES:
    dist = preset(name)
    print(f"\n{name}:")
    for lo, hi, p in dist.bins:
        if p > 0:
            bar = "#" * round(60 * p)
            print(f"  [{lo:>6}, {hi:>6}) {p:6.3f} {bar}")

print("\nsampling a 64k-token batch from each preset (seed 7):")
for name in PRESET_NAMES:
    batch = sample_batch(preset(name), 65536, seed=7)
    lengths = sorted((ln for _, ln in batch.sequences), reverse=True)
    print(f"  {name:<12} {len(batch):>3} sequences, total {batch.total_tokens}, "
          f"longest {lengths[:3]}")

print("\nempirical vs nominal bin mass over one large arxiv batch:")
dist = preset("arxiv")
big = sample_batch(dist, 16_000_000, seed=1)
# bin i holds BIN_EDGES[i] <= length < BIN_EDGES[i + 1]
bins = np.searchsorted(BIN_EDGES, [ln for _, ln in big.sequences], side="right") - 1
freqs = np.bincount(bins, minlength=len(dist.bins)) / len(big)
for (lo, hi, p), f in zip(dist.bins, freqs):
    if p > 0 or f > 0:
        print(f"  [{lo:>6}, {hi:>6})  nominal {p:6.3f}  sampled {f:6.3f}")
