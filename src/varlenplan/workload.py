"""Variable-length sequence batches and synthetic length-distribution sampling."""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SequenceBatch:
    """One training iteration's sequences as (id, length) pairs."""

    sequences: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ids = [sid for sid, _ in self.sequences]
        if len(ids) != len(set(ids)):
            raise ValueError("sequence ids must be unique")
        for sid, length in self.sequences:
            if length < 1:
                raise ValueError(f"sequence {sid} has non-positive length {length}")

    @property
    def total_tokens(self) -> int:
        return sum(length for _, length in self.sequences)

    @property
    def lengths(self) -> dict[int, int]:
        return dict(self.sequences)

    def __len__(self) -> int:
        return len(self.sequences)


@dataclass(frozen=True)
class LengthDistribution:
    """Sequence-length histogram: (lo, hi, probability) bins over half-open
    token ranges, ordered and non-overlapping, probabilities summing to 1."""

    bins: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        prev_hi = 0
        total = 0.0
        for lo, hi, p in self.bins:
            if lo >= hi:
                raise ValueError(f"empty bin [{lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("bins must be ordered and non-overlapping")
            if not math.isfinite(p):
                raise ValueError("bin probabilities must be finite")
            if p < 0:
                raise ValueError("bin probabilities must be >= 0")
            prev_hi = hi
            total += p
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"bin probabilities sum to {total}, expected 1")

    @classmethod
    def normalized(cls, bins: list[tuple[int, int, float]]) -> "LengthDistribution":
        total = sum(p for _, _, p in bins)
        if total <= 0:
            raise ValueError("total probability mass must be > 0")
        return cls(tuple((lo, hi, p / total) for lo, hi, p in bins))


# Length-bin edges (tokens): <1k, then power-of-two bins up to 256k.
BIN_EDGES = [1, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144]

# Per-bin sequence mass for the three bundled long-context corpora. The
# github row is published with mass 0.945 and is renormalized to 1 here.
_PRESET_MASSES = {
    "arxiv": [0.032, 0.03, 0.08, 0.219, 0.338, 0.224, 0.077, 0.0, 0.0],
    "github": [0.0, 0.34, 0.095, 0.104, 0.107, 0.102, 0.088, 0.064, 0.045],
    "prolong64k": [0.231, 0.042, 0.021, 0.012, 0.013, 0.008, 0.673, 0.0, 0.0],
}

PRESET_NAMES = tuple(sorted(_PRESET_MASSES))


def preset(name: str) -> LengthDistribution:
    """Return a bundled length distribution: one of arxiv, github, prolong64k."""
    if name not in _PRESET_MASSES:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    masses = _PRESET_MASSES[name]
    bins = [
        (BIN_EDGES[i], BIN_EDGES[i + 1], masses[i])
        for i in range(len(masses))
    ]
    return LengthDistribution.normalized(bins)


def sample_batch(dist: LengthDistribution, target_total: int, seed: int) -> SequenceBatch:
    """Draw sequences (bin by probability, length uniform within the bin)
    until the running total reaches target_total; the final sequence is
    truncated so total_tokens == target_total exactly.

    A bin is the first normalized cumulative mass above one uniform draw,
    which is the draw Generator.choice(len(p), p=p) makes, so batches match
    that sampler's for the same seed. Deterministic for a fixed (dist,
    target_total, seed).
    """
    if isinstance(target_total, bool) or not isinstance(target_total, (int, np.integer)):
        raise ValueError("target_total must be an integer")
    if target_total < 0:
        raise ValueError("target_total must be >= 0")
    if target_total == 0:
        return SequenceBatch(())
    rng = np.random.default_rng(seed)
    cumulative = np.cumsum([p for _, _, p in dist.bins])
    cdf = (cumulative / cumulative[-1]).tolist()
    bounds = [(lo, hi) for lo, hi, _ in dist.bins]
    sequences: list[tuple[int, int]] = []
    total = 0
    while total < target_total:
        lo, hi = bounds[bisect.bisect_right(cdf, rng.random())]
        length = min(int(rng.integers(lo, hi)), target_total - total)
        sequences.append((len(sequences), length))
        total += length
    return SequenceBatch(tuple(sequences))


def save_batch(path: str, batch: SequenceBatch) -> None:
    payload = [{"id": sid, "len": length} for sid, length in batch.sequences]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_batch(path: str) -> SequenceBatch:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list):
        raise ValueError("batch file must contain a JSON array of {id, len} objects")
    sequences = []
    for entry in payload:
        try:
            sequence = (entry["id"], entry["len"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed batch entry {entry!r}: expected keys 'id' and 'len'") from exc
        if len(entry) != 2:
            raise ValueError(f"malformed batch entry {entry!r}: expected keys 'id' and 'len' only")
        # json gives int for integers only; bool is not one. A plan's table holds int64.
        if any(type(value) is not int or not -2**63 <= value < 2**63 for value in sequence):
            raise ValueError(f"malformed batch entry {entry!r}: 'id' and 'len' must be integers that fit in 64 bits")
        sequences.append(sequence)
    return SequenceBatch(tuple(sequences))
