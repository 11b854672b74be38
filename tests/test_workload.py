import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import reference_sample_batch
from varlenplan.workload import (
    BIN_EDGES,
    PRESET_NAMES,
    LengthDistribution,
    SequenceBatch,
    load_batch,
    preset,
    sample_batch,
    save_batch,
)


def _bin_prob(dist, lo):
    return next(p for (b_lo, _, p) in dist.bins if b_lo == lo)


def test_preset_bin_masses():
    arxiv = preset("arxiv")
    assert _bin_prob(arxiv, 8192) == pytest.approx(0.338)
    prolong = preset("prolong64k")
    assert _bin_prob(prolong, 32768) == pytest.approx(0.673)
    github = preset("github")
    assert _bin_prob(github, 1) == 0.0


def test_github_masses_are_renormalized():
    github = preset("github")
    assert sum(p for _, _, p in github.bins) == pytest.approx(1.0, abs=1e-12)
    # raw masses sum to 0.945; renormalization scales each bin up
    assert _bin_prob(github, 1024) == pytest.approx(0.34 / 0.945)


def test_unknown_preset():
    with pytest.raises(ValueError, match="wikipedia"):
        preset("wikipedia")


def test_sampling_is_deterministic():
    dist = preset("arxiv")
    a = sample_batch(dist, 65536, seed=7)
    b = sample_batch(dist, 65536, seed=7)
    assert a == b
    c = sample_batch(dist, 65536, seed=8)
    assert a != c


def test_sampling_conserves_target_exactly():
    dist = preset("github")
    for seed in range(20):
        batch = sample_batch(dist, 50000, seed=seed)
        assert batch.total_tokens == 50000
        assert all(ln >= 1 for _, ln in batch.sequences)


def test_zero_target_yields_empty_batch():
    batch = sample_batch(preset("arxiv"), 0, seed=1)
    assert len(batch) == 0 and batch.total_tokens == 0


def test_bin_frequencies_converge_to_preset():
    # a single large batch gives >= 1000 draws with only one truncated tail
    dist = preset("arxiv")
    batch = sample_batch(dist, 16_000_000, seed=7)
    lengths = [ln for _, ln in batch.sequences]
    assert len(lengths) >= 1000
    # bin i holds BIN_EDGES[i] <= length < BIN_EDGES[i + 1]
    bins = np.searchsorted(BIN_EDGES, lengths, side="right") - 1
    freqs = np.bincount(bins, minlength=len(dist.bins)) / len(lengths)
    for (lo, hi, p), f in zip(dist.bins, freqs):
        assert abs(f - p) <= 0.05, f"bin [{lo},{hi}) frequency {f} vs mass {p}"


def test_batch_validation():
    with pytest.raises(ValueError):
        SequenceBatch(((0, 5), (0, 6)))  # duplicate id
    with pytest.raises(ValueError):
        SequenceBatch(((0, 0),))  # empty sequence


def test_distribution_validation():
    with pytest.raises(ValueError):
        LengthDistribution(((1, 10, 0.5), (5, 20, 0.5)))  # overlap
    with pytest.raises(ValueError):
        LengthDistribution(((1, 10, 0.7),))  # mass != 1
    with pytest.raises(ValueError):
        LengthDistribution(((10, 10, 1.0),))  # empty bin


@pytest.mark.parametrize("build, message", [
    (lambda: LengthDistribution(((1, 10, -0.5), (10, 20, 1.5))), "bin probabilities must be >= 0"),
    (lambda: LengthDistribution.normalized([(1, 10, 0.0), (10, 20, 0.0)]), "total probability mass must be > 0"),
    (lambda: LengthDistribution(((1, 10, math.nan), (10, 20, 1.0))), "bin probabilities must be finite"),
    (lambda: LengthDistribution.normalized([(1, 10, math.nan), (10, 20, 1.0)]), "bin probabilities must be finite"),
    (lambda: LengthDistribution.normalized([(1, 10, math.inf), (10, 20, 1.0)]), "bin probabilities must be finite"),
    (lambda: sample_batch(preset("arxiv"), -1, seed=0), "target_total must be >= 0"),
    (lambda: sample_batch(preset("arxiv"), 1000.5, seed=3), "target_total must be an integer"),
    (lambda: sample_batch(preset("arxiv"), True, seed=3), "target_total must be an integer"),
], ids=["negative_probability", "zero_mass", "nan_probability", "nan_mass", "infinite_mass", "negative_total",
        "float_total", "bool_total"])
def test_input_checks_raise_value_errors(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@st.composite
def distributions(draw):
    """1-9 ordered bins, 1 to 1e5 tokens wide with gaps of up to 1e5
    between them; any bin may carry zero mass, but not every bin."""
    n = draw(st.integers(1, 9))
    bins = []
    lo = draw(st.integers(1, 100_000))
    for _ in range(n):
        hi = lo + draw(st.integers(1, 100_000))
        mass = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
        bins.append((lo, hi, mass))
        lo = hi + draw(st.integers(0, 100_000))
    if not any(mass for _, _, mass in bins):
        i = draw(st.integers(0, n - 1))
        bins[i] = (*bins[i][:2], 1.0)
    return LengthDistribution.normalized(bins)


def _zero_mass_at(where: int) -> LengthDistribution:
    bins = [(1, 10, 0.2), (10, 100, 0.3), (100, 1000, 0.5)]
    bins[where] = (*bins[where][:2], 0.0)
    return LengthDistribution.normalized(bins)


@given(distributions(), st.integers(0, 2**20), st.integers(0, 2**32))
@example(_zero_mass_at(0), 50_000, 11)
@example(_zero_mass_at(1), 50_000, 12)
@example(_zero_mass_at(2), 50_000, 13)
def test_sampling_matches_the_choice_reference(dist, total, seed):
    # at most about 2,000 draws an example: the choice reference is slow
    mean = sum(p * (lo + hi - 1) / 2 for lo, hi, p in dist.bins)
    total = min(total, int(2000 * mean))
    assert sample_batch(dist, total, seed) == reference_sample_batch(dist, total, seed)


def test_a_draw_on_a_cumulative_edge_takes_the_bin_above():
    # the first uniform of the seed is exactly bin 0's cumulative mass
    u = np.random.default_rng(5).random()
    dist = LengthDistribution(((1, 2, u), (2, 3, 1.0 - u)))
    batch = sample_batch(dist, 2, 5)
    assert batch.sequences == ((0, 2),)
    assert batch == reference_sample_batch(dist, 2, 5)


def test_bins_follow_the_normalized_cumulative_masses():
    # masses summing to 1 + 8e-10: the first uniform lies below bin 0's raw
    # cumulative mass but not below its normalized one
    u = np.random.default_rng(5).random()
    p0 = u * (1 + 4e-10)
    p1 = 1 + 8e-10 - p0
    assert p0 > u >= p0 / (p0 + p1)
    dist = LengthDistribution(((1, 2, p0), (2, 3, p1)))
    batch = sample_batch(dist, 2, 5)
    assert batch.sequences == ((0, 2),)
    assert batch == reference_sample_batch(dist, 2, 5)


def test_preset_batches_are_pinned():
    digest = hashlib.sha256()
    for name in PRESET_NAMES:
        dist = preset(name)
        for total in (65_536, 262_144):
            for seed in range(50):
                digest.update(f"{name} {total} {seed} {sample_batch(dist, total, seed).sequences}\n".encode())
    assert digest.hexdigest() == "c13e1f9a8fc4cb5b8fcfaff722ca0430bc47758a7a10c4ae80d8e25fe06d745a"


def test_batch_json_round_trip(tmp_path):
    batch = sample_batch(preset("prolong64k"), 30000, seed=3)
    path = tmp_path / "batch.json"
    save_batch(str(path), batch)
    assert load_batch(str(path)) == batch


def test_batch_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('[{"id": 0}]')
    with pytest.raises(ValueError, match="len"):
        load_batch(str(path))
    path.write_text('{"not": "a list"}')
    with pytest.raises(ValueError):
        load_batch(str(path))


@pytest.mark.parametrize("entry", [
    '{"id": 0, "len": 10.7}',
    '{"id": 0, "len": 12.0}',
    '{"id": true, "len": 10}',
    '{"id": 0, "len": false}',
    '{"id": 0, "len": "12"}',
    '{"id": "0", "len": 12}',
    '{"id": null, "len": 12}',
    '{"id": 0, "len": [12]}',
    '{"id": 9223372036854775808, "len": 5}',
    '{"id": -9223372036854775809, "len": 5}',
    '{"id": 0, "len": 9223372036854775808}',
], ids=["float_len", "integral_float_len", "bool_id", "bool_len", "string_len", "string_id", "null_id",
        "list_len", "id_beyond_64_bits", "id_below_64_bits", "len_beyond_64_bits"])
def test_batch_json_rejects_non_integer_values(tmp_path, entry):
    path = tmp_path / "bad.json"
    path.write_text(f"[{entry}]")
    with pytest.raises(ValueError, match="malformed batch entry .* must be integers"):
        load_batch(str(path))


def test_batch_json_accepts_the_64_bit_extremes(tmp_path):
    path = tmp_path / "batch.json"
    path.write_text('[{"id": 9223372036854775807, "len": 5}, {"id": -9223372036854775808, "len": 3}]')
    assert load_batch(str(path)).sequences == ((2**63 - 1, 5), (-2**63, 3))


def test_batch_json_rejects_entries_that_are_not_objects(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("[[0, 12]]", '["ab"]', "[7]"):
        path.write_text(text)
        with pytest.raises(ValueError, match="malformed batch entry"):
            load_batch(str(path))


def test_batch_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    for text in ('[{"id": 0, "len": 12, "dataset": "arxiv"}]', '[{"id": 0, "len": 12}, {"id": 1, "len": 3, "": 0}]'):
        path.write_text(text)
        with pytest.raises(ValueError, match="malformed batch entry .* expected keys 'id' and 'len' only"):
            load_batch(str(path))
