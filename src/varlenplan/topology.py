"""Cluster description and cost-model parameters.

All communication costs are expressed as seconds per KV token moved: the
hidden size, dtype width and the K+V factor are folded into a single
inverse-bandwidth coefficient. Compute cost is expressed as seconds per
visible (query, key) pair for attention and seconds per token for the
linear modules.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

# Bytes moved per KV token: 2 tensors (K and V) x 4096 hidden x 2-byte dtype.
KV_BYTES_PER_TOKEN = 16384


class ConfigError(ValueError):
    """Raised for malformed cluster config files or invalid parameter values."""


def _require_finite(spec, names: tuple[str, ...]) -> None:
    """Costs must be finite: an infinite coefficient turns a zero-token leg
    into nan (inf * 0) and the step times into inf or nan."""
    for name in names:
        if not math.isfinite(getattr(spec, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class ClusterSpec:
    """Node/GPU/NIC topology and link cost coefficients.

    inv_bw_intra / inv_bw_inter are seconds per KV token over one intra-node
    link / one inter-node path. backward_multiplier scales both compute and
    communication durations for the backward pass.
    """

    num_nodes: int
    gpus_per_node: int
    token_capacity: int
    inv_bw_intra: float
    inv_bw_inter: float
    nics_per_node: int = 1
    backward_multiplier: float = 2.0

    def __post_init__(self) -> None:
        _require_finite(self, ("inv_bw_intra", "inv_bw_inter", "backward_multiplier"))
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.gpus_per_node < 1:
            raise ConfigError("gpus_per_node must be >= 1")
        if self.token_capacity < 1:
            raise ConfigError("token_capacity must be >= 1")
        if self.nics_per_node < 1:
            raise ConfigError("nics_per_node must be >= 1")
        if not self.inv_bw_intra > 0:
            raise ConfigError("inv_bw_intra must be > 0")
        if self.inv_bw_inter < self.inv_bw_intra:
            raise ConfigError("inv_bw_inter must be >= inv_bw_intra")
        if self.backward_multiplier < 0:
            raise ConfigError("backward_multiplier must be >= 0")

    @property
    def num_ranks(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def ranks_of_node(self, node: int) -> range:
        base = node * self.gpus_per_node
        return range(base, base + self.gpus_per_node)


@dataclass(frozen=True)
class CostCoefficients:
    """Compute cost knobs: attn_quadratic is seconds per visible causal
    (q, k) pair, linear_per_token is seconds per token through the linear
    modules. Both are calibration parameters, not derived from any GPU SKU.
    """

    attn_quadratic: float
    linear_per_token: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, ("attn_quadratic", "linear_per_token"))
        if not self.attn_quadratic > 0:
            raise ConfigError("attn_quadratic must be > 0")
        if self.linear_per_token < 0:
            raise ConfigError("linear_per_token must be >= 0")


def zone_boundaries(cluster: ClusterSpec, coeffs: CostCoefficients) -> tuple[float, float]:
    """Advisory sequence-length thresholds where per-device attention compute
    stops hiding intra-node (first value) and inter-node (second value)
    communication.

    Intersection of alpha*s^2/P with b_intra*s gives s = P*b_intra/alpha;
    intersection of alpha*s^2/(N*P) with b_inter*s gives s = N*P*b_inter/alpha.
    The operative placement thresholds come from the partitioner's capacity
    iteration; these closed forms are for reporting and sanity checks.
    """
    alpha = coeffs.attn_quadratic
    s_local_max = cluster.gpus_per_node * cluster.inv_bw_intra / alpha
    s_intra_max = cluster.num_ranks * cluster.inv_bw_inter / alpha
    return s_local_max, s_intra_max


def direct_transfer_time(cluster: ClusterSpec, n: int | float, scope: str) -> float:
    """Seconds to move n KV tokens over one direct link of the given scope."""
    if n < 0:
        raise ValueError("token count must be >= 0")
    if scope == "intra":
        return cluster.inv_bw_intra * n
    if scope == "inter":
        return cluster.inv_bw_inter * n
    raise ValueError(f"unknown scope {scope!r} (expected 'intra' or 'inter')")


def inv_bw_from_bandwidth(bytes_per_second: float) -> float:
    """Translate a link bandwidth into seconds per KV token."""
    if not bytes_per_second > 0:
        raise ConfigError("bandwidth must be > 0")
    return KV_BYTES_PER_TOKEN / bytes_per_second


def cluster_a(num_nodes: int = 2, token_capacity: int = 8192) -> tuple[ClusterSpec, CostCoefficients]:
    """Built-in preset: 8-GPU nodes with a 400 GB/s intra-node fabric and
    4 NICs of 200 Gb/s each (one inter-node path per NIC at 25 GB/s).

    token_capacity defaults to 8192 so a 64k-token batch on two nodes has
    placement headroom; the compute coefficients are loose calibrations for
    an A800-class device, which a deployment overrides in its config file.
    """
    cluster = ClusterSpec(
        num_nodes=num_nodes,
        gpus_per_node=8,
        token_capacity=token_capacity,
        inv_bw_intra=inv_bw_from_bandwidth(400e9),
        inv_bw_inter=inv_bw_from_bandwidth(200e9 / 8),
        nics_per_node=4,
    )
    coeffs = CostCoefficients(attn_quadratic=1.2e-10, linear_per_token=2.0e-6)
    return cluster, coeffs


# Config file key -> (dataclass, field), in field order: each key is its
# field's name, but for nodes. field.type is the annotation's text, 'int' or
# 'float'; a field without a default is a required key.
_CONFIG_KEYS = {
    ("nodes" if f.name == "num_nodes" else f.name): (spec, f)
    for spec in (ClusterSpec, CostCoefficients)
    for f in fields(spec)
}


def parse_cluster_config(text: str) -> tuple[ClusterSpec, CostCoefficients]:
    """Parse a `key = value` cluster config (see save_cluster_config for keys).

    Lines starting with '#' and blank lines are ignored. Unknown or repeated
    keys and unparseable values raise ConfigError naming the offending key.
    """
    values: dict[str, int | float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: key '{key}' is set twice")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        parse, expected = (int, "an integer") if _CONFIG_KEYS[key][1].type == "int" else (float, "a number")
        try:
            values[key] = parse(val)
        except ValueError:
            raise ConfigError(f"key '{key}': expected {expected}, got {val!r}") from None
    for key, (_, f) in _CONFIG_KEYS.items():
        if key not in values and f.default is MISSING:
            raise ConfigError(f"missing required config key '{key}'")
    # a key left out takes the field's default, which only the dataclass states
    kwargs: dict[type, dict[str, int | float]] = {ClusterSpec: {}, CostCoefficients: {}}
    for key, value in values.items():
        spec, f = _CONFIG_KEYS[key]
        kwargs[spec][f.name] = value
    return ClusterSpec(**kwargs[ClusterSpec]), CostCoefficients(**kwargs[CostCoefficients])


def load_cluster_config(path: str) -> tuple[ClusterSpec, CostCoefficients]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cluster_config(fh.read())


def save_cluster_config(path: str, cluster: ClusterSpec, coeffs: CostCoefficients) -> None:
    objects = {ClusterSpec: cluster, CostCoefficients: coeffs}
    lines = []
    for key, (spec, f) in _CONFIG_KEYS.items():
        value = getattr(objects[spec], f.name)
        lines.append(f"{key} = {value}" if f.type == "int" else f"{key} = {value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def resolve_cluster(name_or_path: str) -> tuple[ClusterSpec, CostCoefficients]:
    """Accept either the literal preset name 'cluster_a' or a config file path."""
    if name_or_path == "cluster_a":
        return cluster_a()
    return load_cluster_config(name_or_path)
