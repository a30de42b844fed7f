"""Multicast engine: delivery trees, unicast baseline, sampling, affinity."""

from repro.multicast.affinity import (
    AffinityEstimate,
    AffinitySampler,
    DistanceOracle,
    KaryDistanceOracle,
    MatrixDistanceOracle,
    extreme_placement,
    sample_weighted_tree_size,
)
from repro.multicast.dynamics import ChurnStats, DynamicGroup
from repro.multicast.popularity import (
    effective_sites,
    sample_popular_receivers,
    zipf_site_weights,
)
from repro.multicast.sampling import (
    eligible_sites,
    sample_distinct_receivers,
    sample_distinct_receivers_sweep,
    sample_receivers_with_replacement,
    sample_receivers_with_replacement_sweep,
)
from repro.multicast.builders import (
    BUILDER_NAMES,
    BuilderSpec,
    RedundantTreeSet,
    build_redundant_set,
    build_tree,
    builder_spec,
    count_tree_links,
)
from repro.multicast.shared_tree import (
    SharedTreeCost,
    select_core,
    shared_tree_cost,
)
from repro.multicast.tree import DeliveryTree, MulticastTreeCounter, build_delivery_tree
from repro.multicast.unicast import UnicastCost, unicast_cost
from repro.multicast.weighted import WeightedTreeCost, weighted_tree_cost

__all__ = [
    "AffinityEstimate",
    "AffinitySampler",
    "DistanceOracle",
    "KaryDistanceOracle",
    "MatrixDistanceOracle",
    "extreme_placement",
    "sample_weighted_tree_size",
    "eligible_sites",
    "sample_distinct_receivers",
    "sample_distinct_receivers_sweep",
    "sample_receivers_with_replacement",
    "sample_receivers_with_replacement_sweep",
    "DeliveryTree",
    "MulticastTreeCounter",
    "build_delivery_tree",
    "UnicastCost",
    "unicast_cost",
    "SharedTreeCost",
    "select_core",
    "shared_tree_cost",
    "WeightedTreeCost",
    "weighted_tree_cost",
    "ChurnStats",
    "DynamicGroup",
    "effective_sites",
    "sample_popular_receivers",
    "zipf_site_weights",
    "BUILDER_NAMES",
    "BuilderSpec",
    "RedundantTreeSet",
    "build_redundant_set",
    "build_tree",
    "builder_spec",
    "count_tree_links",
]
