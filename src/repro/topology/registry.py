"""The named topology suite of Table 1.

``build_topology(name)`` constructs any of the eight networks the paper
evaluates (or their documented stand-ins — see DESIGN.md §2), cleaned and
connected, at either paper scale or a reduced ``scale`` for quick runs.

The suite:

========  =================================  ========================
name      generator                          paper description
========  =================================  ========================
arpa      :func:`repro.topology.arpanet`     original ARPANET, 47 nodes
mbone     :func:`mbone_like_graph`           SCAN MBone map
internet  :func:`internet_like_graph`        SCAN router map (56k nodes)
as        :func:`as_like_graph`              NLANR AS map
r100      :func:`pure_random_graph`          GT-ITM flat random, 100 nodes
ts1000    :func:`transit_stub_graph`         GT-ITM transit-stub, ~1000
ts1008    :func:`transit_stub_graph`         GT-ITM transit-stub, dense
ti5000    :func:`tiers_graph`                TIERS, ~5000 nodes
========  =================================  ========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import TopologyError
from repro.graph.core import Graph
from repro.graph.ops import is_connected, largest_connected_component
from repro.topology.arpanet import arpanet
from repro.topology.gtitm import TransitStubParams, pure_random_graph, transit_stub_graph
from repro.topology.mbone import mbone_like_graph
from repro.topology.powerlaw import as_like_graph, internet_like_graph
from repro.topology.tiers import TiersParams, tiers_graph
from repro.topology.waxman import waxman_graph
from repro.utils.rng import RandomState, ensure_rng

__all__ = [
    "TopologySpec",
    "TOPOLOGY_NAMES",
    "EXTRA_TOPOLOGIES",
    "GENERATED_TOPOLOGIES",
    "REAL_TOPOLOGIES",
    "build_topology",
    "build_suite",
]


@dataclass(frozen=True)
class TopologySpec:
    """A named topology with its generator and descriptive metadata."""

    name: str
    kind: str  # "real" (measured-map stand-in) or "generated"
    description: str
    builder: Callable[[float, RandomState], Graph]

    def build(self, scale: float = 1.0, rng: RandomState = None) -> Graph:
        """Build the topology at ``scale`` (1.0 = paper scale)."""
        if scale <= 0:
            raise TopologyError(f"scale must be positive, got {scale}")
        return self.builder(scale, rng)


def _scaled(base: int, scale: float, minimum: int = 8) -> int:
    return max(minimum, int(round(base * scale)))


def _build_arpa(scale: float, rng: RandomState) -> Graph:
    # The ARPA map is a fixed historical artifact: it does not scale.
    return arpanet()


def _build_mbone(scale: float, rng: RandomState) -> Graph:
    return mbone_like_graph(num_nodes=_scaled(3_000, scale), rng=rng)


def _build_internet(scale: float, rng: RandomState) -> Graph:
    return internet_like_graph(num_nodes=_scaled(10_000, scale), rng=rng)


def _build_as(scale: float, rng: RandomState) -> Graph:
    return as_like_graph(num_nodes=_scaled(4_500, scale), rng=rng)


def _build_r100(scale: float, rng: RandomState) -> Graph:
    return pure_random_graph(
        num_nodes=_scaled(100, scale), average_degree=4.0, rng=rng
    )


def _ts_params(scale: float, dense: bool) -> TransitStubParams:
    stub_nodes = max(2, int(round(16 * scale)))
    if dense:
        return TransitStubParams(
            transit_domains=4,
            transit_nodes=5,
            stub_domains_per_transit_node=3,
            stub_nodes=stub_nodes,
            transit_edge_probability=0.8,
            stub_edge_probability=0.42,
            extra_transit_stub_edges=120,
            extra_stub_stub_edges=120,
        )
    return TransitStubParams(
        transit_domains=4,
        transit_nodes=5,
        stub_domains_per_transit_node=3,
        stub_nodes=stub_nodes,
        transit_edge_probability=0.6,
        stub_edge_probability=0.12,
        extra_transit_stub_edges=0,
        extra_stub_stub_edges=0,
    )


def _build_ts1000(scale: float, rng: RandomState) -> Graph:
    return transit_stub_graph(_ts_params(scale, dense=False), rng=rng)


def _build_ts1008(scale: float, rng: RandomState) -> Graph:
    return transit_stub_graph(_ts_params(scale, dense=True), rng=rng)


def _build_waxman(scale: float, rng: RandomState) -> Graph:
    # alpha/beta chosen for average degree ~4.5 at 400 nodes, the sparse
    # regime of the original Waxman evaluations.
    return waxman_graph(
        num_nodes=_scaled(400, scale), alpha=0.14, beta=0.095, rng=rng
    )


def _build_ti5000(scale: float, rng: RandomState) -> Graph:
    # Total nodes are dominated by num_mans × (man + LAN population), so
    # scaling num_mans alone keeps the node count roughly linear in scale.
    params = TiersParams(
        wan_nodes=_scaled(50, min(1.0, scale), minimum=8),
        num_mans=_scaled(33, scale, minimum=2),
        man_nodes=60,
        lans_per_man=10,
        lan_hosts=8,
        wan_redundancy=2,
        man_redundancy=2,
    )
    return tiers_graph(params, rng=rng)


_SPECS: Dict[str, TopologySpec] = {
    spec.name: spec
    for spec in (
        TopologySpec(
            "arpa", "real", "original ARPANET topology (47 nodes)", _build_arpa
        ),
        TopologySpec(
            "mbone", "real", "MBone overlay map stand-in (~3k nodes)", _build_mbone
        ),
        TopologySpec(
            "internet",
            "real",
            "router-level Internet map stand-in (~10k nodes)",
            _build_internet,
        ),
        TopologySpec(
            "as", "real", "AS connectivity map stand-in (~4.5k nodes)", _build_as
        ),
        TopologySpec(
            "r100", "generated", "GT-ITM flat random graph (100 nodes)", _build_r100
        ),
        TopologySpec(
            "ts1000",
            "generated",
            "GT-ITM transit-stub, sparse (~1000 nodes)",
            _build_ts1000,
        ),
        TopologySpec(
            "ts1008",
            "generated",
            "GT-ITM transit-stub, dense (~1000 nodes)",
            _build_ts1008,
        ),
        TopologySpec(
            "ti5000", "generated", "TIERS WAN/MAN/LAN (~5000 nodes)", _build_ti5000
        ),
        # Extras beyond Table 1 (kind "extra"): available by name but not
        # part of the paper's suite.
        TopologySpec(
            "waxman",
            "extra",
            "Waxman random graph (~400 nodes; the Chuang-Sirbu 'wax' family)",
            _build_waxman,
        ),
    )
}

#: The paper's Table-1 suite (extras like "waxman" are excluded).
TOPOLOGY_NAMES: Tuple[str, ...] = tuple(
    name for name, spec in _SPECS.items() if spec.kind != "extra"
)
EXTRA_TOPOLOGIES: Tuple[str, ...] = tuple(
    name for name, spec in _SPECS.items() if spec.kind == "extra"
)
GENERATED_TOPOLOGIES: Tuple[str, ...] = tuple(
    name for name, spec in _SPECS.items() if spec.kind == "generated"
)
REAL_TOPOLOGIES: Tuple[str, ...] = tuple(
    name for name, spec in _SPECS.items() if spec.kind == "real"
)


def build_topology(
    name: str, scale: float = 1.0, rng: RandomState = None
) -> Graph:
    """Build one of the Table-1 topologies by name.

    The result is always connected (generators bridge stray components)
    and deduplicated.  ``scale`` shrinks or grows the generated networks;
    the fixed ARPA map ignores it.

    Raises
    ------
    TopologyError
        For an unknown name.
    """
    key = name.lower()
    if key not in _SPECS:
        raise TopologyError(
            f"unknown topology {name!r}; available: "
            f"{', '.join((*TOPOLOGY_NAMES, *EXTRA_TOPOLOGIES))}"
        )
    graph = _SPECS[key].build(scale=scale, rng=ensure_rng(rng))
    # Belt and braces: experiments assume connectivity.  The check also
    # seeds the connectivity memo for the sweeps that follow.
    if is_connected(graph):
        return graph
    return largest_connected_component(graph)[0]


def build_suite(
    names: Optional[List[str]] = None,
    scale: float = 1.0,
    rng: RandomState = None,
) -> Dict[str, Graph]:
    """Build several named topologies with independent seeded streams."""
    from repro.utils.rng import spawn_rngs

    chosen = list(names) if names is not None else list(TOPOLOGY_NAMES)
    streams = spawn_rngs(rng, len(chosen))
    return {
        name: build_topology(name, scale=scale, rng=stream)
        for name, stream in zip(chosen, streams)
    }


def topology_spec(name: str) -> TopologySpec:
    """Look up the :class:`TopologySpec` for ``name``."""
    key = name.lower()
    if key not in _SPECS:
        raise TopologyError(
            f"unknown topology {name!r}; available: {', '.join(TOPOLOGY_NAMES)}"
        )
    return _SPECS[key]
