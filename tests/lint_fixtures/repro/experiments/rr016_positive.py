"""RR016 positive fixture: tree construction bypassing the registry."""

from repro.graph.paths import bfs
from repro.multicast.tree import build_delivery_tree


def one_spt_tree(graph, source, receivers):
    forest = bfs(graph, source, tie_break="first")
    return build_delivery_tree(forest, receivers)  # expect: RR016


def aliased_module_call(graph, source, receivers):
    import repro.multicast.tree as tree

    forest = bfs(graph, source, tie_break="first")
    return tree.build_delivery_tree(forest, receivers)  # expect: RR016
