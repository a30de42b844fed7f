"""RR002 positive cases: mutating or leaking cached forest arrays."""

from repro.graph.forest_cache import default_forest_cache


def clobber_dist(graph):
    forest = default_forest_cache().forest(graph, 0)
    forest.dist[0] = 5  # expect: RR002
    return None


def augment_view(cache, graph):
    forest = cache.forest(graph, 1)
    dist = forest.dist
    dist += 1  # expect: RR002
    return None


def sort_in_place(cache, graph):
    parent = cache.forest(graph, 2).parent
    parent.sort()  # expect: RR002


def thaw(cache, graph):
    forest = cache.get(graph, 3)
    forest.parent.setflags(write=True)  # expect: RR002


def leak_view(cache, graph):
    forest = cache.forest(graph, 4)
    return forest.dist  # expect: RR002


def write_kept_table(cache, graph):
    forest = cache.forest(graph, 5)
    forest.preorder[1][0] = 0  # expect: RR002
