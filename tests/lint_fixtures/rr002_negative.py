"""RR002 negative cases: reads, copies, the escape hatch, private views."""

from repro.graph.forest_cache import default_forest_cache


def read_only(cache, graph, out):
    forest = cache.forest(graph, 0)
    out[0] = forest.dist[3]
    return int(forest.dist.sum())


def copy_then_write(cache, graph):
    dist = cache.forest(graph, 1).dist.copy()
    dist[0] = 5
    return dist


def borrowed(cache, graph):
    forest = cache.borrow_mutable(graph, 2)
    forest.dist[0] = 9
    return forest


def _private_view(cache, graph):
    forest = cache.forest(graph, 3)
    return forest.dist


def refreeze(cache, graph):
    forest = cache.forest(graph, 4)
    forest.dist.setflags(write=False)


def copy_kept_rank(cache, graph):
    rank = cache.forest(graph, 5).preorder[0].copy()
    rank[0] = 1
    return rank
