"""Single-source BFS over `neighbors`, the distance reference the tests
check the closed forms and the all-pairs matrix against."""

from collections import deque

from rooklab.core import GraphSpec, Vertex, validate_vertex

from reference import neighbors


def oracle_distances(spec: GraphSpec, source: tuple[int, ...]) -> dict[Vertex, int]:
    """BFS distances from source to every reachable vertex."""
    source = validate_vertex(spec, source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in neighbors(spec, v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist
