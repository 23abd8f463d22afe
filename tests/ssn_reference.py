"""Set- and tuple-based reference implementations of the graph operations.

These are the neighbor-set construction, depth-first component labelling and
edge-list subgraph that ``seqnet.ssn`` replaced with CSR operations. A graph
here is a tuple of sorted neighbor tuples. Tests require the library to give
the same neighbor rows, edge order, component labels and subgraphs.
``save_edges_reference`` writes the edge file one f-string per edge, the way
``seqnet.ssn.save_graph`` did before it wrote blocks of lines.
``load_edges_reference`` reads the edge file one line at a time with
``int()``, the way ``seqnet.ssn.load_graph`` did before it read the body
through ``seqnet.tables.read_rows``; tests require the same edges, or a
``ParseError`` on the same line.
"""

import numpy as np

from seqnet.errors import ParseError, parse_numbers


def neighbors_reference(n, edges):
    """Sorted neighbor tuples; self-loops and repeated edges dropped."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            continue
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(tuple(sorted(s)) for s in nbrs)


def edges_reference(neighbors):
    return [(u, v) for u, nbrs in enumerate(neighbors) for v in nbrs if u < v]


def components_reference(neighbors):
    """Component id per node; ids dense, ordered by smallest contained index."""
    comp = np.full(len(neighbors), -1, dtype=np.int64)
    cid = 0
    for root in range(len(neighbors)):
        if comp[root] >= 0:
            continue
        stack = [root]
        comp[root] = cid
        while stack:
            u = stack.pop()
            for v in neighbors[u]:
                if comp[v] < 0:
                    comp[v] = cid
                    stack.append(v)
        cid += 1
    return comp


def subgraph_reference(neighbors, nodes):
    """Induced subgraph with nodes renumbered in the given order."""
    index = {v: i for i, v in enumerate(nodes)}
    edges = [
        (index[u], index[v])
        for u, v in edges_reference(neighbors)
        if u in index and v in index
    ]
    return neighbors_reference(len(nodes), edges)


def save_edges_reference(graph, path):
    with open(path, "w") as fh:
        for u, v in graph.edges():
            fh.write(f"{u}\t{v}\n")


def load_edges_reference(path, n):
    """The (u, v) pairs of an edge file over n nodes, in file order."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected 'u\\tv' got {line!r}", line=lineno)
            u, v = parse_numbers(parts, lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u}, {v}) out of range for {n} nodes", line=lineno)
            edges.append((u, v))
    return edges
