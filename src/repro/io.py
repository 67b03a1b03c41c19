"""Graph and result serialization.

Downstream users need to move graphs and experiment outputs in and out
of the library:

* edge-list text files (one ``u v`` pair per line, ``#`` comments) —
  the lingua franca of graph datasets;
* JSON documents carrying a graph plus optional per-vertex state
  vectors (for archiving trajectories or hand-crafted counterexamples).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.graphs.graph import Graph


def write_edge_list(graph: Graph, path: str | pathlib.Path) -> None:
    """Write a graph as an edge-list text file.

    Format: first a ``# n=<n>`` header (so isolated vertices survive a
    round trip), then one ``u v`` pair per line.
    """
    path = pathlib.Path(path)
    with path.open("w") as handle:
        handle.write(f"# n={graph.n}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_edge_list(path: str | pathlib.Path) -> Graph:
    """Read a graph written by :func:`write_edge_list`.

    Also accepts headerless files (n is then inferred from the largest
    endpoint).  Blank lines and ``#`` comments are ignored; an ``n=``
    comment, when present, fixes the vertex count.
    """
    path = pathlib.Path(path)
    n: int | None = None
    edges: list[tuple[int, int]] = []
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("n="):
                    n = _int(body[2:], f"{path}:{lineno}")
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v', got {line!r}"
                )
            where = f"{path}:{lineno}"
            edges.append((_int(parts[0], where), _int(parts[1], where)))
    return Graph.from_edge_list(edges, n=n)


def _int(token: str, where: str) -> int:
    """``int(token)``; a bad token raises ``ValueError`` naming ``where``."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"{where}: expected an integer, got {token!r}"
        ) from None


def graph_to_dict(
    graph: Graph, states: np.ndarray | None = None
) -> dict:
    """JSON-ready dict with the graph and an optional state vector."""
    doc: dict = {
        "n": graph.n,
        "edges": [[u, v] for u, v in graph.edges()],
    }
    if states is not None:
        states = np.asarray(states)
        if states.shape != (graph.n,):
            raise ValueError(
                f"states must have shape ({graph.n},), got {states.shape}"
            )
        doc["states"] = [int(s) for s in states]
        doc["states_dtype"] = "bool" if states.dtype == bool else "int"
    return doc


def graph_from_dict(doc: dict) -> tuple[Graph, np.ndarray | None]:
    """Inverse of :func:`graph_to_dict`."""
    graph = Graph(int(doc["n"]), [tuple(e) for e in doc["edges"]])
    states = None
    if "states" in doc:
        dtype = bool if doc.get("states_dtype") == "bool" else np.int8
        states = np.array(doc["states"], dtype=dtype)
    return graph, states


def write_json(
    graph: Graph,
    path: str | pathlib.Path,
    states: np.ndarray | None = None,
) -> None:
    """Write a graph (and optional states) as JSON."""
    pathlib.Path(path).write_text(
        json.dumps(graph_to_dict(graph, states))
    )


def read_json(path: str | pathlib.Path) -> tuple[Graph, np.ndarray | None]:
    """Read a graph (and optional states) written by :func:`write_json`."""
    return graph_from_dict(json.loads(pathlib.Path(path).read_text()))
