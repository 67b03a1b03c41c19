"""Tests for repro.io (serialization)."""

import numpy as np
import pytest

from repro.graphs.generators import complete_graph, petersen_graph
from repro.graphs.graph import Graph
from repro.io import (
    graph_from_dict,
    graph_to_dict,
    read_edge_list,
    read_json,
    write_edge_list,
    write_json,
)


class TestEdgeList:
    def test_roundtrip(self, tmp_path, small_zoo):
        for name, g in small_zoo.items():
            path = tmp_path / f"{name}.txt"
            write_edge_list(g, path)
            assert read_edge_list(path) == g

    def test_isolated_vertices_survive(self, tmp_path):
        g = Graph(5, [(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).n == 5

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.m == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n\n0 1\n# another\n2 3\n")
        assert read_edge_list(path).m == 2

    def test_malformed_line_reported_with_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text",
        ["0 1\n0 x\n", "0 1\n0 1.5\n", "0 1\n# n=x\n"],
        ids=["word", "float", "header"],
    )
    def test_non_integer_token_reported_with_location(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"g\.txt:2: expected an integer"):
            read_edge_list(path)


class TestJson:
    def test_roundtrip_graph_only(self, tmp_path):
        g = petersen_graph()
        path = tmp_path / "g.json"
        write_json(g, path)
        back, states = read_json(path)
        assert back == g
        assert states is None

    def test_roundtrip_with_bool_states(self, tmp_path):
        g = complete_graph(4)
        states = np.array([True, False, True, False])
        path = tmp_path / "g.json"
        write_json(g, path, states=states)
        back, loaded = read_json(path)
        assert back == g
        assert loaded.dtype == bool
        assert np.array_equal(loaded, states)

    def test_roundtrip_with_int_states(self, tmp_path):
        g = complete_graph(3)
        states = np.array([0, 1, 2], dtype=np.int8)
        path = tmp_path / "g.json"
        write_json(g, path, states=states)
        _, loaded = read_json(path)
        assert loaded.dtype == np.int8
        assert np.array_equal(loaded, states)

    def test_state_shape_validated(self):
        with pytest.raises(ValueError):
            graph_to_dict(complete_graph(3), states=np.zeros(4))

    def test_dict_roundtrip_direct(self):
        g = Graph(4, [(0, 2), (1, 3)])
        doc = graph_to_dict(g)
        back, _ = graph_from_dict(doc)
        assert back == g


class TestInteropWithProcesses:
    def test_saved_state_resumes_identically(self, tmp_path):
        # Serialize a mid-run state; a resumed process with the same
        # remaining coin stream behaves like the original.
        from repro.core.two_state import TwoStateMIS
        from repro.sim.rng import SeededCoins

        g = complete_graph(12)
        proc = TwoStateMIS(g, coins=5)
        proc.step(3)
        path = tmp_path / "snapshot.json"
        write_json(g, path, states=proc.black_mask())

        back_graph, state = read_json(path)
        resumed = TwoStateMIS(back_graph, coins=SeededCoins(99), init=state)
        original = TwoStateMIS(g, coins=SeededCoins(99), init=proc.black_mask())
        for _ in range(20):
            resumed.step()
            original.step()
            assert np.array_equal(resumed.black_mask(), original.black_mask())
