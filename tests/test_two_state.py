"""Tests for the 2-state MIS process (Definition 4)."""

import numpy as np
import pytest

from repro.core.neighbor_ops import SparseNeighborOps
from repro.core.reference import ReferenceTwoState
from repro.core.two_state import TwoStateMIS
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.sim.rng import ScriptedCoins
from repro.sim.runner import run_until_stable


def scripted(n, *rounds_bits, init_bits=None):
    """Build a ScriptedCoins for n vertices: optional init draw + rounds."""
    script = []
    if init_bits is not None:
        script.append(init_bits)
    script.extend(rounds_bits)
    return ScriptedCoins(script)


class TestInitialization:
    def test_explicit_init_array(self):
        g = path_graph(3)
        init = np.array([True, False, True])
        proc = TwoStateMIS(g, coins=0, init=init)
        assert np.array_equal(proc.black_mask(), init)

    def test_init_strings(self):
        g = path_graph(4)
        assert TwoStateMIS(g, coins=0, init="all_black").black_mask().all()
        assert not TwoStateMIS(g, coins=0, init="all_white").black_mask().any()

    def test_init_invalid_string(self):
        with pytest.raises(ValueError):
            TwoStateMIS(path_graph(3), coins=0, init="rainbow")

    def test_init_random_consumes_one_draw(self):
        coins = scripted(3, init_bits=[True, False, True])
        proc = TwoStateMIS(path_graph(3), coins=coins)
        assert np.array_equal(
            proc.black_mask(), [True, False, True]
        )

    def test_init_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            TwoStateMIS(path_graph(3), coins=0, init=np.ones(4, dtype=bool))

    def test_init_array_copied(self):
        init = np.zeros(3, dtype=bool)
        proc = TwoStateMIS(path_graph(3), coins=0, init=init)
        init[0] = True
        assert not proc.black_mask()[0]


class TestUpdateRule:
    def test_isolated_white_vertex_flips_with_coin(self):
        # Single vertex, white, no neighbours → active; coin black.
        proc = TwoStateMIS(
            Graph(1), coins=ScriptedCoins([[True]]),
            init=np.array([False]),
        )
        proc.step()
        assert proc.black_mask()[0]

    def test_isolated_black_vertex_is_stable(self):
        proc = TwoStateMIS(Graph(1), coins=0, init=np.array([True]))
        assert proc.is_stabilized()
        proc_black = proc.black_mask().copy()
        proc.step(5)
        assert np.array_equal(proc.black_mask(), proc_black)

    def test_conflicted_blacks_flip(self):
        # Edge, both black → both active; coins (black, white).
        g = Graph(2, [(0, 1)])
        proc = TwoStateMIS(
            g, coins=ScriptedCoins([[True, False]]),
            init=np.array([True, True]),
        )
        proc.step()
        assert proc.black_mask().tolist() == [True, False]
        assert proc.is_stabilized()

    def test_lonely_whites_flip(self):
        g = Graph(2, [(0, 1)])
        proc = TwoStateMIS(
            g, coins=ScriptedCoins([[False, True]]),
            init=np.array([False, False]),
        )
        proc.step()
        assert proc.black_mask().tolist() == [False, True]

    def test_satisfied_vertices_ignore_coins(self):
        # Path 0-1-2 with only middle black: everyone satisfied.
        g = path_graph(3)
        init = np.array([False, True, False])
        proc = TwoStateMIS(
            g, coins=ScriptedCoins([[True, False, True]] * 3), init=init
        )
        proc.step(3)
        assert np.array_equal(proc.black_mask(), init)

    def test_active_mask_definition(self):
        # Star: hub black, one leaf black → both active; other leaves
        # white with black neighbour → inactive.
        g = star_graph(4)
        init = np.array([True, True, False, False])
        proc = TwoStateMIS(g, coins=0, init=init)
        assert proc.active_mask().tolist() == [True, True, False, False]

    def test_round_counter(self):
        proc = TwoStateMIS(path_graph(5), coins=0)
        proc.step(7)
        assert proc.round == 7

    def test_step_negative_rejected(self):
        with pytest.raises(ValueError):
            TwoStateMIS(path_graph(3), coins=0).step(-1)


class TestStability:
    def test_stable_black_mask(self):
        g = path_graph(4)
        init = np.array([True, False, False, True])
        proc = TwoStateMIS(g, coins=0, init=init)
        assert proc.stable_black_mask().tolist() == [True, False, False, True]

    def test_stability_is_permanent(self):
        # Once stabilized, many further rounds change nothing.
        g = cycle_graph(9)
        proc = TwoStateMIS(g, coins=5)
        result = run_until_stable(proc, max_rounds=10_000)
        assert result.stabilized
        frozen = proc.black_mask()
        proc.step(50)
        assert np.array_equal(proc.black_mask(), frozen)

    def test_stabilized_iff_no_active(self):
        # For the 2-state process, A_t = ∅ ⟺ all vertices stable.
        rng = np.random.default_rng(1)
        for seed in range(10):
            g = cycle_graph(12)
            proc = TwoStateMIS(
                g, coins=seed, init=rng.random(12) < 0.5
            )
            for _ in range(30):
                assert proc.is_stabilized() == (not proc.active_mask().any())
                if proc.is_stabilized():
                    break
                proc.step()

    def test_mis_requires_stabilization(self):
        g = Graph(2, [(0, 1)])
        proc = TwoStateMIS(g, coins=0, init=np.array([True, True]))
        with pytest.raises(RuntimeError):
            proc.mis()


class TestStabilizationOutcome:
    @pytest.mark.parametrize("seed", range(5))
    def test_always_valid_mis(self, small_zoo, seed):
        from repro.core.verify import is_maximal_independent_set

        for g in small_zoo.values():
            proc = TwoStateMIS(g, coins=seed)
            result = run_until_stable(proc, max_rounds=50_000)
            assert result.stabilized
            assert is_maximal_independent_set(g, result.mis)

    def test_clique_mis_is_singleton(self):
        g = complete_graph(20)
        result = run_until_stable(TwoStateMIS(g, coins=3), max_rounds=50_000)
        assert len(result.mis) == 1

    def test_star_from_adversarial_init(self):
        # All leaves black, hub black: messy start, must still converge.
        g = star_graph(10)
        proc = TwoStateMIS(g, coins=8, init="all_black")
        result = run_until_stable(proc, max_rounds=50_000)
        assert result.stabilized


class TestCorruption:
    def test_corrupt_full_vector(self):
        g = path_graph(4)
        proc = TwoStateMIS(g, coins=1)
        run_until_stable(proc, max_rounds=10_000)
        proc.corrupt(np.array([True, True, True, True]))
        assert proc.black_mask().all()
        result = run_until_stable(proc, max_rounds=10_000)
        assert result.stabilized

    def test_corrupt_vertices(self):
        g = path_graph(5)
        proc = TwoStateMIS(g, coins=1, init="all_white")
        proc.corrupt_vertices([0, 2], black=True)
        assert proc.black_mask().tolist() == [True, False, True, False, False]

    def test_corrupt_vertices_out_of_range(self):
        proc = TwoStateMIS(path_graph(3), coins=0)
        with pytest.raises(ValueError):
            proc.corrupt_vertices([5], black=True)


class TestKActivity:
    def test_k_active_mask_star(self):
        g = star_graph(4)
        init = np.ones(4, dtype=bool)  # all black: hub has 3 active nbrs
        proc = TwoStateMIS(g, coins=0, init=init)
        assert proc.k_active_mask(3).tolist() == [True, True, True, True]
        assert proc.k_active_mask(2).tolist() == [False, True, True, True]

    def test_active_neighbor_counts(self):
        g = star_graph(4)
        proc = TwoStateMIS(g, coins=0, init=np.ones(4, dtype=bool))
        counts = proc.active_neighbor_counts()
        assert counts[0] == 3
        assert np.all(counts[1:] == 1)


class TestEagerAblation:
    def test_eager_white_promotion(self):
        # Lonely white becomes black deterministically, even on tails coin.
        g = Graph(1)
        proc = TwoStateMIS(
            g, coins=ScriptedCoins([[False]]),
            init=np.array([False]), eager_white_promotion=True,
        )
        proc.step()
        assert proc.black_mask()[0]

    def test_eager_black_still_randomized(self):
        g = Graph(2, [(0, 1)])
        proc = TwoStateMIS(
            g, coins=ScriptedCoins([[False, False]]),
            init=np.array([True, True]), eager_white_promotion=True,
        )
        proc.step()
        assert not proc.black_mask().any()

    def test_eager_still_finds_mis(self, small_zoo):
        for g in small_zoo.values():
            proc = TwoStateMIS(g, coins=4, eager_white_promotion=True)
            result = run_until_stable(proc, max_rounds=50_000)
            assert result.stabilized


class TestBackends:
    @pytest.mark.parametrize(
        "ops_cls", [SparseNeighborOps], ids=["sparse"],
    )
    def test_backends_equivalent_trajectories(self, ops_cls):
        g = cycle_graph(15)
        reference = ReferenceTwoState(g, coins=9)
        other = TwoStateMIS(g, coins=9, ops=ops_cls(g))
        for _ in range(40):
            reference.step()
            other.step()
            assert np.array_equal(reference.black_mask(), other.black_mask())
