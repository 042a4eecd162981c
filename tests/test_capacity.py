import numpy as np
import pytest

from dcn_robust.capacity import (
    ConfigurationError,
    Placement,
    Resource,
    ServerClass,
    assign_capacities,
    builtin_dataset,
    load_dataset,
    module_partition,
    remove_richest_module,
)
from dcn_robust.reachability import (
    accessible_server_ratio,
    partition,
    remaining_capacity_ratio,
)
from dcn_robust.topology import build_bcube, build_dcell, build_fat_tree, build_three_layer


def three_layer_3k():
    return build_three_layer(12, 48, 6)


class TestDatasets:
    def test_google_contents(self):
        classes = builtin_dataset("google")
        assert len(classes) == 5
        assert classes[3] == ServerClass(4, 1.00, 1.00, 0.07)
        assert classes[0].fraction == 0.53
        assert classes[4] == ServerClass(5, 0.25, 0.25, 0.01)

    def test_synthetic_contents(self):
        classes = builtin_dataset("synthetic")
        assert len(classes) == 2
        assert classes[0].cpu == 1.00 and classes[1].cpu == 0.20
        assert classes[0].fraction == pytest.approx(1 / 6, abs=1e-9)
        assert classes[1].fraction == pytest.approx(5 / 6, abs=1e-9)

    @pytest.mark.parametrize("name", ["google", "synthetic"])
    def test_fractions_sum_to_one(self, name):
        total = sum(c.fraction for c in builtin_dataset(name))
        assert abs(total - 1.0) <= 1e-9

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            builtin_dataset("azure")

    def test_load_override_file(self):
        text = "type_number,cpu,memory,fraction\n1,1.0,0.5,0.25\n2,0.5,1.0,0.75\n"
        classes = load_dataset(text)
        assert classes == (ServerClass(1, 1.0, 0.5, 0.25), ServerClass(2, 0.5, 1.0, 0.75))

    def test_load_rejects_bad_fractions(self):
        text = "type_number,cpu,memory,fraction\n1,1.0,0.5,0.30\n2,0.5,1.0,0.75\n"
        with pytest.raises(ConfigurationError, match="sum"):
            load_dataset(text)
        with pytest.raises(ConfigurationError, match="header"):
            load_dataset("a,b\n1,2\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            load_dataset("type_number,cpu,memory,fraction\nx,1,1,1\n")

    def test_class_validation(self):
        with pytest.raises(ConfigurationError):
            ServerClass(1, 0.0, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            ServerClass(1, 0.5, 1.5, 0.5)


class TestModulePartition:
    def test_three_layer_modules(self):
        modules = module_partition(three_layer_3k())
        assert len(modules) == 6
        assert all(len(m) == 576 for m in modules)

    def test_fat_tree_pods(self):
        modules = module_partition(build_fat_tree(24))
        assert len(modules) == 24
        assert all(len(m) == 144 for m in modules)

    def test_bcube_cells(self):
        modules = module_partition(build_bcube(58, 1))
        assert len(modules) == 58
        assert all(len(m) == 58 for m in modules)

    def test_dcell_subcells(self):
        modules = module_partition(build_dcell(7, 2))
        assert len(modules) == 57
        assert all(len(m) == 56 for m in modules)

    @pytest.mark.parametrize("build", [build_bcube, build_dcell])
    def test_level_zero_is_one_module(self, build):
        topo = build(4, 0)
        modules = module_partition(topo)
        assert [m.tolist() for m in modules] == [list(range(topo.n_servers))]

    def test_partition_covers_every_server_once(self):
        topo = build_dcell(4, 1)
        modules = module_partition(topo)
        ids = np.concatenate(modules)
        assert sorted(ids.tolist()) == list(range(topo.n_servers))


class TestAssignment:
    def test_class_counts_conserved(self):
        topo = three_layer_3k()
        for name in ("google", "synthetic"):
            for placement in Placement:
                assignment = assign_capacities(topo, builtin_dataset(name), placement)
                counts = np.bincount(assignment.class_of_server)[1:]
                assert counts.sum() == topo.n_servers
                for cls, count in zip(builtin_dataset(name), counts):
                    assert abs(count - cls.fraction * topo.n_servers) <= 1.0

    def test_synthetic_unbalanced_fills_one_module_with_type1(self):
        topo = three_layer_3k()
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "unbalanced")
        module0 = assignment.modules[0]
        assert set(assignment.class_of_server[module0].tolist()) == {1}
        assert len(module0) == 576

    def test_synthetic_balanced_mix_per_module(self):
        topo = three_layer_3k()
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "balanced")
        for module in assignment.modules:
            values, counts = np.unique(
                assignment.class_of_server[module], return_counts=True
            )
            assert dict(zip(values.tolist(), counts.tolist())) == {1: 96, 2: 480}

    def test_single_class_dataset_identical_under_both_placements(self):
        topo = build_fat_tree(8)
        homogeneous = (ServerClass(1, 0.5, 0.5, 1.0),)
        a = assign_capacities(topo, homogeneous, "balanced")
        b = assign_capacities(topo, homogeneous, "unbalanced")
        assert np.array_equal(a.cpu, b.cpu)
        assert np.array_equal(a.class_of_server, b.class_of_server)

    def test_capacity_vector_selects_resource(self):
        topo = build_bcube(4, 1)
        assignment = assign_capacities(topo, builtin_dataset("google"), "balanced")
        assert np.array_equal(assignment.capacity_vector("cpu"), assignment.cpu)
        assert np.array_equal(assignment.capacity_vector(Resource.MEMORY), assignment.memory)
        with pytest.raises(ConfigurationError):
            assignment.capacity_vector("disk")


class TestTargetedRemoval:
    def test_synthetic_unbalanced_halves_cpu(self):
        topo = three_layer_3k()
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "unbalanced")
        degraded = remove_richest_module(assignment, "cpu")
        part = partition(degraded)
        cpu = assignment.capacity_vector("cpu")
        assert remaining_capacity_ratio(part, cpu) == pytest.approx(0.5, rel=1e-12)
        # the removed elements are exactly one aggregation pair
        assert len(degraded.removed_switches) == 2

    def test_synthetic_balanced_keeps_five_sixths(self):
        topo = three_layer_3k()
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "balanced")
        part = partition(remove_richest_module(assignment, "cpu"))
        cpu = assignment.capacity_vector("cpu")
        assert remaining_capacity_ratio(part, cpu) == pytest.approx(5 / 6, rel=1e-12)

    def test_homogeneous_matches_server_share(self):
        topo = three_layer_3k()
        homogeneous = (ServerClass(1, 0.8, 0.8, 1.0),)
        for placement in Placement:
            assignment = assign_capacities(topo, homogeneous, placement)
            part = partition(remove_richest_module(assignment, "cpu"))
            cpu = assignment.capacity_vector("cpu")
            assert remaining_capacity_ratio(part, cpu) == pytest.approx(
                1 - 576 / 3456, rel=1e-12
            )
            assert accessible_server_ratio(part) == pytest.approx(5 / 6)

    def test_balanced_never_worse_than_unbalanced(self):
        topo = three_layer_3k()
        for resource in ("cpu", "memory"):
            values = {}
            for placement in Placement:
                assignment = assign_capacities(
                    topo, builtin_dataset("synthetic"), placement
                )
                part = partition(remove_richest_module(assignment, resource))
                capacities = assignment.capacity_vector(resource)
                values[placement] = remaining_capacity_ratio(part, capacities)
            assert values[Placement.BALANCED] >= values[Placement.UNBALANCED]

    def test_google_cpu_gap_smaller_than_memory_gap(self):
        topo = three_layer_3k()

        def gap(resource):
            out = {}
            for placement in Placement:
                assignment = assign_capacities(topo, builtin_dataset("google"), placement)
                part = partition(remove_richest_module(assignment, resource))
                capacities = assignment.capacity_vector(resource)
                out[placement] = remaining_capacity_ratio(part, capacities)
            return out[Placement.BALANCED] - out[Placement.UNBALANCED]

        assert gap("cpu") < gap("memory")

    def test_bad_resource(self):
        topo = build_bcube(4, 1)
        assignment = assign_capacities(topo, builtin_dataset("google"), "balanced")
        with pytest.raises(ConfigurationError):
            remove_richest_module(assignment, "gpu")

    def test_fat_tree_cut_drops_the_pod_aggregation_switches(self):
        topo = build_fat_tree(4)  # 4 pods of 4 servers
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "unbalanced")
        degraded = remove_richest_module(assignment, "cpu")
        assert degraded.topology is assignment.topology
        # pod 0 is the richest; ids 16-19 are the core, 20-21 its aggregation pair
        assert sorted(degraded.removed_switches) == [20, 21]
        assert {topo.switch_layer(s) for s in degraded.removed_switches} == {"aggregation"}
        part = partition(degraded)
        assert not part.accessible_server_mask[assignment.modules[0]].any()
        assert accessible_server_ratio(part) == 0.75

    def test_fat_tree_24_cut_strands_exactly_one_pod(self):
        topo = build_fat_tree(24)
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "unbalanced")
        degraded = remove_richest_module(assignment, "cpu")
        assert len(degraded.removed_switches) == 12
        assert accessible_server_ratio(partition(degraded)) == pytest.approx(23 / 24)

    @pytest.mark.parametrize("build", [lambda: build_bcube(4, 1), lambda: build_dcell(4, 1)])
    def test_recursive_fabrics_refused(self, build):
        # their modules reach the rest through server links: no switch-only cut
        topo = build()
        assignment = assign_capacities(topo, builtin_dataset("synthetic"), "unbalanced")
        with pytest.raises(ConfigurationError, match="switch-only cut"):
            remove_richest_module(assignment, "cpu")
