"""Tests for the comparison experiment drivers."""

import gc

import pytest

import repro.analysis.experiments as experiments

from repro.analysis.experiments import (
    ComparisonRecord,
    compare_mappers,
    depth_factor_table,
    mapping_time_table,
    qasmbench_table,
    queko_series,
    swap_ratio_table,
)
from repro.api import CompileRequest, compile as api_compile
from repro.benchgen.qasmbench import ghz_circuit, qft_circuit
from repro.benchgen.queko import generate_queko_circuit
from repro.hardware.topologies import grid_topology


GRID = grid_topology(4, 4)


def _record(mapper, circuit="c", swaps=10, depth=50, optimal=None, initial=20, runtime=1.0):
    return ComparisonRecord(
        circuit_name=circuit,
        backend_name="grid",
        mapper_name=mapper,
        num_qubits=8,
        qops=100,
        two_qubit_gates=60,
        initial_depth=initial,
        optimal_depth=optimal,
        swaps=swaps,
        routed_depth=depth,
        runtime_seconds=runtime,
    )


def compile_record(router, circuit):
    result = api_compile(CompileRequest(circuit=circuit, backend=GRID, router=router))
    return ComparisonRecord.from_compile_result(result)


class TestRunners:
    def test_record_from_qlosure_compile(self):
        record = compile_record("qlosure", ghz_circuit(8))
        assert record.mapper_name == "qlosure"
        assert record.qops == 8
        assert record.routed_depth >= record.initial_depth

    def test_record_from_baseline_compile(self):
        record = compile_record("lightsabre", qft_circuit(6))
        assert record.swaps >= 0
        assert record.runtime_seconds > 0
        assert record.cost_evaluations > 0

    def test_unknown_router_rejected(self):
        with pytest.raises(KeyError):
            compare_mappers([ghz_circuit(4)], GRID, mapper_names=["not-a-router"])

    def test_compare_mappers_on_mixed_inputs(self):
        queko = generate_queko_circuit(grid_topology(3, 3), depth=6, seed=1)
        records = compare_mappers(
            [ghz_circuit(6), queko], GRID, mapper_names=("qlosure", "lightsabre")
        )
        assert [(r.circuit_name, r.mapper_name) for r in records] == [
            ("ghz_n6", "qlosure"),
            ("ghz_n6", "lightsabre"),
            (queko.name, "qlosure"),
            (queko.name, "lightsabre"),
        ]
        queko_records = [r for r in records if r.optimal_depth is not None]
        assert len(queko_records) == 2
        assert all(r.optimal_depth == 6 for r in queko_records)

    def test_compare_mappers_subset_selection(self):
        records = compare_mappers([ghz_circuit(5)], GRID, mapper_names=["qlosure"])
        assert {r.mapper_name for r in records} == {"qlosure"}

    def test_aliases_record_the_canonical_name(self):
        records = compare_mappers([ghz_circuit(5)], GRID, mapper_names=["pytket"])
        assert [r.mapper_name for r in records] == ["tket"]


class TestTimedBatch:
    def test_heap_is_frozen_for_the_batch_and_thawed_after(self, monkeypatch):
        frozen_during = []

        def batch(requests, workers):
            frozen_during.append(gc.get_freeze_count())
            raise KeyError("unknown router")

        before = gc.get_freeze_count()
        monkeypatch.setattr(experiments, "compile_many", batch)
        with pytest.raises(KeyError):
            experiments.timed_batch([])
        assert frozen_during and frozen_during[0] > before
        assert gc.get_freeze_count() == before

    def test_rounds_keep_the_fastest_route_of_each_request(self, monkeypatch):
        timings = []
        real = experiments.compile_many

        def spy(requests, workers=1, cache=True):
            batch = real(requests, workers=workers, cache=cache)
            timings.append([result.route_seconds for result in batch])
            return batch

        monkeypatch.setattr(experiments, "compile_many", spy)
        requests = [
            CompileRequest(circuit=ghz_circuit(5), backend=GRID, router=router)
            for router in ("greedy", "sabre")
        ]
        results = experiments.timed_batch(requests, rounds=3)
        assert len(timings) == 3
        assert [r.route_seconds for r in results] == [min(t) for t in zip(*timings)]
        fresh = real(requests, cache=False)
        assert [r.swaps_added for r in results] == [r.swaps_added for r in fresh]

    def test_compare_mappers_times_through_it(self, monkeypatch):
        calls = []
        real = experiments.timed_batch

        def spy(requests, workers=1):
            calls.append(len(requests))
            return real(requests, workers=workers)

        monkeypatch.setattr(experiments, "timed_batch", spy)
        compare_mappers([ghz_circuit(4)], GRID, mapper_names=("greedy", "sabre"))
        assert calls == [2]


class TestRecord:
    def test_depth_factor_prefers_optimal_depth(self):
        assert _record("m", optimal=10, depth=50).depth_factor == 5.0
        assert _record("m", optimal=None, depth=40, initial=20).depth_factor == 2.0

    def test_depth_overhead(self):
        assert _record("m", depth=50, initial=20).depth_overhead == 30

    def test_as_dict_round_numbers(self):
        data = _record("m").as_dict()
        assert data["mapper"] == "m"
        assert isinstance(data["depth_factor"], float)


class TestAggregations:
    def test_depth_factor_table_groups_by_size(self):
        records = [
            _record("qlosure", circuit="a", optimal=100, depth=500),
            _record("qlosure", circuit="b", optimal=600, depth=1800),
            _record("sabre", circuit="a", optimal=100, depth=700),
            _record("sabre", circuit="b", optimal=600, depth=3000),
        ]
        table = depth_factor_table(records, split_depth=500)
        assert table["qlosure"]["medium"] == 5.0
        assert table["qlosure"]["large"] == 3.0
        assert table["sabre"]["medium"] == 7.0
        assert table["sabre"]["large"] == 5.0

    def test_swap_ratio_table_relative_to_qlosure(self):
        records = [
            _record("qlosure", circuit="a", swaps=10, optimal=100),
            _record("sabre", circuit="a", swaps=15, optimal=100),
            _record("cirq", circuit="a", swaps=30, optimal=100),
        ]
        table = swap_ratio_table(records)
        assert table["sabre"]["medium"] == 1.5
        assert table["cirq"]["medium"] == 3.0
        assert "qlosure" not in table

    def test_mapping_time_table(self):
        records = [
            _record("qlosure", circuit="a", runtime=2.0, optimal=100),
            _record("qlosure", circuit="b", runtime=4.0, optimal=100),
        ]
        assert mapping_time_table(records)["qlosure"]["medium"] == 3.0

    def test_qasmbench_table_improvements(self):
        records = [
            _record("qlosure", circuit="qft_n10", swaps=80, depth=100),
            _record("sabre", circuit="qft_n10", swaps=100, depth=120),
        ]
        table = qasmbench_table(records)
        assert table["rows"]["qft_n10"]["sabre"]["swaps"] == 100
        assert table["improvement"]["sabre"]["swaps"] == pytest.approx(20.0)
        assert table["improvement"]["sabre"]["depth"] == pytest.approx(100 * 20 / 120, rel=1e-3)

    def test_queko_series_sorted_by_depth(self):
        records = [
            _record("qlosure", circuit="a", optimal=10, swaps=5, depth=30),
            _record("qlosure", circuit="b", optimal=20, swaps=9, depth=70),
            _record("qlosure", circuit="c", optimal=10, swaps=7, depth=34),
        ]
        series = queko_series(records)
        assert list(series["qlosure"].keys()) == [10, 20]
        assert series["qlosure"][10]["swaps"] == 6.0
        assert series["qlosure"][10]["depth"] == 32.0
