"""Tests of the top-level public API surface."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_quickstart_snippet(self):
        """The README quickstart must keep working."""
        backend = repro.ankaa3()
        circuit = repro.QuantumCircuit(4)
        circuit.h(0)
        circuit.cx(0, 3)
        result = repro.api.compile(
            repro.CompileRequest(circuit=circuit, backend=backend, router="qlosure")
        )
        repro.verify_routing(
            circuit, result.routed_circuit, backend.edges(), result.initial_layout
        )
        assert result.routed_depth >= circuit.depth()

    def test_qasm_helpers_exported(self):
        text = repro.circuit_to_qasm(repro.QuantumCircuit(2, [repro.Gate("cx", (0, 1))]))
        circuit = repro.circuit_from_qasm(text)
        assert len(circuit) == 1

    def test_mappers_exported(self):
        backend = repro.ankaa3()
        for cls in (
            repro.SabreRouter,
            repro.LightSabreRouter,
            repro.QmapLikeRouter,
            repro.CirqLikeRouter,
            repro.TketLikeRouter,
            repro.GreedyDistanceRouter,
        ):
            assert cls(backend).name

    def test_analysis_helpers_importable(self):
        from repro.analysis import compare_mappers, depth_factor_table  # noqa: F401
        from repro.analysis import ablation_study, mapping_time_scaling  # noqa: F401

    def test_compile_pipeline_exported(self):
        """The README `repro.api` quickstart must keep working."""
        request = repro.CompileRequest(
            generate="ghz:8", backend="ankaa3", router="sabre", validation="full"
        )
        result = repro.api.compile(request)
        assert result.router == "sabre"
        batch = repro.compile_many([request.with_seed(s) for s in range(2)])
        assert len(batch) == 2
        assert "sabre" in batch.per_router()

    def test_registry_exported(self):
        assert "qlosure" in repro.api.router_names()
        assert repro.api.resolve_router("pytket").name == "tket"
