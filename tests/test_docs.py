"""Documentation consistency checks.

Docs rot silently; these tests keep the load-bearing references valid:
every module path mentioned in DESIGN.md/README exists, every public
name promised by docs/API.md imports, and the examples directory
matches the README's table.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

API_EXPORTS = {
    "repro": [
        "SimplexTask", "XSketchConfig", "StreamGeometry", "XSketch",
        "BaselineSolution", "BaselineConfig", "SimplexOracle",
        "SimplexReport", "PolynomialFit", "fit_polynomial",
    ],
    "repro.core": [
        "XSketch", "VectorizedXSketch", "MultiKXSketch",
        "MultiKConfig", "Stage1", "Stage2", "Stage2Cell", "Promotion",
        "snapshot_xsketch", "restore_xsketch", "save_xsketch", "load_xsketch",
    ],
    "repro.fitting": [
        "fit_polynomial", "evaluate_simplex", "is_simplex", "potential",
        "ak_error_bound", "mse_error_bound", "design_matrix",
        "pseudo_inverse", "residual_projector",
    ],
    "repro.sketch": [
        "CMSketch", "CUSketch", "CountSketch", "CSMSketch", "TowerSketch",
        "ColdFilter", "LogLogFilter", "PyramidSketch", "MVSketch",
        "ElasticSketch", "SpaceSaving", "WindowedTower", "VectorizedTower",
        "VectorizedCM", "CounterArray", "make_windowed_filter",
    ],
    "repro.streams": [
        "Trace", "make_dataset", "ip_trace_stream", "mawi_stream",
        "datacenter_stream", "synthetic_stream", "transactional_stream",
        "ddos_stream", "DDoSScenario", "PlantedWorkload", "PlantedItem",
        "BackgroundTraffic", "ZipfSampler", "iter_windows",
        "WindowAccumulator", "TimeWindowAccumulator", "save_trace_csv",
        "load_trace_csv", "trace_statistics", "estimate_zipf_skew",
    ],
    "repro.metrics": [
        "score_reports", "precision_rate", "recall_rate", "f1_score",
        "average_relative_error", "lasting_time_are", "measure_throughput",
        "measure_sharded_throughput", "ServiceStats", "LatencySummary",
        "percentile",
    ],
    "repro.service": [
        "StreamService", "ServiceConfig", "WindowManager", "ServiceSnapshot",
        "EngineAdapter", "serve", "replay_trace", "run_loadgen",
        "send_shutdown", "MAGIC", "encode_frame", "encode_line",
        "batch_message", "parse_message",
    ],
    "repro.obs": [
        "MetricsRegistry", "Counter", "Gauge", "Histogram",
        "Recorder", "NullRecorder", "NULL_RECORDER", "TraceRing",
        "write_jsonl", "render_text", "parse_text", "validate_text",
        "collect_xsketch", "collect_sharded", "collect_service",
    ],
    "repro.ml": [
        "LinearRegression", "LinearRegressionModel", "fit_arima",
        "arima_forecast", "ArimaModel", "fit_holt", "HoltModel",
        "prediction_accuracy", "run_ml_comparison", "XSketchPredictor",
        "extract_features", "feature_matrix", "FEATURE_NAMES",
    ],
    "repro.apps": [
        "DDoSDetector", "evaluate_detector", "LRUCache",
        "run_prefetch_experiment", "BandwidthAllocator",
        "evaluate_allocation", "PeriodicMonitor", "BurstEvent",
        "TelemetryAggregator", "WindowSummary",
    ],
    "repro.persistence": [
        "OnOffSketch", "PersistentItemFinder", "compare_persistent_and_simplex",
    ],
    "repro.experiments": [
        "make_algorithm", "evaluate_algorithm", "OracleCache", "SeriesTable",
        "param_sweep", "stage1_structure_comparison", "accuracy_vs_memory",
        "are_vs_memory", "throughput_vs_memory", "replacement_ablation",
        "ml_comparison_table", "scaled_memory_kb", "MEMORY_SCALE",
    ],
}


class TestApiPromises:
    @pytest.mark.parametrize("module_name", sorted(API_EXPORTS))
    def test_documented_names_import(self, module_name):
        module = importlib.import_module(module_name)
        missing = [name for name in API_EXPORTS[module_name] if not hasattr(module, name)]
        assert not missing, f"{module_name} is missing documented names: {missing}"


class TestDocFiles:
    @pytest.mark.parametrize(
        "filename",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/ALGORITHMS.md", "docs/API.md", "docs/PARAMETERS.md",
         "docs/DATASETS.md", "docs/RUNTIME.md", "docs/SERVICE.md",
         "docs/OBSERVABILITY.md"],
    )
    def test_doc_exists_and_nonempty(self, filename):
        path = REPO / filename
        assert path.exists(), f"{filename} missing"
        assert len(path.read_text()) > 500

    def test_design_module_references_exist(self):
        """Every `repro/...` path DESIGN.md mentions is a real file/dir."""
        text = (REPO / "DESIGN.md").read_text()
        for reference in set(re.findall(r"`(repro/[A-Za-z0-9_/.]+)`", text)):
            assert (REPO / "src" / reference).exists(), f"DESIGN.md references missing {reference}"

    def test_design_bench_references_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for reference in set(re.findall(r"`(benchmarks/[A-Za-z0-9_/.]+\.py)`", text)):
            assert (REPO / reference).exists(), f"DESIGN.md references missing {reference}"

    def test_readme_examples_exist(self):
        text = (REPO / "README.md").read_text()
        for name in set(re.findall(r"`([a-z_]+\.py)`", text)):
            assert (REPO / "examples" / name).exists(), f"README references missing example {name}"


class TestExamplesCovered:
    def test_every_example_in_readme(self):
        readme = (REPO / "README.md").read_text()
        for example in sorted((REPO / "examples").glob("*.py")):
            assert example.name in readme, f"{example.name} not documented in README"
