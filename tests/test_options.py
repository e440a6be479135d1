"""Keywords the library does not take, and defaults it does not
supply: each is a fixed value, a computed one or one every caller
passes, so a call that relies on it raises TypeError instead of being
honoured by one caller only."""

import pytest

from flowsketch.baselines import noisy_fraction_monte_carlo
from flowsketch.bench import BenchmarkConfig, report_json
from flowsketch.bus import TopicBus
from flowsketch.clustering import ClusterModel, train_kmeans, train_model
from flowsketch.lss import LssSketch
from flowsketch.pipeline import IngestStage, SketchingStage, SketchStore, WindowConfig, run_pipeline

MODEL = ClusterModel(centers=(8.0, 16.0), entropy=(0.5, 0.5), weight=(1 / 3, 2 / 3),
                     density=(0.5, 0.5))
SAMPLES = [1, 2, 3, 10, 11, 12]

REMOVED = {
    "run_pipeline(bus=)": lambda tmp: run_pipeline([], MODEL, 8, SketchStore(str(tmp)),
                                                   bus=TopicBus()),
    "SketchingStage(expected_flows=)": lambda _: SketchingStage(MODEL, 8, WindowConfig(),
                                                                expected_flows=10),
    "TopicBus.subscribe(maxsize=)": lambda _: TopicBus().subscribe("t", maxsize=1),
    "LssSketch.to_bytes(include_membership=)":
        lambda _: LssSketch(MODEL, 8).to_bytes(include_membership=False),
    "train_kmeans(max_iters=)": lambda _: train_kmeans(SAMPLES, 2, max_iters=5),
    "train_kmeans(tol=)": lambda _: train_kmeans(SAMPLES, 2, tol=0.1),
    "train_kmeans(n_init=)": lambda _: train_kmeans(SAMPLES, 2, n_init=1),
    "train_model(max_iters=)": lambda _: train_model(SAMPLES, 2, max_iters=5),
    "train_model(tol=)": lambda _: train_model(SAMPLES, 2, tol=0.1),
    "noisy_fraction_monte_carlo(chunk=)":
        lambda _: noisy_fraction_monte_carlo(10, 5, trials=4, chunk=2),
    "BenchmarkConfig(zipf_s=)": lambda _: BenchmarkConfig(zipf_s=1.2),
    "BenchmarkConfig(zipf_vmax=)": lambda _: BenchmarkConfig(zipf_vmax=16),
    "BenchmarkConfig(mean_packets=)": lambda _: BenchmarkConfig(mean_packets=2.0),
    "BenchmarkConfig(banks=)": lambda _: BenchmarkConfig(banks=4),
    "IngestStage.flush() without ts_ns": lambda _: IngestStage().flush(),
    "report_json(include_timing=)": lambda _: report_json({}, include_timing=True),
}


@pytest.mark.parametrize("call", REMOVED.values(), ids=REMOVED.keys())
def test_removed_option_raises_type_error(call, tmp_path):
    with pytest.raises(TypeError):
        call(tmp_path)
