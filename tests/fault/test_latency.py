"""Detection-latency analysis (the section 4.8 latent-error discussion)."""

import pytest

from repro.errors import ConfigurationError
from repro.fault.latency import measure_detection_latency


@pytest.fixture(scope="module")
def iutest_report():
    # Default program sizes = full-cache patrol (the real IUTEST shape);
    # the window covers ~3 patrol iterations.
    return measure_detection_latency(
        "iutest", strikes=25, window_instructions=80_000, seed=3,
    )


def test_iutest_detects_most_upsets(iutest_report):
    """IUTEST patrols everything it touches: high detection fraction."""
    assert iutest_report.detection_fraction() > 0.5
    assert len(iutest_report.samples) == 25


def test_detected_latencies_within_patrol_period(iutest_report):
    """A detected upset is found within roughly one patrol iteration."""
    detected = [sample for sample in iutest_report.samples if sample.detected]
    assert detected
    for sample in detected:
        assert 0 < sample.latency_instructions <= 80_000


def test_summary_rows_shape(iutest_report):
    rows = iutest_report.summary_rows()
    assert rows
    assert {"target", "samples", "detected", "mean latency"} <= set(rows[0])


def test_mean_latency_finite_for_patrolled_targets(iutest_report):
    latency = iutest_report.mean_latency()
    assert latency != float("inf")
    assert latency > 0


def test_targeted_measurement_regfile():
    report = measure_detection_latency(
        "iutest", strikes=12, window_instructions=60_000, seed=5,
        targets=["regfile"],
        program_kwargs=dict(scrub_words=256, icode_words=128),
    )
    assert all(sample.target == "regfile" for sample in report.samples)
    # The register walk touches most (not all) of the file every iteration;
    # strikes in the runtime's anchor windows can stay latent.
    assert report.detection_fraction() >= 0.5


def test_paranoia_detects_less_than_iutest(iutest_report):
    """PARANOIA has no data-cache patrol: lower detection fraction, which
    is exactly why its measured cross-section (fig. 7) sits below fig. 6."""
    paranoia = measure_detection_latency(
        "paranoia", strikes=25, window_instructions=60_000, seed=3,
    )
    assert paranoia.detection_fraction() <= iutest_report.detection_fraction()


def test_random_program_accepted():
    """Every entry point takes the same program specs, random:<seed> too."""
    report = measure_detection_latency(
        "random:7", strikes=4, window_instructions=4_000, seed=2,
        warmup_range=(2_000, 4_000),
    )
    assert report.program == "random:7"
    assert len(report.samples) == 4


def test_unknown_program_rejected():
    with pytest.raises(ConfigurationError):
        measure_detection_latency("nope", strikes=1)
