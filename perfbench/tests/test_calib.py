"""Calibration math and the pin on the probe's source."""

from __future__ import annotations

import pytest

from perfbench import calib


def test_calibrate_rescales_to_reference_seconds():
    ref = calib.PROBE_REF_S
    # machine exactly at reference speed: nothing changes
    assert calib.calibrate(2.0, (ref, ref)) == pytest.approx(2.0)
    # machine half as fast (probe takes twice as long): wall halves
    assert calib.calibrate(2.0, (2 * ref, 2 * ref)) == pytest.approx(1.0)
    # adjacent probes are averaged
    assert calib.calibrate(3.0, (ref, 2 * ref)) == pytest.approx(2.0)


def test_calibrate_rejects_unusable_probes():
    with pytest.raises(ValueError):
        calib.calibrate(1.0, ())
    with pytest.raises(ValueError):
        calib.calibrate(1.0, (0.1, 0.0))


def test_probe_source_is_pinned_to_the_reference():
    """Changing the probe's work invalidates ``PROBE_REF_S``: measure it
    again and update both constants together."""
    assert calib.probe_source_sha256() == calib.PROBE_SOURCE_SHA256


def test_probe_runs_and_bracket_calibrates():
    probe = calib.Probe()
    assert 0.0 < probe.run() < 5.0
    calibrated, wall, value = calib.bracket(probe, lambda: 41 + 1)
    assert value == 42
    assert calibrated > 0.0 and wall > 0.0
