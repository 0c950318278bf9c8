"""Self-checks of the host-speed meter's rescaling.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import pytest

from hostspeed import REF_LOOP_S, SpeedMeter


def _meter(samples):
    """A meter holding fixed (start, loop seconds) samples."""
    meter = SpeedMeter()
    meter.starts = [start for start, _ in samples]
    meter.ends = [start + loop for start, loop in samples]
    return meter


def test_reference_speed_reads_wall_time_less_the_loops():
    loop = REF_LOOP_S
    meter = _meter([(0.0, loop), (1.0, loop), (2.0, loop)])
    assert meter.scaled(0.0, 2.0 + loop) == pytest.approx(2.0 - 2 * loop)
    assert meter.own(0.0, 2.0 + loop) == pytest.approx(3 * loop)


def test_half_speed_host_reads_half_the_time():
    loop = 2 * REF_LOOP_S
    meter = _meter([(0.0, loop), (1.0, loop), (2.0, loop)])
    assert meter.scaled(0.0, 2.0 + loop) == pytest.approx((2.0 - 2 * loop) / 2)


def test_interval_between_samples_uses_bracketing_loops():
    meter = _meter([(0.0, REF_LOOP_S), (1.0, 3 * REF_LOOP_S)])
    # scaled by the mean of the two loops, 2 * REF_LOOP_S
    assert meter.scaled(0.25, 0.75) == pytest.approx(0.25)
    # past the last sample, its own loop sets the speed
    assert meter.scaled(1.5, 2.5) == pytest.approx(1.0 / 3)


def test_live_meter_takes_samples():
    meter = SpeedMeter(period=0.01).start()
    acc = 0
    for i in range(300_000):
        acc += i % 3
    meter.stop()
    assert len(meter.starts) >= 3
    assert meter.scaled(meter.ends[0], meter.starts[-1]) > 0
