"""Scaling job times to the reference host speed."""

import signal

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REF_S, HostSpeed


def _speed(samples):
    speed = HostSpeed()
    for t, d in samples:
        speed.times.append(t)
        speed.kernel_s.append(d)
    return speed


def test_rate_is_the_mean_relative_speed_of_samples_near_the_job():
    speed = _speed([(0.0, REF_S), (1.0, 2 * REF_S), (2.0, 4 * REF_S), (9.0, REF_S)])
    # samples at 1.0 and 2.0 run at 1/2 and 1/4 of the reference speed
    assert speed.rate(1.0, 2.0, pad=0.1) == pytest.approx(0.375)
    assert speed.rate(0.5, 2.0, pad=0.5) == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_rate_falls_back_to_the_nearest_sample():
    speed = _speed([(0.0, REF_S), (5.0, 2 * REF_S)])
    assert speed.rate(3.9, 4.0, pad=0.1) == pytest.approx(0.5)
    assert speed.rate(1.0, 1.1, pad=0.1) == pytest.approx(1.0)
    assert speed.rate(7.0, 7.5, pad=0.1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        HostSpeed().rate(0.0, 1.0)


def test_sampler_times_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed(interval=0.005)
    speed.start()
    try:
        x = 0
        while len(speed.kernel_s) < 3:
            x += 1
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(d > 0 for d in speed.kernel_s)
    assert speed.times == sorted(speed.times)
    assert speed.spent >= sum(speed.kernel_s)


def test_spot_rate_is_a_positive_speed():
    assert 0.0 < hostspeed.spot_rate() < float("inf")


def test_reference_kernel_is_deterministic():
    a = hostspeed.reference_kernel(*hostspeed._reference_operands())
    b = hostspeed.reference_kernel(*hostspeed._reference_operands())
    assert (a[0] == b[0]).all() and a[1] == b[1]
