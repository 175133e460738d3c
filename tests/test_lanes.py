import sys
import threading

import pytest

from diqrng._lanes import two_lanes


def test_every_item_of_both_lanes_lands_under_a_short_switch_interval():
    # Both lanes write into one result dict; a lost write would drop a key.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        items = range(4000)
        for _ in range(20):
            results = two_lanes(lambda i: i * i, items[::2], items[1::2])
            assert results == {i: i * i for i in items}
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("failing", ["caller", "helper", "both"])
def test_a_lane_error_reaches_the_caller_after_the_join(failing):
    finished = []

    def fn(item):
        lane, n = item
        if n == 0 and failing in (lane, "both"):
            raise RuntimeError(lane)
        finished.append(item)
        return n

    threads = threading.active_count()
    caller = [("caller", n) for n in range(3)]
    helper = [("helper", n) for n in range(3)]
    with pytest.raises(RuntimeError) as raised:
        two_lanes(fn, caller, helper)
    # The caller's own error wins when both lanes fail.
    assert str(raised.value) == ("helper" if failing == "helper" else "caller")
    assert threading.active_count() == threads
    # The lane that did not fail ran to its end before the call returned.
    if failing == "caller":
        assert set(helper) <= set(finished)
    if failing == "helper":
        assert set(caller) <= set(finished)
