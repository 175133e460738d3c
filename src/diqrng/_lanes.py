"""Two lanes of independent work: the calling thread and one helper thread.

numpy releases the GIL inside its array kernels, so two lanes of
array work overlap on two cores; on one core the same code runs and the
lanes time-slice.  Every result is a pure function of its item, so the
outputs do not depend on the schedule.
"""

from __future__ import annotations

import threading


def two_lanes(fn, caller_items, helper_items) -> dict:
    """``{item: fn(item)}`` for every item of both lanes.

    ``helper_items`` run in order on a helper thread while the calling
    thread runs ``caller_items``.  The thread is started per call and
    joined before this returns, also when a lane raises.  An exception
    from the helper lane is raised here; when both lanes raise, the
    caller's exception propagates.
    """
    results = {}
    raised = []

    def helper():
        try:
            for item in helper_items:
                results[item] = fn(item)
        except BaseException as exc:  # re-raised in the caller below
            raised.append(exc)

    thread = threading.Thread(target=helper, name="diqrng-helper-lane")
    thread.start()
    try:
        for item in caller_items:
            results[item] = fn(item)
    finally:
        thread.join()
    if raised:
        raise raised[0]
    return results
