"""Figure 19: serving tier — p99 ack latency vs offered load.

Not a paper figure — the claims under test are the serving tier's
headline: open-loop load pushed past the store's capacity grows the
client queue without bound until admission control sheds, and Skip It's
cheaper flush path pushes the knee of the saturation curve to the right
of the plain optimizer's (more goodput, less shedding, lower tail).

A direct call runs each cell at its own coordinate seed, so the rows
asserted here are the same deterministic rows the committed baselines
hold.
"""

import pytest

from repro.bench.serve import run_fig19


def _point(optimizer, load, duration=30_000):
    """One fig-19 cell, seeded as the committed figure seeds it."""
    (row,) = run_fig19(
        quick=True,
        optimizers=[optimizer],
        offered_loads=[load],
        duration=duration,
    )
    return row


@pytest.mark.figure(19)
def test_fig19_load_saturates_the_queue(benchmark, assert_shape):
    rows = benchmark.pedantic(
        lambda: [_point("skipit", load) for load in (8.0, 32.0)],
        rounds=1,
        iterations=1,
    )
    queue = {r.offered_load: r.queue_p99 for r in rows}
    assert_shape(
        queue[32.0] > queue[8.0] > 0,
        f"queueing delay rises past the knee: {queue}",
    )
    for r in rows:
        assert_shape(
            r.ack_p99 >= r.ack_p50,
            f"load={r.offered_load:g}: percentiles ordered",
        )
        assert_shape(
            r.generated >= r.completed + r.shed,
            f"load={r.offered_load:g}: request accounting closes",
        )
    low, high = (rows[0], rows[1])
    assert_shape(
        low.shed == 0 and low.backpressure_engagements == 0,
        f"no shedding below the knee: shed={low.shed}, "
        f"bp={low.backpressure_engagements}",
    )
    assert_shape(
        high.shed > 0 and high.backpressure_engagements > 0,
        "admission control engages past saturation: "
        f"shed={high.shed}, bp={high.backpressure_engagements}",
    )


@pytest.mark.figure(19)
def test_fig19_skipit_pushes_the_knee_right(benchmark, assert_shape):
    plain, skipit = benchmark.pedantic(
        lambda: [_point(opt, 32.0) for opt in ("plain", "skipit")],
        rounds=1,
        iterations=1,
    )
    assert_shape(
        skipit.completed > plain.completed,
        f"skipit goodput above plain at overload: "
        f"{skipit.completed} vs {plain.completed}",
    )
    assert_shape(
        skipit.shed < plain.shed,
        f"skipit sheds less at overload: {skipit.shed} vs {plain.shed}",
    )
    assert_shape(
        skipit.ack_p99 < plain.ack_p99,
        f"skipit ack p99 below plain at overload: "
        f"{skipit.ack_p99} vs {plain.ack_p99}",
    )
    assert_shape(
        skipit.snapshot_reads > 0,
        "the analytics tenant is served from checkpoints: "
        f"snapshot_reads={skipit.snapshot_reads}",
    )
