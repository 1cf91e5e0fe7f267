"""Run bookkeeping: what counts towards clicks_per_s and peak_rss_mb."""

from ledger import harness
from ledger import workloads as wl


def test_a_wrong_answer_is_taken_out_of_the_throughput_count():
    result = harness.RunResult(attempted=3, completed=2)
    result.fail("click 0 raised")  # never returned, never counted
    result.fail("click 1 answered wrongly", completed=True)
    assert result.completed == 1 and len(result.failures) == 2


def test_check_uncounts_wrong_clicks_but_not_solo_ones(tmp_path):
    workload = harness.ChartOneshot(
        harness.RunContext("smoke", 1, wl.sizes_for(1), tmp_path)
    )
    workload._reference["q"] = "right"
    result = harness.RunResult(attempted=4, completed=3)
    result.answers = [
        (0, "q", "right"), (1, "q", "wrong"), (("solo", 0), "q", "wrong"),
    ]
    workload.check(result, reference_graph=None)
    assert result.completed == 2
    assert [f.rsplit(" ", 1)[-1] for f in result.failures] == ["1", "0)"]


def test_peak_rss_restarts_from_what_is_resident():
    ballast = bytearray(64 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])  # touch every page
    high = harness.peak_rss_mb()
    del ballast
    if harness.reset_peak_rss():
        assert harness.peak_rss_mb() < high - 32
    assert harness.peak_rss_mb() > 0


def test_in_child_returns_the_value_or_raises_the_error():
    assert harness.in_child(divmod, 7, 2) == (3, 1)
    try:
        harness.in_child(divmod, 7, 0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("the child's error did not come back")


def test_edit_batches_survive_the_trip_from_the_child(tmp_path):
    context = harness.RunContext("smoke", 5, wl.sizes_for(1), tmp_path)
    context.inspect(batches=2)
    assert len(context.dataset_hash) == 64
    assert [len(add) for add, _remove in context.edit_plan] == [0, 200, 200]
    assert all(len(remove) == wl.EDIT_TRIPLES for _add, remove in context.edit_plan)
    # Batch k adds back what batch k-1 removed.
    assert context.edit_plan[1][0] == context.edit_plan[0][1]
    from ledger import dataset

    graph = dataset.generate("smoke").graph
    assert all(t in graph for _add, remove in context.edit_plan for t in remove)


def test_ladder_charts_are_checked_on_the_graph_version_the_click_saw(tmp_path):
    from ledger import dataset

    sizes = wl.Sizes(chart_clicks=20, ladder_clicks=120, pool_sessions=5,
                     solo_clicks=1, edit_probes=1)
    workload = harness.ExploreLadder(harness.RunContext("smoke", 2, sizes, tmp_path))
    harness.timed_setups(workload, repeats=1)
    result = workload.run()
    assert [position for position, _click, _chart in result.charts] == [20, 40, 60, 80, 100, 120]
    assert len(result.edit_ms) == 2
    workload.check(result, dataset.generate("smoke").graph)
    assert result.failures == [] and result.completed == 120

    # The same charts against a store one edit batch behind are wrong
    # wherever the batch touched them; so is a chart with a bar altered.
    stale = harness.RunResult(completed=120)
    stale.charts = [(position - 50, click, chart) for position, click, chart in result.charts[2:]]
    workload.check(stale, dataset.generate("smoke").graph)
    assert stale.failures
    position, click, chart = next(entry for entry in result.charts if entry[2])
    (label, height), rest = chart[0], chart[1:]
    tampered = harness.RunResult(completed=120)
    tampered.charts = [(position, click, [(label, height + 1)] + rest)]
    workload.check(tampered, dataset.generate("smoke").graph)
    assert len(tampered.failures) == 1 and tampered.completed == 119
