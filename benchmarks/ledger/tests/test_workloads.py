"""The click generator: seeded order over exact quotas."""

from collections import Counter

import pytest

from ledger import workloads as wl


def shares(clicks):
    return Counter((c.shape, c.cls, c.depth, c.via) for c in clicks)


@pytest.mark.parametrize("make", [wl.chart_clicks, wl.ladder_clicks])
def test_same_seed_same_clicks(make):
    assert make(7, 240) == make(7, 240)


@pytest.mark.parametrize("make", [wl.chart_clicks, wl.ladder_clicks])
def test_other_seed_other_order_same_clicks(make):
    first, second = make(1, 240), make(2, 240)
    assert first != second
    assert shares(first) == shares(second)
    assert [click.id for click in first] == list(range(240))


def test_shape_shares_are_the_stated_percentages():
    clicks = wl.chart_clicks(3, 200)
    by_shape = Counter(click.shape for click in clicks)
    assert by_shape == {
        "prop_out": 50, "prop_in": 50, "subclass": 40,
        "connections": 20, "table": 20, "closure": 20,
    }
    assert sum(click.is_property_chart for click in clicks) == 100


def test_classes_follow_zipf_rank_order():
    by_class = Counter(click.cls for click in wl.chart_clicks(3, 400))
    counts = [by_class[cls] for cls in wl.CLASSES]
    assert counts == sorted(counts, reverse=True)
    assert by_class["Thing"] > 3 * by_class["Place"]


def test_chart_clicks_are_depth_one_and_only_connections_carry_a_via():
    for click in wl.chart_clicks(5, 120):
        assert click.depth == 1
        assert bool(click.via) == (click.shape == "connections")
        if click.via:
            assert click.via in wl.VIA_PROPERTIES[click.cls]


def test_ladder_depth_shares_and_via_rules():
    clicks = wl.ladder_clicks(5, 1000)
    property_clicks = [click for click in clicks if click.is_property_chart]
    at_depth_one = sum(click.depth == 1 for click in property_clicks)
    assert 0.70 <= at_depth_one / len(property_clicks) <= 0.80
    for click in clicks:
        assert click.depth in (1, 2, 3)
        if click.shape == "connections":
            assert click.depth < 3
        assert bool(click.via) == (click.depth > 1 or click.shape == "connections")


def test_via_properties_take_turns_within_a_cell():
    clicks = wl.ladder_clicks(1, 2000)
    used = Counter(c.via for c in clicks if c.cls == "Thing" and c.shape == "prop_out" and c.via)
    assert set(used) == set(wl.VIA_PROPERTIES["Thing"])
    assert max(used.values()) - min(used.values()) <= 1


def test_pool_sessions_are_zipf_over_scenarios_long_walks_first():
    names = wl.pool_sessions(1, 40)
    assert sorted(names) == sorted(wl.pool_sessions(2, 40))
    assert names != wl.pool_sessions(2, 40)
    counts = [names.count(name) for name in wl.SCENARIOS]
    assert sum(counts) == 40 and counts == sorted(counts, reverse=True)
    is_long = [name in wl.LONG_SCENARIOS for name in names]
    assert is_long == sorted(is_long, reverse=True)


def test_solo_clicks_are_the_fig4_click():
    clicks = wl.solo_clicks(3)
    assert len(clicks) == 3 and all(click.is_fig4 for click in clicks)


def test_fig4_is_the_level_zero_outgoing_property_chart():
    assert wl.Click(0, "prop_out", "Thing").is_fig4
    assert not wl.Click(0, "prop_in", "Thing").is_fig4
    assert not wl.Click(0, "prop_out", "Agent").is_fig4
    assert not wl.Click(0, "prop_out", "Thing", depth=2, via="isPartOf").is_fig4
    # Rank-1 class, a quarter of the clicks: 1 in ~12 is a Fig. 4 click.
    assert sum(click.is_fig4 for click in wl.chart_clicks(1, 84)) == 7


def test_apportion_is_exact():
    assert wl.apportion(10, [1, 1, 1]) == [4, 3, 3]
    assert sum(wl.apportion(97, wl.zipf_weights(11))) == 97


def test_consecutive_edit_batches_are_disjoint():
    batches = wl.edit_batches(1, 6, 1000)
    assert len(batches) == 7
    for previous, current in zip(batches, batches[1:]):
        assert len(current) == len(set(current)) == wl.EDIT_TRIPLES
        assert not set(previous) & set(current)
    assert batches == wl.edit_batches(1, 6, 1000)
    with pytest.raises(ValueError):
        wl.edit_batches(1, 2, 2 * wl.EDIT_TRIPLES - 1)


def test_sizes_scale_with_seconds():
    small, large = wl.sizes_for(10), wl.sizes_for(30)
    assert large.chart_clicks == 3 * small.chart_clicks
    assert large.ladder_clicks == 3 * small.ladder_clicks
    assert large.pool_sessions == 3 * small.pool_sessions
