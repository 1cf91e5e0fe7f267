"""Integration: the Fig. 4 performance story on simulated time.

Absolute numbers are calibration-dependent; what must hold is the
*shape*: Virtuoso endpoint >> decomposer >> HVS, outgoing slower than
incoming on the endpoint, and near-parity of the two directions on
decomposer and HVS.
"""

import pytest

from repro.core import Direction, MemberPattern, property_chart_query
from repro.datasets.dbpedia import OWL_THING, recommended_scale
from repro.endpoint import (
    REMOTE_VIRTUOSO_PROFILE,
    RemoteEndpoint,
    SimClock,
    SimulatedVirtuosoServer,
)
from repro.perf import Decomposer, HeavyQueryStore, MaterializedViews

Q_OUT = property_chart_query(MemberPattern.of_type(OWL_THING))
Q_IN = property_chart_query(MemberPattern.of_type(OWL_THING), Direction.INCOMING)


@pytest.fixture(scope="module")
def measurements(dbpedia_graph, dbpedia_config):
    clock = SimClock()
    profile = REMOTE_VIRTUOSO_PROFILE.scaled(recommended_scale(dbpedia_config))
    server = SimulatedVirtuosoServer(dbpedia_graph, clock=clock, cost_model=profile)
    remote = RemoteEndpoint(server)
    virtuoso_out = remote.query(Q_OUT)
    virtuoso_in = remote.query(Q_IN)
    decomposer = Decomposer(MaterializedViews(dbpedia_graph, track=False), clock=clock)
    decomposer_out = decomposer.try_answer(Q_OUT)
    decomposer_in = decomposer.try_answer(Q_IN)
    hvs = HeavyQueryStore(clock=clock)
    hvs.record(Q_OUT, virtuoso_out.result, virtuoso_out.elapsed_ms, 0)
    hvs.record(Q_IN, virtuoso_in.result, virtuoso_in.elapsed_ms, 0)
    return {
        ("virtuoso", "out"): virtuoso_out.elapsed_ms,
        ("virtuoso", "in"): virtuoso_in.elapsed_ms,
        ("decomposer", "out"): decomposer_out.elapsed_ms,
        ("decomposer", "in"): decomposer_in.elapsed_ms,
        ("hvs", "out"): hvs.lookup(Q_OUT, 0).elapsed_ms,
        ("hvs", "in"): hvs.lookup(Q_IN, 0).elapsed_ms,
    }


class TestFig4Shape:
    def test_virtuoso_is_minutes(self, measurements):
        # Paper: 454 s outgoing, 124 s incoming.
        assert measurements[("virtuoso", "out")] > 60_000
        assert measurements[("virtuoso", "in")] > 20_000

    def test_decomposer_is_seconds(self, measurements):
        # Paper: 1.5 s / 1.2 s.
        for direction in ("out", "in"):
            assert 500 < measurements[("decomposer", direction)] < 5_000

    def test_hvs_is_tens_of_milliseconds(self, measurements):
        # Paper: "around 80 milliseconds".
        for direction in ("out", "in"):
            assert 40 < measurements[("hvs", direction)] < 160

    def test_strict_ordering_per_direction(self, measurements):
        for direction in ("out", "in"):
            assert (
                measurements[("virtuoso", direction)]
                > 20 * measurements[("decomposer", direction)]
                > 20 * 5 * measurements[("hvs", direction)] / 5
            )
            assert (
                measurements[("decomposer", direction)]
                > 5 * measurements[("hvs", direction)]
            )

    def test_outgoing_heavier_than_incoming_on_endpoint(self, measurements):
        # Paper factor: 454/124 = 3.66; accept the same ballpark.
        ratio = measurements[("virtuoso", "out")] / measurements[("virtuoso", "in")]
        assert 2.0 < ratio < 8.0

    def test_decomposer_directions_near_parity(self, measurements):
        # Paper: 1.5 s vs 1.2 s (factor 1.25).
        ratio = (
            measurements[("decomposer", "out")]
            / measurements[("decomposer", "in")]
        )
        assert 1.0 <= ratio < 2.0

    def test_magnitudes_against_paper(self, measurements, dbpedia_config):
        """Within ~3x of the paper's absolute (simulated) numbers at the
        calibrated default scale."""
        if dbpedia_config.scale != 0.00025:
            pytest.skip("calibration applies to the default scale only")
        paper = {
            ("virtuoso", "out"): 454_000,
            ("virtuoso", "in"): 124_000,
            ("decomposer", "out"): 1_500,
            ("decomposer", "in"): 1_200,
            ("hvs", "out"): 80,
            ("hvs", "in"): 80,
        }
        for key, expected in paper.items():
            assert expected / 3 < measurements[key] < expected * 3
