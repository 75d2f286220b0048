"""The metrics plane's work budget: call counts, not time (DESIGN §3,
"The metrics path: a typed batch in, one arena per metric name").

A scrape hands vmagent the exporter's typed batch, so a steady-state
``scrape_all`` formats no sample line, parses no exposition text and
builds no label set.  A selector read finds every selected series'
window in one segmented search and gathers it in one copy, so the
numpy calls one ``evaluate_all`` makes do not grow with the machine:
a four-cabinet cluster costs what a one-cabinet cluster does.  Counting
is done from here, by patching, so the hot path carries nothing for it.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.cluster.topology import ClusterSpec
from repro.common import vector
from repro.common.labels import LabelSet
from repro.common.simclock import minutes
from repro.core.framework import FrameworkConfig, MonitoringFramework
from repro.exporters import exporter as exporter_module, textformat
from repro.tsdb import promql, storage
from tests.counting import counted, numpy_calls, numpy_through


def warmed(cabinets: int) -> MonitoringFramework:
    """A default framework run long enough that every series exists and
    every selector's postings and layout are memoised."""
    fw = MonitoringFramework(FrameworkConfig(cluster_spec=ClusterSpec(cabinets=cabinets)))
    fw.start()
    fw.run_for(minutes(10))
    return fw


def test_a_steady_state_scrape_formats_parses_and_labels_nothing():
    fw = warmed(cabinets=1)
    samples = fw.warehouse.tsdb.samples_ingested
    with (
        mock.patch.object(
            exporter_module, "sample_line", wraps=exporter_module.sample_line
        ) as lines,
        mock.patch.object(
            textformat, "parse_exposition", wraps=textformat.parse_exposition
        ) as parses,
        counted(LabelSet, "__init__") as labelsets,
    ):
        pushed = fw.vmagent.scrape_all()
    assert pushed > len(fw.cluster.nodes) * 3  # node exporter alone: three a node
    assert fw.warehouse.tsdb.samples_ingested - samples == pushed + len(
        fw.vmagent.targets()
    )  # and one `up` a target
    assert lines.call_count == 0
    assert parses.call_count == 0
    assert labelsets.call_count == 0


@pytest.fixture(scope="module")
def evaluation_calls() -> dict[int, Counter]:
    """Per cluster size, the numpy calls of one ``evaluate_all``: array
    methods and builtin functions as the profiler sees them, and, under
    ``np.``, every function, ufunc and ufunc method the rule path's
    modules call (a ufunc is no builtin call, so only the patch sees a
    per-series loop of them)."""
    out = {}
    for cabinets in (1, 4):
        fw = warmed(cabinets)
        with numpy_through(vector, promql, storage) as through:
            calls = numpy_calls(fw.vmalert.evaluate_all)
        assert through["minimum"], "the rule path's ufuncs went uncounted"
        calls.update({f"np.{name}": n for name, n in through.items()})
        calls["nodes"] = len(fw.cluster.nodes)
        out[cabinets] = calls
    return out


def test_a_vmalert_evaluation_reads_four_cabinets_as_it_reads_one(evaluation_calls):
    one, four = evaluation_calls[1], evaluation_calls[4]
    assert four.pop("nodes") == 4 * one.pop("nodes")
    assert four == one


def test_a_selector_read_searches_once_whatever_the_series_count(evaluation_calls):
    """One ``searchsorted`` per distinct selector of the group: the
    positions of its steps in the read, found for every series at once."""
    assert evaluation_calls[1]["ndarray.searchsorted"] == 8
    assert evaluation_calls[4]["ndarray.searchsorted"] == 8
