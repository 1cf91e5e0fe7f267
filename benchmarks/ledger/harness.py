"""The four workloads: what a set-up builds, what a run times, what is checked.

Every workload has the same life cycle, driven by ``run.measure``:

1. an untimed warm-up on a throw-away smoke-scale stack (imports, first
   calls);
2. in a forked child that then exits, the dataset is generated, checked
   against the manifest — a drifted dataset stops the run here — and the
   edit batches are picked from it;
3. ``SETUP_REPEATS`` timed set-ups (dataset generation → stores → stack),
   each from nothing, the one before torn down first; the median is
   ``setup_s`` and the last one is the measured stack.  A snapshot
   workload generates the dataset and writes the file in a child too, as
   ``repro snapshot build`` is another process than the server: the
   serving process never holds the generator's graph;
4. the process's resident-memory high-water mark is reset, then the
   timed run: a fixed, seed-ordered list of clicks, one client, closed
   loop, ``time.perf_counter`` around each call into the system and
   nothing else — rendering a click to SPARQL and hashing its answer
   happen between the timed regions; ``peak_rss_mb`` is read when it ends;
5. only then is the *reference store* generated (the pinned dataset
   again, never mutated before the checks) and every answer compared
   with the other engine's on it.

Nothing the harness owns is large while the clock runs: CPython's cyclic
collector walks every live container on a full pass, so a reference
graph kept alive next to the measured stack would tax each heavy click
with garbage-collection time that is not the program's — and would be
counted in ``peak_rss_mb`` as if the serving stack held it.  (CPython
seldom returns freed heap to the system, so dropping a big object before
the run is not enough: what must not count is allocated in a child.)

Only wall time is reported.  The simulated ``SimClock`` milliseconds the
endpoints also compute are never read here.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import pathlib
import re
import shutil
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.model import Bar, BarType, Direction
from repro.core.queries import (
    MemberPattern,
    members_query,
    object_chart_query,
    property_chart_query,
    subclass_chart_query,
    subclass_closure_query,
)
from repro.datasets import OWL_THING
from repro.endpoint import LocalEndpoint, RemoteEndpoint, SimulatedVirtuosoServer
from repro.explorer import ExplorerSession, Pane, SettingsForm, connect
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.snapshot import open_snapshot, write_snapshot
from repro.rdf.terms import URI
from repro.rdf.vocab import DBO, OWL, RDF, RDFS
from repro.serve import PoolFrontend, ServeConfig, ServeFrontend, demo_scenarios
from repro.sparql.executor import run_to_completion
from repro.sparql.planner import build_physical_plan

from . import dataset
from . import workloads as wl
from .stats import median, try_high_percentile

__all__ = [
    "PAGE_SIZE",
    "SETUP_REPEATS",
    "RunResult",
    "RunContext",
    "Workload",
    "ChartOneshot",
    "ChartPaged",
    "ExploreLadder",
    "PoolServe",
    "WORKLOAD_CLASSES",
    "class_uri",
    "pattern_for",
    "query_text",
    "rows_digest",
    "in_child",
    "reset_peak_rss",
    "peak_rss_mb",
    "LEDGER_ONLY",
]

PAGE_SIZE = 50
POOL_WORKERS = 2
POOL_MAX_ACTIVE = 8
SETUP_REPEATS = 3
#: Every n-th explore_ladder click (5 %) has its chart checked against a
#: bare LocalEndpoint on the same graph version.
LADDER_CHECK_EVERY = 20

_OUT = Direction.OUTGOING
_IN = Direction.INCOMING
_RDF_TYPE = RDF.term("type")
_SCHEMA_CLASSES = (OWL.term("Class"), RDFS.term("Class"))
_SUBCLASS_OF = RDFS.term("subClassOf")


# ----------------------------------------------------------------------
# Rendering clicks
# ----------------------------------------------------------------------


def class_uri(name: str) -> URI:
    return OWL_THING if name == "Thing" else DBO.term(name)


def pattern_for(click: wl.Click) -> MemberPattern:
    """The member pattern of the pane a click lands on."""
    base = MemberPattern.of_type(class_uri(click.cls))
    if click.depth == 2:
        return base.and_property(DBO.term(click.via))
    if click.depth == 3:
        return base.reroot_via(DBO.term(click.via))
    return base


def query_text(click: wl.Click) -> str:
    """The SPARQL behind the chart a click ends on — what the bare
    endpoints receive, and what ChartEngine generates for the same click."""
    pattern = pattern_for(click)
    cls = class_uri(click.cls)
    if click.shape == "prop_out":
        return property_chart_query(pattern, _OUT)
    if click.shape == "prop_in":
        return property_chart_query(pattern, _IN)
    if click.shape == "subclass":
        return subclass_chart_query(pattern, cls)
    if click.shape == "connections":
        via = DBO.term(click.via)
        return object_chart_query(pattern.and_property(via), via, _OUT)
    if click.shape == "table":
        return members_query(pattern, limit=200)
    if click.shape == "closure":
        return subclass_closure_query(cls)
    raise ValueError(f"unknown click shape {click.shape!r}")


#: (label variable, count variable) of each chart shape's result rows;
#: count is None where the answer is a plain set of labels.
_ANSWER_VARS = {
    "prop_out": ("p", "count"),
    "prop_in": ("p", "count"),
    "subclass": ("sub", "count"),
    "connections": ("type", "count"),
    "table": ("s", None),
    "closure": ("sub", None),
}


# ----------------------------------------------------------------------
# Canonical answers
# ----------------------------------------------------------------------


def _digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def row_lines(rows: Iterable[dict]) -> List[str]:
    """One canonical string per result row."""
    return [
        "\t".join(
            f"{name}={term.n3()}"
            for name, term in sorted(row.items())
            if term is not None
        )
        for row in rows
    ]


def rows_digest(rows: Iterable[dict]) -> str:
    """Hash of a result's row *multiset* (row order does not count)."""
    return _digest(row_lines(rows))


#: ``... LIMIT n`` with no ORDER BY may return *any* n solutions, and
#: which ones depends on the join order the plan happened to take.
_LIMIT = re.compile(r"\s+LIMIT\s+(\d+)\s*$")


def answer_of(text: str, rows: Sequence[dict]):
    """What a run keeps of an answer for the checks: the multiset hash,
    or the rows themselves where only membership can be checked."""
    if _LIMIT.search(text) and "ORDER BY" not in text:
        return row_lines(rows)
    return rows_digest(rows)


def limited_answer_ok(text: str, lines: Sequence[str], full: Sequence[str]) -> bool:
    """``lines`` is a legal answer to ``text`` given the unlimited
    answer ``full``: as many rows as the limit allows, each a solution."""
    limit = int(_LIMIT.search(text).group(1))
    remaining = Counter(full)
    for line in lines:
        if remaining[line] <= 0:
            return False
        remaining[line] -= 1
    return len(lines) == min(limit, len(full))


def _count_of(term) -> int:
    return int(float(term.lexical))


def chart_from_rows(shape: str, cls: URI, rows: Iterable[dict]) -> Dict[str, int]:
    """What ChartEngine should make of ``rows``: URI label -> height."""
    label_var, count_var = _ANSWER_VARS[shape]
    chart: Dict[str, int] = {}
    for row in rows:
        label = row.get(label_var)
        if not isinstance(label, URI) or (shape == "closure" and label == cls):
            continue
        chart[label.n3()] = _count_of(row[count_var]) if count_var else 1
    return chart


def chart_ok(click: wl.Click, pairs: Sequence[Tuple[URI, int]], reference) -> bool:
    """The chart a ladder click ended on equals what the bare
    ``reference`` endpoint answers for the same click."""
    text = query_text(click)
    cls = class_uri(click.cls)
    chart = {label.n3(): height for label, height in pairs}
    if click.shape == "table":
        # LIMIT 200 without ORDER BY: any 200 members are a right answer.
        full = chart_from_rows("table", cls, reference.query(_LIMIT.sub("", text)).result.rows)
        limit = int(_LIMIT.search(text).group(1))
        return len(chart) == min(limit, len(full)) and chart.keys() <= full.keys()
    return chart == chart_from_rows(click.shape, cls, reference.query(text).result.rows)


def in_child(function, *args):
    """``function(*args)`` in a forked process that then exits; its
    (picklable) return value, or its exception raised here.

    What the call allocates never becomes resident memory of this
    process, nor of a pool worker forked from it later."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def work() -> None:
        try:
            sender.send((function(*args), None))
        except Exception as error:
            sender.send((None, error))

    child = context.Process(target=work)
    child.start()
    sender.close()
    try:
        value, error = receiver.recv()
    finally:
        child.join()
    if error is not None:
        raise error
    return value


def _high_water_kb(pid) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        return int(re.search(r"VmHWM:\s+(\d+) kB", handle.read()).group(1))


def reset_peak_rss() -> bool:
    """Set this process's resident high-water mark (VmHWM) back to what
    is resident now; call when the set-ups are done, before the run.

    False where the kernel does not allow it: ``peak_rss_mb`` then
    includes whatever the warm-up and the earlier set-ups peaked at."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident memory of the serving processes (MB): this
    process's high-water mark since :func:`reset_peak_rss` plus that of
    each live child — the pool's workers, whose mark starts at what they
    share with this process when forked.  Pages of the snapshot file
    count once in every process that touched them.

    Read it when the run ends, before ``workload.close()`` and before
    the reference store is generated."""
    workers = multiprocessing.active_children()
    return sum(_high_water_kb(pid) for pid in ["self"] + [w.pid for w in workers]) / 1024.0


# ----------------------------------------------------------------------
# Shared state of one measurement
# ----------------------------------------------------------------------


@dataclass
class RunContext:
    """What one measurement's set-ups, run and checks share."""

    scale_name: str
    seed: int
    sizes: wl.Sizes
    workdir: pathlib.Path
    dataset_hash: str = ""
    #: (add, remove) triple lists; entry 0 is the untimed priming
    #: removal.  Filled by :meth:`inspect`.
    edit_plan: List[Tuple[list, list]] = field(default_factory=list)

    def inspect(self, batches: int) -> None:
        """Check the dataset against the manifest and pick ``batches``
        edit batches from it (in a child: see :func:`inspect_dataset`)."""
        self.dataset_hash, batch_texts = in_child(
            inspect_dataset, self.scale_name, self.seed, batches
        )
        removed = [list(parse_ntriples(text)) for text in batch_texts]
        self.edit_plan = [
            (removed[k - 1] if k else [], removed[k]) for k in range(len(removed))
        ]


def inspect_dataset(scale_name: str, seed: int, batches: int) -> Tuple[str, List[str]]:
    """Generate the dataset and check it against the manifest; returns
    its content hash and, as N-Triples text (terms do not pickle), the
    triples each of ``batches`` + 1 edit batches removes.

    Edits touch instance-level triples only, taken in the store's
    deterministic iteration order: schema triples stay put, so the
    class tree every click refers to never changes."""
    graph = dataset.generate(scale_name).graph
    content_hash = dataset.verify(scale_name, graph)
    for cls, names in wl.VIA_PROPERTIES.items():
        for name in names:
            if graph.dictionary.lookup(DBO.term(name)) is None:
                raise dataset.DatasetDrift(
                    f"via property dbo:{name} of {cls} is not in the dataset"
                )
    editable = [
        triple
        for triple in graph.triples()
        if triple.predicate != _SUBCLASS_OF
        and not (
            triple.predicate == _RDF_TYPE and triple.object in _SCHEMA_CLASSES
        )
    ]
    picks = wl.edit_batches(seed, batches, len(editable))
    return content_hash, [
        serialize_ntriples(editable[i] for i in batch) for batch in picks
    ]


@dataclass
class RunResult:
    """Everything one timed run observed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Seconds inside timed regions that count towards clicks_per_s.
    busy_s: float = 0.0
    completed: int = 0
    #: Full-result and first-bars latency of the Fig. 4 clicks, and of
    #: all property-chart clicks (the "mix").
    fig4_full_ms: List[float] = field(default_factory=list)
    fig4_first_ms: List[float] = field(default_factory=list)
    mix_full_ms: List[float] = field(default_factory=list)
    mix_first_ms: List[float] = field(default_factory=list)
    edit_ms: List[float] = field(default_factory=list)
    result_rows: int = 0
    pages: int = 0
    token_bytes: List[int] = field(default_factory=list)
    #: (click id or query key, text, ``answer_of``) for the answer checks.
    answers: List[Tuple[object, str, object]] = field(default_factory=list)
    #: explore_ladder: (position in the run, click, the chart it ended on
    #: as (label, height) pairs) of the clicks sampled for checking.
    charts: List[Tuple[int, wl.Click, list]] = field(default_factory=list)

    def fail(self, what: str, completed: bool = False) -> None:
        """Record a failed click; ``completed`` says it had returned and
        been counted, which a wrong answer takes back: ``clicks_per_s``
        counts correct clicks only."""
        self.failures.append(what)
        if completed:
            self.completed -= 1

    def record_latency(self, click: wl.Click, full_s: float, first_s: Optional[float] = None) -> None:
        """``first_s`` is left out by paths that hand a chart over only
        when it is complete: the first bars then arrive with the last."""
        full_ms = full_s * 1000.0
        first_ms = full_ms if first_s is None else first_s * 1000.0
        if click.is_property_chart:
            self.mix_full_ms.append(full_ms)
            self.mix_first_ms.append(first_ms)
        if click.is_fig4:
            self.fig4_full_ms.append(full_ms)
            self.fig4_first_ms.append(first_ms)


def apply_edit(graph, add: Sequence, remove: Sequence) -> None:
    """One edit batch: a single version bump, listeners included."""
    with graph.bulk():
        for triple in add:
            graph.add(*triple)
        for triple in remove:
            graph.remove(*triple)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Life cycle shared by the four workloads."""

    name = ""

    def __init__(self, context: RunContext):
        self.context = context
        #: Seconds of the named set-up step in the latest ``build()``.
        self.build_steps: Dict[str, float] = {}
        #: Ids of the run's property-chart clicks (for reading the trace).
        self.property_click_ids: set = set()
        self._reference: Dict[str, object] = {}

    # -- set-up ---------------------------------------------------------

    def edit_batches(self) -> int:
        """How many timed edit batches one run of this workload makes."""
        return self.context.sizes.edit_probes

    def build(self) -> None:
        """One complete set-up, from dataset generation to a ready stack."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`build` made (stores, files, processes), so
        the next set-up starts from nothing and two stacks are never
        resident at once."""

    def _generate(self):
        started = perf_counter()
        graph = dataset.generate(self.context.scale_name).graph
        self.build_steps["datasets.generate_s"] = perf_counter() - started
        return graph

    # -- run ------------------------------------------------------------

    def run(self, recorder=None) -> RunResult:
        raise NotImplementedError

    # -- after the run --------------------------------------------------

    def reference_rows(self, reference_graph, text: str):
        """The other engine's rows for ``text`` on the reference store."""
        return LocalEndpoint(reference_graph).query(text).result.rows

    def check(self, result: RunResult, reference_graph) -> None:
        """Compare every recorded answer with the reference's."""
        for key, text, answer in result.answers:
            limited = isinstance(answer, list)
            expected = self._reference.get(text)
            if expected is None:
                if limited:
                    rows = self.reference_rows(reference_graph, _LIMIT.sub("", text))
                    expected = row_lines(rows)
                else:
                    expected = rows_digest(self.reference_rows(reference_graph, text))
                self._reference[text] = expected
            ok = (
                limited_answer_ok(text, answer, expected)
                if limited
                else answer == expected
            )
            if not ok:
                # Solo clicks (pool_serve) were never in the throughput count.
                counted = not (isinstance(key, tuple) and key[0] == "solo")
                result.fail(f"{self.name}: wrong answer for {key}", completed=counted)

    def comparison_passes(self, result: RunResult, recorder, reference_graph) -> None:
        """Further passes a traced run makes before its spans are read."""

    def edit_probe(self, result: RunResult, reference_graph) -> None:
        """Edit batches for a workload whose clicks include none; may
        consume ``reference_graph`` (runs after :meth:`check`)."""


def _click_span(recorder, click_id: int, name: str):
    return recorder.click(click_id, name) if recorder is not None else nullcontext()


def _suspended(recorder):
    return recorder.suspended() if recorder is not None else nullcontext()


class ChartOneshot(Workload):
    """Bare ``LocalEndpoint(graph).query(text)`` on the in-memory Graph."""

    name = "chart_oneshot"

    def build(self) -> None:
        self.graph = self._generate()
        self.endpoint = LocalEndpoint(self.graph)

    def close(self) -> None:
        self.graph = self.endpoint = None

    def clicks(self) -> List[wl.Click]:
        return wl.chart_clicks(self.context.seed, self.context.sizes.chart_clicks)

    def run(self, recorder=None) -> RunResult:
        result = RunResult()
        endpoint = self.endpoint
        clicks = self.clicks()
        self.property_click_ids = {c.id for c in clicks if c.is_property_chart}
        for click in clicks:
            text = query_text(click)
            result.attempted += 1
            try:
                with _click_span(recorder, click.id, "click"):
                    started = perf_counter()
                    rows = endpoint.query(text).result.rows
                    elapsed = perf_counter() - started
            except Exception as error:  # a failed click is a finding, not a crash
                result.busy_s += perf_counter() - started
                result.fail(f"{self.name}: click {click.id} raised {error!r}")
                continue
            result.busy_s += elapsed
            result.completed += 1
            result.result_rows += len(rows)
            result.record_latency(click, elapsed)
            result.answers.append((click.id, text, answer_of(text, rows)))
        # Edit batches on the store this workload serves from, after the
        # clicks (the click mix itself has no writes).  No listener is
        # attached to this graph: the cost is rdf.graph's alone.
        plan = self.context.edit_plan
        apply_edit(self.graph, *plan[0])
        for add, remove in plan[1:]:
            started = perf_counter()
            apply_edit(self.graph, add, remove)
            result.edit_ms.append((perf_counter() - started) * 1000.0)
        return result

    def reference_rows(self, reference_graph, text: str):
        # The endpoint ran the recursive evaluator; the reference is the
        # physical engine.
        return run_to_completion(build_physical_plan(reference_graph, text)).rows


class _SnapshotWorkload(Workload):
    """What the two workloads that serve from one snapshot file share."""

    def _build_snapshot(self) -> None:
        """Generate the dataset and write the snapshot file, in a child:
        the process that serves the file (and the workers forked from
        it) never holds the generator's graph."""
        self.snapshot_path = str(self.context.workdir / f"{self.name}.snap")
        self.build_steps.update(
            in_child(write_dataset_snapshot, self.context.scale_name, self.snapshot_path)
        )

    def edit_probe(self, result: RunResult, reference_graph) -> None:
        """A snapshot store absorbs an edit batch by being rebuilt: edit
        the source graph, write the file again, reopen it."""
        plan = self.context.edit_plan
        probe_path = str(self.context.workdir / f"{self.name}.edit.snap")
        # Untimed: the priming removal, and a first write of this graph
        # (the first two rebuilds read 12 % slower than the rest).
        apply_edit(reference_graph, *plan[0])
        write_snapshot(reference_graph, probe_path)
        for add, remove in plan[1:]:
            started = perf_counter()
            apply_edit(reference_graph, add, remove)
            write_snapshot(reference_graph, probe_path)
            reopened = open_snapshot(probe_path)
            result.edit_ms.append((perf_counter() - started) * 1000.0)
            reopened.close()


def write_dataset_snapshot(scale_name: str, path: str) -> Dict[str, float]:
    """Generate the dataset and write it to ``path``; seconds per step."""
    started = perf_counter()
    graph = dataset.generate(scale_name).graph
    generated = perf_counter()
    write_snapshot(graph, path)
    return {
        "datasets.generate_s": generated - started,
        "rdf.snapshot.build_s": perf_counter() - generated,
    }


class ChartPaged(_SnapshotWorkload):
    """The chart_oneshot clicks, paged through the simulated HTTP wire
    over the mmap snapshot."""

    name = "chart_paged"

    def build(self) -> None:
        self._build_snapshot()
        started = perf_counter()
        self.snapshot = open_snapshot(self.snapshot_path)
        self.build_steps["rdf.snapshot.open_ms"] = (perf_counter() - started) * 1000.0
        self.server = SimulatedVirtuosoServer(self.snapshot)
        self.endpoint = RemoteEndpoint(self.server)

    def close(self) -> None:
        self.snapshot.close()
        self.snapshot = self.server = self.endpoint = None

    clicks = ChartOneshot.clicks

    def run(self, recorder=None) -> RunResult:
        result = RunResult()
        endpoint = self.endpoint
        clicks = self.clicks()
        self.property_click_ids = {c.id for c in clicks if c.is_property_chart}
        self.rss_before_run = self.snapshot.resident_bytes()
        for click in clicks:
            text = query_text(click)
            result.attempted += 1
            tokens: List[int] = []
            try:
                with _click_span(recorder, click.id, "click"):
                    started = perf_counter()
                    response = endpoint.query(text, page_size=PAGE_SIZE)
                    first = perf_counter() - started
                    rows = list(response.result.rows)
                    pages = 1
                    while not response.complete:
                        tokens.append(len(response.continuation))
                        response = endpoint.query(
                            text,
                            page_size=PAGE_SIZE,
                            continuation=response.continuation,
                        )
                        rows.extend(response.result.rows)
                        pages += 1
                    elapsed = perf_counter() - started
            except Exception as error:
                result.busy_s += perf_counter() - started
                result.fail(f"{self.name}: click {click.id} raised {error!r}")
                continue
            result.busy_s += elapsed
            result.completed += 1
            result.result_rows += len(rows)
            result.pages += pages
            result.token_bytes.extend(tokens)
            result.record_latency(click, elapsed, first)
            result.answers.append((click.id, text, answer_of(text, rows)))
        self.rss_after_run = self.snapshot.resident_bytes()
        return result


class ExploreLadder(Workload):
    """Explorer calls over the ``connect()`` stack on a mutable graph."""

    name = "explore_ladder"

    def edit_batches(self) -> int:
        return self.context.sizes.ladder_clicks // wl.EDIT_EVERY

    def build(self) -> None:
        self.graph = self._generate()
        settings = SettingsForm()
        server = SimulatedVirtuosoServer(self.graph, url=settings.endpoint_url)
        self.endpoint = connect(settings, {settings.endpoint_url: server})
        self.session = ExplorerSession(self.endpoint, settings)

    def close(self) -> None:
        self.graph = self.endpoint = self.session = None

    def clicks(self) -> List[wl.Click]:
        return wl.ladder_clicks(self.context.seed, self.context.sizes.ladder_clicks)

    def perform(self, click: wl.Click) -> List[Tuple[URI, int]]:
        """One click through the explorer; the chart it ends on as
        (label, height) pairs."""
        session = self.session
        engine = session.engine
        cls = class_uri(click.cls)
        if click.depth == 1:
            pane = session.open_class_pane(cls)
        else:
            bar = engine.refresh_count(
                Bar(label=cls, type=BarType.CLASS, count=0, pattern=pattern_for(click))
            )
            pane = Pane(
                engine=engine, statistics=session.statistics_service, bar=bar
            )
        if click.shape == "prop_out":
            answer = pane.property_chart(_OUT).as_rows()
        elif click.shape == "prop_in":
            answer = pane.property_chart(_IN).as_rows()
        elif click.shape == "subclass":
            answer = pane.subclass_chart().as_rows()
        elif click.shape == "connections":
            answer = pane.connections_chart(DBO.term(click.via), _OUT).as_rows()
        elif click.shape == "table":
            members = engine.materialise(pane.bar, limit=200).uris
            answer = [(member, 1) for member in members]
        else:
            pane.corner_statistics()
            answer = [
                (sub, 1)
                for sub in session.statistics_service.all_subclasses(cls)
            ]
        if click.depth == 1:
            session.close_pane(pane)
        return answer

    def run(self, recorder=None) -> RunResult:
        result = RunResult()
        clicks = self.clicks()
        self.property_click_ids = {c.id for c in clicks if c.is_property_chart}
        plan = self.context.edit_plan
        with _suspended(recorder):
            apply_edit(self.graph, *plan[0])
        edits = iter(plan[1:])
        for position, click in enumerate(clicks, start=1):
            result.attempted += 1
            try:
                with _click_span(recorder, click.id, "click"):
                    started = perf_counter()
                    answer = self.perform(click)
                    elapsed = perf_counter() - started
            except Exception as error:
                result.busy_s += perf_counter() - started
                result.fail(f"{self.name}: click {click.id} raised {error!r}")
                continue
            result.busy_s += elapsed
            result.completed += 1
            result.result_rows += len(answer)
            result.record_latency(click, elapsed)
            if position % LADDER_CHECK_EVERY == 0:
                result.charts.append((position, click, answer))
            if position % wl.EDIT_EVERY == 0:
                add, remove = next(edits)
                with _click_span(recorder, -position, "edit"):
                    started = perf_counter()
                    apply_edit(self.graph, add, remove)
                    elapsed = perf_counter() - started
                result.busy_s += elapsed
                result.edit_ms.append(elapsed * 1000.0)
        return result

    def check(self, result: RunResult, reference_graph) -> None:
        """Replay the run's edits on the reference store and compare each
        sampled chart with a bare endpoint's answer on the graph version
        the click saw.  (Asking the run's own graph between clicks is
        simpler, but a heavy reference query then sets the run's peak
        memory: 146 MB against 118 MB, depending on which clicks the
        seed's order put at the sampled positions.)"""
        plan = self.context.edit_plan
        apply_edit(reference_graph, *plan[0])
        applied = 0
        for position, click, chart in result.charts:
            # Batch k went in after click k * EDIT_EVERY.
            while applied < (position - 1) // wl.EDIT_EVERY:
                applied += 1
                apply_edit(reference_graph, *plan[applied])
            if not chart_ok(click, chart, LocalEndpoint(reference_graph)):
                result.fail(f"{self.name}: wrong chart for click {click.id}", completed=True)


class PoolServe(_SnapshotWorkload):
    """Sessions through ``PoolFrontend`` with two forked workers."""

    name = "pool_serve"

    def build(self) -> None:
        self._build_snapshot()
        started = perf_counter()
        self.frontend = self.pool(POOL_WORKERS)
        self.build_steps["serve.pool.boot_ms"] = (perf_counter() - started) * 1000.0

    @staticmethod
    def _config() -> ServeConfig:
        return ServeConfig(max_active=POOL_MAX_ACTIVE, page_size=PAGE_SIZE)

    def pool(self, workers: int) -> PoolFrontend:
        return PoolFrontend(self.snapshot_path, workers=workers, config=self._config())

    def comparison_passes(self, result: RunResult, recorder, reference_graph) -> None:
        """The same sessions on a one-worker pool, then in process on a
        ``ServeFrontend`` over the same snapshot — the only place the
        executor's spans are visible: pool workers are other processes."""
        scratch = RunResult()
        single = self.pool(1)
        try:
            self.one_worker_wall_s = self.serve(single, scratch)
        finally:
            single.close()
        snapshot = open_snapshot(self.snapshot_path)
        try:
            in_process = ServeFrontend(LocalEndpoint(snapshot), config=self._config())
            self.in_process_wall_s = self.serve(in_process, scratch, recorder, click_id=1)
        finally:
            snapshot.close()
        self.check(scratch, reference_graph)
        result.failures.extend(f"comparison pass: {f}" for f in scratch.failures)

    def close(self) -> None:
        self.frontend.close()

    def sessions(self) -> List[Tuple[str, Tuple[str, ...]]]:
        by_name = {s.name: tuple(s.queries) for s in demo_scenarios(OWL_THING)}
        names = wl.pool_sessions(self.context.seed, self.context.sizes.pool_sessions)
        return [(name, by_name[name]) for name in names]

    def run(self, recorder=None) -> RunResult:
        result = RunResult()
        self.serve_wall_s = self.serve(self.frontend, result, recorder)
        self._solo(result)
        return result

    def _solo(self, result: RunResult) -> None:
        """The Fig. 4 click, one at a time through the idle pool: the
        only per-click latency visible from outside ``run()``.  After
        the batch, so both workers have planned the query before; not
        part of the throughput figure."""
        frontend = self.frontend
        for click in wl.solo_clicks(self.context.sizes.solo_clicks):
            text = query_text(click)
            key = ("solo", click.id)
            result.attempted += 1
            frontend.submit(key, [text])
            started = perf_counter()
            report = frontend.run()[key]
            elapsed = perf_counter() - started
            if report.outcome != "completed":
                result.fail(f"{self.name}: solo click {click.id} {report.outcome}: {report.error}")
                continue
            # run() hands rows over only when the session has finished.
            result.record_latency(click, elapsed)
            result.result_rows += len(report.rows[0])
            result.answers.append((key, text, answer_of(text, report.rows[0])))

    def serve(self, frontend, result: RunResult, recorder=None, click_id: int = 0) -> float:
        """All sessions submitted at t=0 to ``frontend`` (this pool, or a
        comparison frontend); wall seconds of its ``run()``."""
        sessions = self.sessions()
        for index, (_name, queries) in enumerate(sessions):
            frontend.submit(("session", index), list(queries))
        with _click_span(recorder, click_id, "serve"):
            started = perf_counter()
            reports = frontend.run()
            wall = perf_counter() - started
        result.busy_s += wall
        for index, (name, queries) in enumerate(sessions):
            report = reports[("session", index)]
            result.attempted += len(queries)
            if report.outcome != "completed":
                result.fail(f"{self.name}: session {index} ({name}) {report.outcome}: {report.error}")
                continue
            result.completed += len(queries)
            result.pages += report.pages
            for text, rows in zip(queries, report.rows):
                result.result_rows += len(rows)
                result.answers.append((("session", index), text, answer_of(text, rows)))
        return wall


WORKLOAD_CLASSES: Dict[str, Callable[[RunContext], Workload]] = {
    cls.name: cls for cls in (ChartOneshot, ChartPaged, ExploreLadder, PoolServe)
}


# ----------------------------------------------------------------------
# Driving one measurement
# ----------------------------------------------------------------------


def timed_setups(workload: Workload, repeats: int = SETUP_REPEATS) -> Tuple[List[float], Dict[str, float]]:
    """Inspect the dataset (manifest, edit batches), then ``repeats``
    set-ups from nothing; the last one stays built.

    Returns the wall seconds of each, and the median of each named step
    (``datasets.generate_s``, ``rdf.snapshot.build_s``, ...)."""
    workload.context.inspect(workload.edit_batches())
    seconds: List[float] = []
    steps: Dict[str, List[float]] = {}
    for repeat in range(repeats):
        gc.collect()
        started = perf_counter()
        workload.build()
        seconds.append(perf_counter() - started)
        for name, value in workload.build_steps.items():
            steps.setdefault(name, []).append(value)
        if repeat < repeats - 1:
            workload.close()
    gc.collect()
    return seconds, {name: median(values) for name, values in steps.items()}


def warm_up(name: str, workdir: pathlib.Path) -> None:
    """Run the workload once, tiny, on a throw-away smoke-scale stack."""
    sizes = wl.Sizes(
        chart_clicks=20, ladder_clicks=100, pool_sessions=5,
        solo_clicks=1, edit_probes=1,
    )
    workload = WORKLOAD_CLASSES[name](RunContext("smoke", 0, sizes, workdir))
    timed_setups(workload, repeats=1)
    try:
        workload.run()
    finally:
        workload.close()


def after_run(workload: Workload, result: RunResult, use_reference=None) -> None:
    """Generate the reference store and check the answers on it; then
    ``use_reference(graph)`` may read it (the traced run's probes), and
    last the workload may spend it on its edit probe."""
    reference_graph = dataset.generate(workload.context.scale_name).graph
    workload.check(result, reference_graph)
    if use_reference is not None:
        use_reference(reference_graph)
    workload.edit_probe(result, reference_graph)


#: Over *all* property-chart clicks; printed by the ledger form only,
#: p90 only where the sample supports it (100 clicks: ``--seconds`` >= 29).
LEDGER_ONLY: Tuple[Tuple[str, str, str, float], ...] = (
    ("prop_mix_p50_ms", "ms", "lower", 0.25),
    ("prop_mix_p90_ms", "ms", "lower", 0.15),
)


def end_to_end_metrics(setups: Sequence[float], result: RunResult, peak_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (BENCHMARK.json's, and
    the ledger-only rows); ``peak_mb`` is :func:`peak_rss_mb` read when
    the run ended.  Call after the answer checks: a click that answered
    wrongly is not in ``completed`` any more."""
    metrics = {
        "setup_s": median(setups),
        "clicks_per_s": result.completed / result.busy_s,
        "prop_chart_p50_ms": median(result.fig4_full_ms),
        "first_bars_p50_ms": median(result.fig4_first_ms),
        "edit_p50_ms": median(result.edit_ms),
        "peak_rss_mb": peak_mb,
        "prop_mix_p50_ms": median(result.mix_full_ms),
    }
    p90 = try_high_percentile(result.mix_full_ms, 90)
    if p90 is not None:
        metrics["prop_mix_p90_ms"] = p90
    return metrics


def clean_workdir(workdir: pathlib.Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
