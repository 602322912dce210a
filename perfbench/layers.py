"""Per-layer metrics of a traced run.

Counts come from two places the program already exposes: the calls the
tracer's spans see, and the trace records a :class:`CountSink` receives
from every station the workload restores.  :class:`LayerProbe` attaches
the sink by hooking ``repro.experiments.snapshot.warmed_station``, the
one path every workload's stations come through, and remembers each
station so its kernel and session store can be read when an operation
ends.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Dict, List, Tuple

from tracer import BENCH_LAYER, LAYERS, Tracer

#: Boundaries (layers, or ``module.qualname`` keys) that must read a
#: nonzero call count on every workload.
COMMON_BOUNDARIES = (
    "sim",
    "procmgr",
    "faults",
    "detection",
    "core",
    "obs",
    "chaos",
    "experiments",
    "repro.chaos.invariants.InvariantChecker.accept",
    "repro.experiments.snapshot.warmed_station",
)

#: The message path: FD/REC pings and component traffic over the bus.
MESSAGE_BOUNDARIES = (
    "transport",
    "bus",
    "xmlcmd",
    "components",
    "repro.transport.channel.Channel.transmit",
    "repro.xmlcmd.fastpath.encode_ping_wire",
    "repro.components.base.BusAttachedBehavior._on_raw",
)

TRAFFIC_BOUNDARIES = (
    "workload",
    "repro.workload.plane.WorkloadPlane._issue",
    "repro.xmlcmd.commands.encode_message",
    "repro.xmlcmd.fastpath.scan_envelope",
)

REQUIRED_BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "fleet-traffic": COMMON_BOUNDARIES
    + MESSAGE_BOUNDARIES
    + TRAFFIC_BOUNDARIES
    + (
        "sim.fleet",
        "repro.sim.fleet.FleetKernel._route",
        "repro.sim.fleet._deliver",
    ),
    "table4-recovery": COMMON_BOUNDARIES + MESSAGE_BOUNDARIES,
    "strategy-traffic": COMMON_BOUNDARIES
    + MESSAGE_BOUNDARIES
    + TRAFFIC_BOUNDARIES
    + (
        "mercury",
        "repro.mercury.session_store.SessionStore._write",
        "repro.mercury.session_store.SessionStore._read",
    ),
    "availability-soak": COMMON_BOUNDARIES,
}

#: Per-layer metrics and units, in report order.
METRICS: Tuple[Tuple[str, str], ...] = tuple(
    (f"{layer}.self_s", "s") for layer in LAYERS
) + (
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("sim.fleet.epochs", "count"),
    ("sim.fleet.messages", "count"),
    ("transport.transmits", "count"),
    ("transport.drops", "count"),
    ("bus.sends", "count"),
    ("xmlcmd.encodes", "count"),
    ("xmlcmd.parses", "count"),
    ("xmlcmd.envelope_scans", "count"),
    ("xmlcmd.ping_wires", "count"),
    ("xmlcmd.parses_per_transmit", "ratio"),
    ("components.messages_handled", "count"),
    ("mercury.store_writes", "count"),
    ("mercury.store_reads", "count"),
    ("mercury.store_retries", "count"),
    ("procmgr.restarts", "count"),
    ("procmgr.kills", "count"),
    ("detection.declarations", "count"),
    ("detection.retractions", "count"),
    ("core.restart_requests", "count"),
    ("core.plans", "count"),
    ("core.escalations", "count"),
    ("core.first_plan_cure_ratio", "ratio"),
    ("faults.injected", "count"),
    ("workload.requests", "count"),
    ("workload.retries", "count"),
    ("workload.goodput_rps", "1/s"),
    ("obs.records", "count"),
    ("chaos.records_checked", "count"),
    ("experiments.template_restores", "count"),
    ("tracing.overhead_ratio", "ratio"),
)


class CountSink:
    """Counts one station's trace records by kind, and which failures
    needed more than their first restart."""

    def __init__(self) -> None:
        self.kinds: Counter = Counter()
        self.cured: set = set()
        self.remanifested: set = set()

    def accept(self, record) -> None:
        kind = record.kind
        self.kinds[kind] += 1
        if kind == "failure_cured":
            self.cured.add(record.data["failure_id"])
        elif kind == "failure_remanifested":
            self.remanifested.add(record.data["failure_id"])

    def close(self) -> None:
        pass


class LayerProbe:
    """Station hook plus the per-operation reading of station counters."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.kinds: Counter = Counter()
        self.cured = 0
        self.cured_first_time = 0
        self.events = 0
        self.store_retries = 0
        self.drops = 0
        self._live: List[Tuple[object, int, CountSink]] = []

    def install(self) -> None:
        """Hook ``warmed_station`` everywhere a ``repro`` module holds it,
        and count the messages channels drop.

        Runs after :meth:`Tracer.install`, so the hooks sit outside the
        program's spans and their own time is kept apart.
        """
        wrap = self.tracer.wrap
        CountSink.accept = wrap(CountSink.accept, BENCH_LAYER, "CountSink.accept")
        self._count_drops(sys.modules["repro.transport.channel"].Channel)
        snapshot = sys.modules["repro.experiments.snapshot"]
        original = snapshot.warmed_station
        live = self._live

        def warmed_station(*args, **kwargs):
            station = original(*args, **kwargs)
            sink = CountSink()
            station.kernel.trace.add_sink(sink)
            live.append((station, station.kernel.events_executed, sink))
            return station

        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            if getattr(module, "warmed_station", None) is original:
                module.warmed_station = warmed_station

    def _count_drops(self, channel: type) -> None:
        """Drops: sends the fault fabric discards, and in-flight messages
        a severed connection never delivers."""
        transmit = channel.transmit
        deliver = channel._deliver
        probe = self

        def counted_transmit(self, sender, message):
            lost = self.messages_lost
            transmit(self, sender, message)
            if self.messages_lost != lost:
                probe.drops += 1

        def counted_deliver(self, receiver, message):
            if not self.open:
                probe.drops += 1
            deliver(self, receiver, message)

        channel.transmit = self.tracer.wrap(
            counted_transmit, BENCH_LAYER, "Channel.transmit drops"
        )
        channel._deliver = self.tracer.wrap(
            counted_deliver, BENCH_LAYER, "Channel._deliver drops"
        )

    def collect(self) -> None:
        """Fold the stations restored since the last call into the totals."""
        for station, events_at_restore, sink in self._live:
            self.events += station.kernel.events_executed - events_at_restore
            store = station.session_store
            if store is not None:
                self.store_retries += store.ops_timed_out
            self.kinds.update(sink.kinds)
            self.cured += len(sink.cured)
            self.cured_first_time += len(sink.cured - sink.remanifested)
        self._live.clear()

    def reset(self) -> None:
        self._live.clear()
        self.kinds.clear()
        self.cured = self.cured_first_time = self.events = 0
        self.store_retries = self.drops = 0


def layer_metrics(tracer: Tracer, probe: LayerProbe) -> Dict[str, float]:
    """The per-layer metrics of one traced round, except the two the
    runner adds from the whole run (goodput and tracing overhead)."""
    calls = tracer.count
    kinds = probe.kinds
    metrics: Dict[str, float] = {
        f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS
    }
    transmits = calls("repro.transport.channel.Channel.transmit")
    parses = calls("repro.xmlcmd.parser.parse_xml")
    metrics.update(
        {
            "sim.events": probe.events,
            "sim.us_per_event": (
                1e6 * tracer.self_s["sim"] / probe.events if probe.events else 0.0
            ),
            "sim.fleet.epochs": calls("repro.sim.fleet.FleetKernel._route"),
            "sim.fleet.messages": calls("repro.sim.fleet._deliver"),
            "transport.transmits": transmits,
            "transport.drops": probe.drops,
            "bus.sends": calls(
                "repro.bus.client.BusClient.send",
                "repro.bus.broker.BusBroker._forward",
            ),
            "xmlcmd.encodes": calls("repro.xmlcmd.commands.encode_message"),
            "xmlcmd.parses": parses,
            "xmlcmd.envelope_scans": calls("repro.xmlcmd.fastpath.scan_envelope"),
            "xmlcmd.ping_wires": calls("repro.xmlcmd.fastpath.encode_ping_wire"),
            "xmlcmd.parses_per_transmit": parses / transmits if transmits else 0.0,
            "components.messages_handled": calls(
                "repro.components.base.BusAttachedBehavior._on_raw"
            ),
            "mercury.store_writes": calls(
                "repro.mercury.session_store.SessionStore._write",
                "repro.mercury.session_store.SessionStore.log_message",
            ),
            "mercury.store_reads": calls(
                "repro.mercury.session_store.SessionStore._read",
                "repro.mercury.session_store.SessionStore.replay_log",
            ),
            "mercury.store_retries": probe.store_retries,
            "procmgr.restarts": kinds["process_start"],
            "procmgr.kills": kinds["process_failed"] + kinds["process_stopped"],
            "detection.declarations": kinds["detection"],
            "detection.retractions": kinds["detection_retracted"],
            "core.restart_requests": kinds["failure_reported"],
            "core.plans": kinds["restart_ordered"],
            "core.escalations": kinds["failure_remanifested"],
            "core.first_plan_cure_ratio": (
                probe.cured_first_time / probe.cured if probe.cured else 0.0
            ),
            "faults.injected": kinds["failure_injected"],
            "workload.requests": calls("repro.workload.plane.WorkloadPlane._issue"),
            "workload.retries": kinds["workload_request_retried"],
            "obs.records": sum(kinds.values()),
            "chaos.records_checked": calls(
                "repro.chaos.invariants.InvariantChecker.accept"
            ),
            "experiments.template_restores": calls(
                "repro.experiments.snapshot.warmed_station"
            ),
        }
    )
    return metrics
