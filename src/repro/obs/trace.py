"""Trace record/replay: serialise the event stream to compact JSONL.

The paper splits DJXPerf into an online collector and an *offline*
analyzer (§4.4).  :class:`TraceWriter` makes that split real for the
simulator: it subscribes to the bus like any other collector and writes
every event as one compact JSON array per line, so the offline analyzer
can re-run with different thresholds (or, from a trace that carries
raw accesses, sampling periods) **without re-simulating** — and so
suite runs can fan analysis out over a process pool keyed on trace
files.

Format (one JSON value per line; ``.gz`` paths are gzip-compressed):

* line 1 — header object: ``{"format": "djx-obs-trace", "version": 1,
  "meta": {...}}``;
* ``["m", method_id, class_name, method_name, source_file,
  [[bci, line], ...]]`` — method metadata, written lazily before the
  first event that references the method id, so a reader can resolve
  frames without a live machine (JIT recompiles get their own ids and
  records);
* every other line — one event record (see
  :mod:`repro.obs.events`; the tag in position 0 selects the decoder).
"""

from __future__ import annotations

import gzip
import json
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.obs.collector import Collector
from repro.obs.events import MachineEvent, decode_record

FORMAT_NAME = "djx-obs-trace"
FORMAT_VERSION = 1


def _open_trace(path: str, mode: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class TraceWriter(Collector):
    """Collector that serialises the event stream to a trace file."""

    label = "trace-writer"
    #: Traces always carry the allocation stream (replay re-analysis
    #: needs it); subscribing a writer therefore re-enables AllocEvent
    #: construction even alongside samples-only collectors.
    wants_allocs = True

    def __init__(self, path: str, include_accesses: bool = False,
                 meta: Optional[dict] = None) -> None:
        super().__init__()
        self.path = str(path)
        #: Instance-level override of the Collector class flag: raw
        #: accesses are bulky, so they are opt-in (needed only for
        #: period-resampling replays and full-trace baselines).
        self.wants_accesses = include_accesses
        self.meta = dict(meta or {})
        self._fp = None
        self._seen_methods = set()
        self.events_written = 0

    # ------------------------------------------------------------------
    def open(self) -> "TraceWriter":
        if self._fp is None:
            self._fp = _open_trace(self.path, "w")
            header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                      "include_accesses": bool(self.wants_accesses)}
            if self.meta:
                header["meta"] = self.meta
            self._write(header)
        return self

    def attach(self, machine) -> "TraceWriter":
        """Open the file and subscribe to the machine's bus."""
        self.open()
        return super().attach(machine)

    def close(self) -> None:
        self.detach()
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "TraceWriter":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def handle_batch(self, events: Iterable[MachineEvent]) -> None:
        if self._fp is None:
            self.open()
        for event in events:
            path = getattr(event, "path", None)
            if path:
                self._ensure_method_meta(path)
            self._write(event.to_record())
            self.events_written += 1

    def _write(self, value) -> None:
        self._fp.write(json.dumps(value, separators=(",", ":")))
        self._fp.write("\n")

    def _ensure_method_meta(self, path) -> None:
        table = self.machine.method_table if self.machine is not None \
            else None
        for method_id, _bci in path:
            if method_id in self._seen_methods:
                continue
            self._seen_methods.add(method_id)
            if table is None:
                continue
            runtime = table.resolve(method_id)
            method = runtime.method
            lines = sorted(method.line_number_table().items())
            self._write(["m", method_id, method.class_name, method.name,
                         method.source_file, lines])


class TraceReader:
    """Reads a trace back as decoded events plus method metadata."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.header: dict = {}
        #: method_id → (class_name, method_name, source_file, {bci: line})
        self.methods: Dict[int, Tuple[str, str, str, Dict[int, int]]] = {}
        self._read_header()

    def _read_header(self) -> None:
        with _open_trace(self.path, "r") as fp:
            first = fp.readline()
        if not first:
            raise ValueError(f"{self.path}: empty trace file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError:
            raise ValueError(f"{self.path}: not a {FORMAT_NAME} file") from None
        if not isinstance(header, dict) \
                or header.get("format") != FORMAT_NAME:
            raise ValueError(f"{self.path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{self.path}: unsupported trace version "
                f"{header.get('version')!r} (expected {FORMAT_VERSION})")
        self.header = header

    @property
    def includes_accesses(self) -> bool:
        return bool(self.header.get("include_accesses"))

    def events(self) -> Iterator[MachineEvent]:
        """Yield events in stream order, absorbing metadata records."""
        with _open_trace(self.path, "r") as fp:
            fp.readline()                     # header
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec[0] == "m":
                    self.methods[rec[1]] = (
                        rec[2], rec[3], rec[4],
                        {int(bci): line_no for bci, line_no in rec[5]})
                    continue
                yield decode_record(rec)

    def read_all(self):
        return list(self.events())

    def frame_resolver(self):
        """A :data:`~repro.core.profile.FrameResolver` backed purely by
        the trace's method metadata — no machine required.

        Valid once the events referencing the frames have been read
        (metadata records precede first reference in the stream).
        """
        from repro.core.profile import ResolvedFrame

        methods = self.methods

        def resolve(frame):
            method_id, bci = frame
            meta = methods.get(method_id)
            if meta is None:
                return ResolvedFrame(class_name="<unknown>",
                                     method_name=f"m{method_id}",
                                     source_file="<unknown>", line=0)
            class_name, method_name, source_file, table = meta
            return ResolvedFrame(class_name=class_name,
                                 method_name=method_name,
                                 source_file=source_file,
                                 line=table.get(bci, 0))

        return resolve
