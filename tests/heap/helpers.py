"""Shared fixtures for collector tests."""

from repro.heap import GcObserver


class RootSet:
    """Mutable root set used by tests as a roots provider."""

    def __init__(self):
        self.refs = []

    def __call__(self):
        return [r.oid for r in self.refs]


class RecordingObserver(GcObserver):
    """Logs every fact a collector reports, in order, as (kind, payload)."""

    def __init__(self):
        self.log = []

    def gc_start(self, gc_id):
        self.log.append(("start", gc_id))

    def gc_finalize(self, event):
        self.log.append(("finalize", event))

    def gc_move(self, event):
        self.log.append(("move", event))

    def gc_notify(self, event):
        self.log.append(("notify", event))

    def events(self, kind):
        return [payload for k, payload in self.log if k == kind]
