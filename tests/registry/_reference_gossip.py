"""A frozen gossip merge oracle, independent of the backend's own merge.

``GossipDiscovery`` merges per-digest payload groups and skips records
the receiver already holds.  This module keeps a separate copy of the
flat-payload merge the backend used before that rewrite: ``_newer``,
``_payload``, ``_deliver``, ``_merge`` and ``_enforce_cap`` are those
functions and methods verbatim, ``_newer`` lifted to module level and
the methods on an oracle subclass that inherits everything else
(membership, rounds, the RNG stream, ``record_miss``).  Do not "tidy"
them: their value is that they do not change when the backend does.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.registry.discovery import GossipDiscovery, ViewRecord


def _newer(incoming: ViewRecord, current: Optional[ViewRecord]) -> bool:
    """Merge rule: strictly newer version wins; ties keep *absent*."""
    if current is None:
        return True
    if incoming.version != current.version:
        return incoming.version > current.version
    return current.present and not incoming.present


class ReferenceGossip(GossipDiscovery):
    """``GossipDiscovery`` with the frozen flat-payload merge path."""

    def _deliver(
        self, receiver: str, payload: List[Tuple[str, str, ViewRecord]]
    ) -> None:
        """Apply one directed payload, metering wire records.

        Under ``digest-summary`` only the records strictly newer than
        the receiver's current knowledge cross the wire (the summary
        handshake filters the rest) — the merge result is identical to
        a full push-pull because :meth:`_merge` discards non-newer
        records anyway; only the metered ``records_sent`` differs.
        """
        view = self._views.get(receiver)
        if view is None:
            return  # receiver departed before delivery
        if self.exchange == "digest-summary":
            payload = [
                (holder, digest, record)
                for holder, digest, record in payload
                if holder != receiver
                and _newer(record, view.get(digest, {}).get(holder))
            ]
        self.records_sent += len(payload)
        self._merge(receiver, payload)

    def _payload(self, name: str) -> List[Tuple[str, str, ViewRecord]]:
        """Everything ``name`` knows: first-hand state + its view."""
        out: List[Tuple[str, str, ViewRecord]] = []
        firsthand = self._firsthand.get(name)
        if firsthand is not None:
            for digest, record in firsthand.items():
                out.append((name, digest, record))
        for digest, records in self._views.get(name, {}).items():
            for holder, record in records.items():
                out.append((holder, digest, record))
        return out

    def _merge(
        self, viewer: str, payload: List[Tuple[str, str, ViewRecord]]
    ) -> None:
        view = self._views.get(viewer)
        if view is None:
            return  # viewer departed mid-round
        touched: Set[str] = set()
        for holder, digest, record in payload:
            if holder == viewer:
                continue  # self-knowledge is first-hand only
            records = view.setdefault(digest, {})
            if _newer(record, records.get(holder)):
                records[holder] = record
                touched.add(digest)
        for digest in sorted(touched):
            self._enforce_cap(view[digest])

    def _enforce_cap(self, records: Dict[str, ViewRecord]) -> None:
        """Keep at most ``view_cap`` present and ``view_cap`` absent
        entries per digest (freshest win).

        Capping tombstones too keeps view memory bounded at
        ``2·view_cap`` records per digest under sustained churn; an
        early-dropped tombstone can at worst let an old rumour
        resurface, which the verification path then meters and
        re-suppresses (self-healing).
        """
        for wanted in (True, False):
            matching = [
                (h, r) for h, r in records.items() if r.present is wanted
            ]
            if len(matching) <= self.view_cap:
                continue
            matching.sort(
                key=lambda item: (item[1].version, item[0]), reverse=True
            )
            for holder, _record in matching[self.view_cap:]:
                del records[holder]
