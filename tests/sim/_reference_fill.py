"""A frozen max-min oracle, independent of the engine's own fill.

``TransferEngine.reference_rates()`` shares its progressive fill with
the engine, so comparing the two only proves the fill agrees with
itself.  This module keeps a separate copy of the dict-keyed scalar
fill the engine used before its working state moved onto the links
(``Link.fill_cap`` / ``Link.fill_n``).  ``_fill_scalar`` is that
method verbatim, lifted to module level — do not "tidy" it: its value
is that it does not change when the engine does.
"""

from typing import Dict, List, Optional

from repro.sim.transfers import Link, Transfer


def reference_rates(transfers: Dict[int, Transfer]) -> Dict[int, float]:
    """Max-min rates of ``transfers`` (a union of whole components of
    the transfer–link graph, e.g. an engine's whole active set),
    computed without touching any engine or link state."""
    record: Dict[int, float] = {}
    if not transfers:
        return record
    capacity_left: Dict[str, float] = {}
    unfrozen_count: Dict[str, int] = {}
    involved: List[Link] = []
    for transfer in transfers.values():
        for link in transfer.links:
            if link.name not in capacity_left:
                capacity_left[link.name] = link.capacity_mbps
                unfrozen_count[link.name] = 0
                involved.append(link)
            unfrozen_count[link.name] += 1
    _fill_scalar(transfers, involved, capacity_left, unfrozen_count, record)
    return record


def _fill_scalar(
    transfers: Dict[int, Transfer],
    involved: List[Link],
    capacity_left: Dict[str, float],
    unfrozen_count: Dict[str, int],
    record: Optional[Dict[int, float]],
) -> None:
    frozen: Dict[int, bool] = {}
    remaining = len(transfers)
    while remaining > 0:
        # Bottleneck link: the one whose equal split is smallest.
        best_link: Optional[Link] = None
        best_share = 0.0
        for link in involved:
            count = unfrozen_count[link.name]
            if count == 0:
                continue
            share = capacity_left[link.name] / count
            if best_link is None or share < best_share or (
                share == best_share and link.name < best_link.name
            ):
                best_link, best_share = link, share
        assert best_link is not None  # remaining > 0 implies a link
        for tid in sorted(best_link.transfers):
            if tid in frozen:
                continue
            transfer = best_link.transfers[tid]
            if record is None:
                transfer.rate_mbps = best_share
            else:
                record[tid] = best_share
            frozen[tid] = True
            remaining -= 1
            for link in transfer.links:
                capacity_left[link.name] = max(
                    0.0, capacity_left[link.name] - best_share
                )
                unfrozen_count[link.name] -= 1
