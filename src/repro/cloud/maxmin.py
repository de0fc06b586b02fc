"""Batched max-min fair solver for one connected component.

The progressive-filling allocation is defined here in *batched* form:
every freeze round computes one aggregate capacity delta per link —
``k × share`` for a bottleneck freeze, an in-order sum of caps for a
capped-flow freeze — and applies it with a single subtract-and-clamp.
Each link is therefore updated once per round, with the same IEEE-754
operations in the same order, so the rates are a pure function of the
component's canonical flow order:

- the bottleneck is the *first* strict minimum of ``cap / count`` over
  links in first-seen (flow-major) order,
- bottleneck deltas are one ``k * share`` multiply per link,
- capped deltas accumulate in flow-major path order,
- clamping is ``x if x > 0.0 else 0.0``.

Per-solve state lives in scratch slots *on* the Link and Flow objects
(``_s_*``), validated by a monotonically increasing token, so a solve
allocates no per-link dictionaries — incremental replanning calls it
thousands of times on small components and the setup cost is what
dominates there.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.cloud.network import Flow, Link

#: Scratch-slot validity tokens (shared by solve setup and freeze
#: rounds — any unique int will do).
_TOKENS = itertools.count(1)

_INF = math.inf


def solve_rates(
    flows: Sequence["Flow"],
    capacities: Optional[dict["Link", float]] = None,
) -> list[float]:
    """Max-min rates for ONE connected component, parallel to ``flows``.

    ``flows`` must be in canonical (flow-id) order; the result is a
    pure function of that order, link capacities, and per-flow caps.
    """
    token = next(_TOKENS)
    touched: list["Link"] = []  # links in first-seen (flow-major) order
    has_capped = False
    for flow in flows:
        if flow.max_rate is not None:
            has_capped = True
        for link in flow.path:
            if link._s_stamp != token:
                link._s_stamp = token
                link._s_cap = link.capacity if capacities is None else capacities[link]
                link._s_count = 1
                touched.append(link)
            else:
                link._s_count += 1

    live = list(flows)
    while live:
        # Fair share of the tightest link among unfixed flows (first
        # strict minimum in first-seen link order).
        share = _INF
        bottleneck = None
        for link in touched:
            count = link._s_count
            if count:
                candidate = link._s_cap / count
                if candidate < share:
                    share = candidate
                    bottleneck = link
        if bottleneck is None:  # pragma: no cover - flows always cross >=1 link
            for flow in live:
                flow._s_rate = _INF if flow.max_rate is None else flow.max_rate
            break
        if has_capped:
            capped = [
                f for f in live if f.max_rate is not None and f.max_rate < share
            ]
            if capped:
                # Freeze below-share capped flows first; their released
                # capacity shifts the bottleneck, so re-search. The
                # per-link delta accumulates in flow-major path order.
                round_token = next(_TOKENS)
                delta_links: list["Link"] = []
                for flow in capped:
                    rate = flow.max_rate
                    flow._s_rate = rate
                    for link in flow.path:
                        if link._s_kstamp != round_token:
                            link._s_kstamp = round_token
                            link._s_delta = rate
                            link._s_frozen = 1
                            delta_links.append(link)
                        else:
                            link._s_delta += rate
                            link._s_frozen += 1
                for link in delta_links:
                    link._s_count -= link._s_frozen
                    new = link._s_cap - link._s_delta
                    link._s_cap = new if new > 0.0 else 0.0
                capped_set = set(capped)
                live = [f for f in live if f not in capped_set]
                continue
        # Freeze every flow crossing the bottleneck at the fair share;
        # each crossed link's capacity drops by one k × share delta.
        round_token = next(_TOKENS)
        frozen_links: list["Link"] = []
        still_live: list["Flow"] = []
        for flow in live:
            path = flow.path
            if bottleneck in path:
                flow._s_rate = share
                for link in path:
                    if link._s_kstamp != round_token:
                        link._s_kstamp = round_token
                        link._s_frozen = 1
                        frozen_links.append(link)
                    else:
                        link._s_frozen += 1
            else:
                still_live.append(flow)
        for link in frozen_links:
            k = link._s_frozen
            link._s_count -= k
            new = link._s_cap - k * share
            link._s_cap = new if new > 0.0 else 0.0
        live = still_live
    return [flow._s_rate for flow in flows]
