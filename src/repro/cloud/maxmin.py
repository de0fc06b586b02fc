"""Batched max-min fair solvers (pure-Python and NumPy, bit-identical).

The progressive-filling allocation is defined here in *batched* form:
every freeze round computes one aggregate capacity delta per link —
``k × share`` for a bottleneck freeze, an in-order sum of caps for a
capped-flow freeze — and applies it with a single subtract-and-clamp.
Because each link is updated once per round with identical IEEE-754
operations, the same arithmetic can be expressed either as Python
scalar loops or as NumPy vector ops, and the two produce **bit-for-bit
identical** rates:

- fair shares are elementwise ``cap / count`` either way,
- the bottleneck is the *first* strict minimum (``np.argmin`` has the
  same first-occurrence tie rule as a ``<`` scan) over links in
  first-seen order,
- bottleneck deltas are one ``float(k) * share`` multiply per link,
- capped deltas accumulate in flow-major path order (``np.add.at`` is
  unbuffered and applies repeated indices in input order, matching the
  scalar loop),
- clamping is ``x if x > 0.0 else 0.0`` vs ``np.where(x > 0.0, x, 0.0)``.

The scalar path keeps per-solve state in scratch slots *on* the Link
and Flow objects (``_s_*``), validated by a monotonically increasing
token, so a solve allocates no per-link dictionaries — incremental
replanning calls it thousands of times on small components and the
setup cost is what dominates there.

``solve_rates`` dispatches by component size: NumPy wins once a
component has enough flows to amortize array construction; small
components (the common case under incremental replanning) stay on the
scalar path. When NumPy is unavailable the scalar path handles every
size — same results, different speed.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.cloud.network import Flow, Link

try:  # NumPy is optional: the scalar path is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - the scalar path serves every size
    _np = None

#: Components with at least this many flows go to the NumPy path; the
#: crossover was measured on the clustered-churn micro-benchmark (array
#: construction never pays back on rack-sized components).
VECTOR_THRESHOLD = 64

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
    if _np is not None and len(flows) >= VECTOR_THRESHOLD:
        return _solve_np(flows, capacities)
    return _solve_py(flows, capacities)


def solve_component(
    flows: Sequence["Flow"],
    capacities: Optional[dict["Link", float]] = None,
) -> dict["Flow", float]:
    """Dict-shaped wrapper over :func:`solve_rates`."""
    if not flows:
        return {}
    rates = solve_rates(flows, capacities)
    return {flow: rates[i] for i, flow in enumerate(flows)}


def _solve_py(
    flows: Sequence["Flow"],
    capacities: Optional[dict["Link", float]] = None,
) -> list[float]:
    """Scalar reference implementation of the batched solver."""
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


def _index_component(flows, capacities):
    """NumPy-path setup: links in first-seen order, integer paths."""
    caps: list[float] = []
    counts: list[int] = []
    link_index: dict = {}
    paths: list[list[int]] = []
    flow_caps: list[float] = []
    has_capped = False
    for flow in flows:
        max_rate = flow.max_rate
        if max_rate is None:
            flow_caps.append(_INF)
        else:
            flow_caps.append(max_rate)
            has_capped = True
        idxs = []
        for link in flow.path:
            li = link_index.get(link)
            if li is None:
                li = link_index[link] = len(caps)
                caps.append(link.capacity if capacities is None else capacities[link])
                counts.append(0)
            counts[li] += 1
            idxs.append(li)
        paths.append(idxs)
    return caps, counts, paths, flow_caps, has_capped


def _solve_np(
    flows: Sequence["Flow"],
    capacities: Optional[dict["Link", float]] = None,
) -> list[float]:
    """Vectorized solver: same rounds, same arithmetic, NumPy arrays."""
    np = _np
    caps_l, counts_l, paths, flow_caps_l, has_capped = _index_component(
        flows, capacities
    )
    nflows = len(flows)
    nlinks = len(caps_l)
    caps = np.array(caps_l, dtype=np.float64)
    counts = np.array(counts_l, dtype=np.int64)
    flow_caps = np.array(flow_caps_l, dtype=np.float64)
    # CSR-ish flattened paths: flat[i] is a link index, flow_of_flat[i]
    # the flow it belongs to; order is flow-major (canonical).
    flat = np.array([li for p in paths for li in p], dtype=np.intp)
    flow_of_flat = np.array(
        [f for f, p in enumerate(paths) for _ in p], dtype=np.intp
    )
    live = np.ones(nflows, dtype=bool)
    rates = np.zeros(nflows, dtype=np.float64)
    remaining = nflows

    while remaining:
        shares = np.where(counts > 0, caps / np.maximum(counts, 1), _INF)
        bottleneck = int(np.argmin(shares))
        share = float(shares[bottleneck])
        if not counts[bottleneck]:  # pragma: no cover - defensive, see _solve_py
            rates[live] = flow_caps[live]
            break
        if has_capped:
            capped = live & (flow_caps < share)
            if capped.any():
                rates[capped] = flow_caps[capped]
                sel = capped[flow_of_flat]
                idx = flat[sel]
                delta = np.zeros(nlinks, dtype=np.float64)
                # Unbuffered in-order accumulation == the scalar loop.
                np.add.at(delta, idx, flow_caps[flow_of_flat[sel]])
                new = caps - delta
                caps = np.where(new > 0.0, new, 0.0)
                counts -= np.bincount(idx, minlength=nlinks)
                remaining -= int(np.count_nonzero(capped))
                live &= ~capped
                continue
        crossing = np.zeros(nflows, dtype=bool)
        crossing[flow_of_flat[flat == bottleneck]] = True
        crossing &= live
        rates[crossing] = share
        sel = crossing[flow_of_flat]
        idx = flat[sel]
        frozen_per_link = np.bincount(idx, minlength=nlinks)
        new = caps - frozen_per_link * share
        caps = np.where(new > 0.0, new, 0.0)
        counts -= frozen_per_link
        remaining -= int(np.count_nonzero(crossing))
        live &= ~crossing
    return rates.tolist()
