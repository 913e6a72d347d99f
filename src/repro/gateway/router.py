"""Request routing: classify a method before admission sees it.

The router is the gateway's policy table, split out from the service
(mechanism) so admission rules can be reasoned about -- and tested --
without a server.  It answers three questions about an incoming
method name:

* is it on the gateway's allowlist at all?  The surface is the
  master's explicit READ/WRITE/ADMIN sets, re-exported rather than
  re-declared, so a verb added to the master is automatically
  routable and nothing else ever is;
* does it consume admission capacity?  Admin verbs (``ping``,
  ``topology``, ...) bypass the token bucket and queues -- an operator
  must be able to inspect an overloaded gateway;
* is it *sheddable*?  Broadcast reads that already support the
  cluster's ``partial_results=True`` degraded mode can be downgraded
  under load instead of rejected.  Point reads and all writes are
  never silently degraded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.server.master import ADMIN_METHODS, READ_METHODS, WRITE_METHODS

#: Broadcast reads with a documented partial-results degraded mode
#: (the §5.3 all-shard search queries).  Only these may be downgraded
#: by load shedding; everything else is admit-or-reject.
SHEDDABLE_METHODS = frozenset({
    "find_edges",
    "get_node_ids",
})


@dataclass(frozen=True)
class Route:
    """The routing verdict for one method name."""

    method: str
    kind: str  # "read" | "write" | "admin"
    admission: bool  # counted against the tenant's bucket/queue?
    sheddable: bool  # may degrade to partial_results under load?


_ROUTES = {
    **{m: Route(m, "admin", admission=False, sheddable=False)
       for m in ADMIN_METHODS},
    **{m: Route(m, "read", admission=True, sheddable=m in SHEDDABLE_METHODS)
       for m in READ_METHODS},
    **{m: Route(m, "write", admission=True, sheddable=False)
       for m in WRITE_METHODS},
}


def resolve(method: str) -> Route:
    """Classify ``method`` or raise ``KeyError`` for off-surface names.

    Raising ``KeyError`` (not a gateway error) keeps the contract
    identical to the master's own dispatch: an unknown verb is a
    protocol violation by the caller, not an overload condition.
    """
    route = _ROUTES.get(method)
    if route is None:
        raise KeyError(f"unknown gateway method {method!r}")
    return route
