"""Client for the gateway's RPC surface.

A :class:`GatewayClient` *is* a :class:`~repro.server.client.ZipGClient`
-- the gateway speaks the master's wire protocol -- plus a tenant
identity stamped on every request envelope, which the gateway's
admission control charges against that tenant's token bucket and
queue.  Gateway-origin rejections re-raise client-side as the typed
:class:`~repro.core.errors.RetryAfter` (with its ``retry_after_s``
hint intact) and :class:`~repro.core.errors.GatewayClosed`, so a
caller can tell "the gateway shed me" from "the store failed".
"""

from __future__ import annotations

from typing import Optional

from repro.server.client import ZipGClient

#: Tenant applied when callers do not identify themselves.
DEFAULT_TENANT = "default"


class GatewayClient(ZipGClient):
    """Speak to a gateway as one named tenant."""

    def __init__(self, host: str, port: int, tenant: str = DEFAULT_TENANT,
                 timeout_s: Optional[float] = 30.0) -> None:
        super().__init__(host, port, timeout_s=timeout_s)
        self.tenant = tenant
        self._request_extra["tenant"] = tenant
