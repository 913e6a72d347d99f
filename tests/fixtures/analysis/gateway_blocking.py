"""Fixture: blocking calls on the gateway's event loop (GATE001)."""
# zipg: gateway-path

import socket
import threading
import time

_LOCK = threading.Lock()


async def slow_admit(tenant):
    time.sleep(0.1)  # GATE001: stalls every tenant, not just this one
    return tenant


async def nap_between_polls():
    sleep(1)  # GATE001: bare sleep is time.sleep in disguise


async def push_reply(sock, frame):
    sock.sendall(frame)  # GATE001 (and RPC001): sync socket write
    return sock.recv(4)  # GATE001: sync socket read


async def dial_backend(host, port):
    return socket.create_connection((host, port))  # GATE001: blocking connect


async def guarded_update(state):
    _LOCK.acquire()  # GATE001: thread lock parks the whole loop
    try:
        state["n"] = state.get("n", 0) + 1
    finally:
        _LOCK.release()


async def hand_off(backend, method):
    import asyncio

    future = backend.submit(method)  # GATE001: a thread per request
    return await asyncio.wrap_future(future)  # GATE001: and a wake-up back


# zipg: executor-offload
def pool_worker(task):
    # OK: declared off-loop -- this runs on the submission pool.
    time.sleep(0.01)
    return task()


async def idiomatic(lock, reader, writer, payload, backend):
    # OK: the asyncio spellings of all of the above.
    import asyncio

    from repro.server import ipc

    await asyncio.sleep(0.1)
    async with lock:
        await ipc.send_frame_async(writer, payload)
        await ipc.recv_frame_async(reader)
    return await backend.call_async("ping")
