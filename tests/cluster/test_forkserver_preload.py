"""A process replica's boot imports nothing the forkserver did not preload.

Each process replica forks from the forkserver template, so a module its
boot imports is paid again by every child — on every cold start and
every respawn.  ``cluster.proc_replica._mp_context`` preloads what the
boot needs; this test starts a child through that context, runs the
child's boot steps (attach both shm arenas, construct ``EugeneService``
and ``MetricsRegistry``, as ``_child_main`` does) and asserts that they
add no module to ``sys.modules``.
"""

import multiprocessing as mp

import pytest

from repro.cluster.proc_replica import _mp_context
from repro.cluster.shm import ShmArena

#: ``_child_main``'s boot, run in the child with ``exec``: the target is a
#: builtin, so no test module is imported into the child first.
BOOT = """
import sys

before = set(sys.modules)
from repro.cluster.shm import ShmArena
from repro.service.server import EugeneService
from repro.telemetry.metrics import MetricsRegistry

req_arena = ShmArena.attach(req_name, max_blocks)
res_arena = ShmArena.adopt(res_name, max_blocks)
EugeneService(seed=0)
MetricsRegistry()
added = sorted(set(sys.modules) - before)
req_arena.close()
res_arena.close()
conn.send(added)
conn.close()
"""


def _forkserver_context():
    if "forkserver" not in mp.get_all_start_methods():
        pytest.skip("forkserver start method unavailable on this platform")
    context = _mp_context()
    if context.get_start_method() != "forkserver":
        pytest.skip(f"replicas start with {context.get_start_method()!r} here")
    return context


def test_child_boot_imports_no_module():
    context = _forkserver_context()
    max_blocks = 8
    req_arena = ShmArena.create(1 << 16, max_blocks)
    res_arena = ShmArena.create(1 << 16, max_blocks, owner=False)
    recv, send = context.Pipe(duplex=False)
    namespace = {
        "req_name": req_arena.name,
        "res_name": res_arena.name,
        "max_blocks": max_blocks,
        "conn": send,
    }
    child = context.Process(target=exec, args=(BOOT, namespace))
    try:
        child.start()
        send.close()
        assert recv.poll(60), "the child never reported its boot imports"
        added = recv.recv()
        child.join(30)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        req_arena.destroy()
        res_arena.destroy()
    assert child.exitcode == 0
    assert added == [], (
        "a replica's boot imports modules the forkserver does not preload "
        f"(add them to _mp_context's preload list): {added}"
    )
