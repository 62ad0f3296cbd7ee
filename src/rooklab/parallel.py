"""The lowest index at which a search succeeds, with the indices searched by
forked worker processes and by the parent.

Every process takes indices in order from one shared pipe and stops at its
first success.  So the lowest index any process reports is the lowest at
which the search succeeds, whichever process ran it and whenever it
finished: the indices below it were all taken, searched and failed.  A
process that succeeds empties the pipe, since every index left in it lies
above that success, so the others stop at their next take.

A search still running on an index above a success can no longer matter,
and may take far longer than the search that succeeded.  So each process
records its success in its own slot of shared memory, and the search calls
`check` now and then: it raises, ending that process's share, once some
slot holds an index below the one being searched.  A slot is written once,
from all 0xff bytes, so even a read torn by that write gives a value no
lower than the index written.

A child sends back its index and list as plain bytes and ends with
`os._exit`, so no stdio buffer inherited from the parent is flushed twice.
A child that fails, or sends a reply of the wrong length, is an error,
never a missing success, and every child is reaped before `first_success`
returns or raises.  This module is loaded only when a search is split.

Workers are forked, not spawned: a fresh interpreter takes longer to start
than the searches it would share, while a forked child starts with the
search state it needs already in memory.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
from typing import Callable


class _Moot(Exception):
    """A lower index has succeeded, so the search under way cannot matter."""


def first_success(
    count: int,
    search: Callable[[int, Callable[[], None]], list[int] | None],
    size: int,
    workers: int,
) -> tuple[int, list[int]] | None:
    """The lowest index i < count at which search(i, check) returns a list of
    `size` ints, as (i, list), or None when it returns None at every index.
    Up to `workers` processes, the parent one of them, run the search, which
    should call check() every few thousand steps at most.  count must be
    below 2**32 and its indices must fit in one pipe write."""
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(count)))
    os.close(feed)
    slots = mmap.mmap(-1, 4 * workers)  # shared: the index each process succeeded at
    slots.write(b"\xff" * len(slots))

    def drain(slot: int) -> tuple[int, list[int]] | None:
        current = 0

        def check() -> None:
            for at in range(0, len(slots), 4):
                if int.from_bytes(slots[at : at + 4], "little") < current:
                    raise _Moot

        while task := os.read(tasks, 4):
            current = int.from_bytes(task, "little")
            try:
                found = search(current, check)
            except _Moot:  # every index left lies above that success too
                return None
            if found is not None:
                slots[4 * slot : 4 * slot + 4] = task
                while os.read(tasks, 1 << 16):
                    pass
                return current, found
        return None

    children: dict[int, int] = {}  # pid -> read end of its reply pipe
    try:
        for slot in range(1, min(workers, count)):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: those running take every index
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                status = 1
                try:
                    found = drain(slot)
                    if found is None:
                        reply = count.to_bytes(4, "little")
                    else:
                        reply = struct.pack(f"<I{size}i", found[0], *found[1])
                    with open(write_end, "wb") as out:
                        out.write(reply)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = read_end
            os.close(write_end)
        best = drain(0)
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(read_end)
            del children[pid]
            i = int.from_bytes(reply[:4], "little")
            width = 4 if i == count else 4 * (size + 1)
            if status or len(reply) != width or i > count:
                raise RuntimeError(
                    f"search worker {pid} ended with status {os.waitstatus_to_exitcode(status)}"
                    f" and a {len(reply)}-byte reply"
                )
            if i < count and (best is None or i < best[0]):
                best = i, list(struct.unpack(f"<{size}i", reply[4:]))
        return best
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(tasks)
        slots.close()
