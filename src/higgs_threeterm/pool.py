"""The sweep's process pool: forked workers, their pipes and spill files.

sweep.written_report runs its partitions here when it has more than one
worker, and only then is this module loaded.  A worker's texts stay in
its spill file, and come back as Spilled ranges of it, which
serialize.strings reads back in chunks; see `run`.
"""

from __future__ import annotations

import os
import selectors
import signal

from . import serialize
from .sweep import WorkerDied


class SpillFile:
    """The descriptor of a spill file, an unlinked temporary file that a
    forked worker writes its texts to; closed, and so gone, with the last
    reference to it."""

    __slots__ = ("fd",)

    def __init__(self, fd: int) -> None:
        self.fd = fd

    def __del__(self) -> None:
        os.close(self.fd)


class Spilled:
    """A text in a SpillFile, `size` bytes of ASCII from `offset`: a piece
    of a serialize.Written."""

    __slots__ = ("file", "offset", "size")

    def __init__(self, file: SpillFile, offset: int, size: int) -> None:
        self.file, self.offset, self.size = file, offset, size

    def chunks(self):
        """The text, read back in strings of at most serialize.CHUNK characters."""
        start, end = self.offset, self.offset + self.size
        while start < end:
            data = os.pread(self.file.fd, min(serialize.CHUNK, end - start), start)
            if not data:
                raise OSError(f"spill file ends at byte {start}, before {end}")
            start += len(data)
            yield data.decode("ascii")


def _spill_file() -> SpillFile:
    """A new spill file in the temporary directory, unlinked as soon as it is made."""
    import tempfile

    fd, path = tempfile.mkstemp(prefix="higgs-threeterm-spill-")
    os.unlink(path)
    return SpillFile(fd)


def _work(tasks: list[tuple], run_partition, orders: int, out: int, parent_ends: set[int], spill) -> None:
    """A forked pool worker (see run); it leaves only by os._exit."""
    try:
        for fd in parent_ends:  # else an order pipe never reaches EOF
            os.close(fd)
        results = open(out, "wb")  # left to os._exit to close, so EOF means the worker is gone
        spilled = None if spill is None else open(spill.fd, "wb", closefd=False)
        while index := os.read(orders, 4):
            sizes = []
            for *numbers, text in run_partition(tasks[int.from_bytes(index, "little")]):
                data = text.encode()  # "" when there is no spill file: nobody reads the records
                if data:
                    spilled.write(data)
                sizes += (*numbers, len(data))
            if spilled is not None:
                spilled.flush()  # before the parent hears of it
            results.write(b" ".join(b"%d" % size for size in sizes) + b"\n")
            results.flush()
        os._exit(0)
    except BrokenPipeError:  # the parent is gone: nobody reads the result, nor a traceback
        pass
    except BaseException:  # KeyboardInterrupt too
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(1)


def run(tasks: list[tuple], workers: int, run_partition) -> list[list[tuple]]:
    """run_partition of each task, in this process and `workers` - 1
    forked ones; results in task order.

    The partitions are handed out one at a time, longest chains first
    (descending n, then ascending first step): the first to the forked
    workers as they start, each later one to whichever is free first, this
    process taking one whenever it has run its last.  A worker writes its
    texts to its spill file (none when no record is written), then one
    line on its result pipe: stable, certificates, records and the text's
    size, for each length.  EOF before the line means the worker died in
    that partition.  Workers leave by os._exit, never flushing this
    process's stdio buffers, and none outlives this call.
    """
    pending = iter(sorted(range(len(tasks)), key=lambda i: -tasks[i][1]))
    results: list = [None] * len(tasks)
    pids, ends = [], set()  # the workers, and this process's pipe ends
    with selectors.DefaultSelector() as selector:

        def collect(timeout: float | None) -> None:
            """Take the results the workers have written, and hand each one
            that has finished its next partition."""
            for key, _ in selector.select(timeout):
                order_end, index, received, spill, position, _ = worker = key.data
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:  # (n=6, first step=2) in theorem mode, (n=2..9, first step=2) in necessity mode
                    n_min, n, first_step = tasks[index][:3]
                    lengths = n if n_min == n else f"{n_min}..{n}"
                    raise WorkerDied(f"sweep worker died in partition (n={lengths}, first step={first_step})")
                worker[2] = received = received + chunk
                if not received.endswith(b"\n"):
                    continue
                numbers = list(map(int, received.split()))
                outcome = []
                for i in range(0, len(numbers), 4):
                    *counts, size = numbers[i : i + 4]
                    outcome.append((*counts, Spilled(spill, position, size) if size else ""))
                    position += size
                results[index], worker[4] = outcome, position
                worker[1] = index = next(pending, -1)
                worker[2] = b""
                if index >= 0:
                    os.write(order_end, index.to_bytes(4, "little"))
                else:  # the worker has finished: EOF on `orders` ends it
                    selector.unregister(key.fd)
                    os.close(order_end)
                    ends.remove(order_end)

        try:
            for _ in range(workers - 1):
                (orders, order_end), (result_end, out) = os.pipe(), os.pipe()
                ends |= {orders, order_end, result_end}  # orders too: a dead worker's order still writes
                spill = _spill_file() if tasks[0][-1] else None  # none when no record is written
                os.write(order_end, (index := next(pending)).to_bytes(4, "little"))
                if (pid := os.fork()) == 0:
                    _work(tasks, run_partition, orders, out, ends - {orders}, spill)
                pids.append(pid)
                os.close(out)
                # order end, partition, bytes of its result line so far, spill file and its size
                selector.register(result_end, selectors.EVENT_READ, [order_end, index, b"", spill, 0, pid])
            while True:
                collect(0)  # the workers first, so none waits on this process's partition
                if (index := next(pending, -1)) < 0:
                    break
                results[index] = run_partition(tasks[index])
            while selector.get_map():
                collect(None)
            return results
        finally:
            for key in selector.get_map().values():  # the workers not finished
                os.kill(key.data[5], signal.SIGTERM)
            for fd in ends:
                os.close(fd)
            for pid in pids:
                os.waitpid(pid, 0)
