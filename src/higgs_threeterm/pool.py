"""The sweep's process pool: forked workers, their partition queue, result
pipes and spill files.

sweep.written_report runs its partitions here when it has more than one
worker, and only then is this module loaded.  Every process takes its
partitions from one queue, an unlinked temporary file of partition
indices.  A worker's texts stay in its spill file, and come back as
Spilled ranges of it, which serialize.strings reads back in chunks; see
`run`.
"""

from __future__ import annotations

import os
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


def _unlinked_file(kind: str) -> int:
    """The descriptor of a new file in the temporary directory, unlinked
    as soon as it is made: a spill file or a queue."""
    import tempfile

    fd, path = tempfile.mkstemp(prefix=f"higgs-threeterm-{kind}-")
    os.unlink(path)
    return fd


def _take(queue: int) -> int:
    """Take the next partition index from the queue: -1 when it is empty.
    The processes of a pool share the queue's one file offset, and the
    kernel serialises their reads, so each index is taken exactly once."""
    index = os.read(queue, 4)
    return int.from_bytes(index, "little") if index else -1


def _work(tasks: list[tuple], run_partition, index: int, queue: int, out: int, parent_ends: set[int], spill) -> None:
    """A forked pool worker, starting with partition `index` (see run); it leaves only by os._exit."""
    try:
        for fd in parent_ends:  # the other workers' read ends too, so a write fails once the parent is gone
            os.close(fd)
        results = open(out, "wb")  # left to os._exit to close, so EOF means the worker is gone
        spilled = None if spill is None else open(spill.fd, "wb", closefd=False)
        while index >= 0:
            sizes = [index]
            for *numbers, text in run_partition(tasks[index]):
                data = text.encode()  # "" when there is no spill file: nobody reads the records
                if data:
                    spilled.write(data)
                sizes += (*numbers, len(data))
            if spilled is not None:
                spilled.flush()  # before the parent hears of it
            results.write(b" ".join(b"%d" % size for size in sizes) + b"\n")
            results.flush()
            index = _take(queue)
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

    The partitions go longest chains first (descending n, then ascending
    first step): the first one to each forked worker as it starts, and
    the others into the queue, from which every process, this one too,
    takes its next partition as soon as it has run its last.  A worker
    writes its texts to its spill file (none when no record is written),
    then one line on its result pipe: the partition's index, then stable,
    certificates, records and the text's size, for each length.  Once the
    queue is empty, this process reads the result pipes to EOF, one after
    the other; a partition without its line died in its worker, which is
    reported then.  Workers leave by os._exit, never flushing this
    process's stdio buffers, and none outlives this call.
    """
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
    results: list = [None] * len(tasks)
    queue = _unlinked_file("queue")
    pids, ends, pipes = [], {queue}, []  # the workers, this process's descriptors, (result end, spill file)
    try:
        with open(queue, "wb", closefd=False) as handle:
            handle.write(b"".join(index.to_bytes(4, "little") for index in order[workers - 1 :]))
        os.lseek(queue, 0, os.SEEK_SET)
        for index in order[: workers - 1]:
            result_end, out = os.pipe()
            ends.add(result_end)
            spill = SpillFile(_unlinked_file("spill")) if tasks[0][-1] else None  # none when no record is written
            if (pid := os.fork()) == 0:
                _work(tasks, run_partition, index, queue, out, ends - {queue}, spill)
            pids.append(pid)
            os.close(out)
            pipes.append((result_end, spill))
        while (index := _take(queue)) >= 0:
            results[index] = run_partition(tasks[index])
        for result_end, spill in pipes:
            position = 0
            with open(result_end, "rb", closefd=False) as pipe:
                for line in pipe.read().split(b"\n")[:-1]:  # a last line without its newline is unfinished
                    index, *numbers = map(int, line.split())
                    outcome = []
                    for i in range(0, len(numbers), 4):
                        *counts, size = numbers[i : i + 4]
                        outcome.append((*counts, Spilled(spill, position, size) if size else ""))
                        position += size
                    results[index] = outcome
        if None in results:  # (n=6, first step=2) in theorem mode, (n=2..9, first step=2) in necessity mode
            n_min, n, first_step = tasks[results.index(None)][:3]
            lengths = n if n_min == n else f"{n_min}..{n}"
            raise WorkerDied(f"sweep worker died in partition (n={lengths}, first step={first_step})")
        return results
    finally:
        for pid in pids:  # a worker is still running only when this process raised
            os.kill(pid, signal.SIGTERM)
        for fd in ends:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
