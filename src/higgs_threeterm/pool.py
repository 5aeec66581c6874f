"""The sweep's process pool: forked workers, their partition queue and
their spill files.

sweep.written_report runs its partitions here when it has more than one
worker, and only then is this module loaded.  The pool knows nothing of
a task: it hands each one, in list order, to the function it is given.
Every process takes its partitions from one queue, an unlinked temporary
file of partition indices.  Each forked worker has one spill file, its
only channel back: a line of counts and sizes for each partition it
ran, then that partition's texts, which come back as Spilled ranges of
the file, read back in chunks by serialize.strings; see `run`.
"""

from __future__ import annotations

import os
import signal

from . import serialize


class SpillFile:
    """The descriptor of a spill file, an unlinked temporary file that a
    forked worker writes its results to; closed, and so gone, with the
    last reference to it."""

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


def _work(tasks: list, run_partition, index: int, queue: int, spill: SpillFile) -> None:
    """A forked pool worker, starting with partition `index` (see run); it
    leaves only by os._exit, and takes no partition once its parent is gone."""
    try:
        parent = os.getppid()
        spilled = open(spill.fd, "wb", closefd=False)
        while index >= 0 and os.getppid() == parent:
            outcome = run_partition(tasks[index])
            sizes = [index]
            for *numbers, text in outcome:
                sizes += (*numbers, len(text))
            spilled.write(b" ".join(b"%d" % size for size in sizes) + b"\n")
            spilled.writelines(text.encode("ascii") for *_, text in outcome)
            spilled.flush()  # a partition is whole in the file before the next one runs
            index = _take(queue)
        os._exit(0)
    except BaseException:  # KeyboardInterrupt too
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(1)


def _read(spill: SpillFile, results: list) -> None:
    """Put each whole partition in a worker's spill file into results: a
    partition whose line lacks its newline, or whose texts end short of
    its sizes, was cut when its worker died, and has no result."""
    with open(spill.fd, "rb", closefd=False) as file:
        file.seek(0)  # the worker's writes left the offset it shares with this process at the end
        while (line := file.readline()).endswith(b"\n"):
            index, *numbers = map(int, line.split())
            outcome, position = [], file.tell()
            for *counts, size in zip(*[iter(numbers)] * 4):  # each result's numbers and text size
                outcome.append((*counts, Spilled(spill, position, size) if size else ""))
                position += size
            if position > os.fstat(spill.fd).st_size:
                return
            results[index] = outcome
            file.seek(position)


def run(tasks: list, workers: int, run_partition) -> list:
    """run_partition of each task, in this process and `workers` - 1
    forked ones; results in task order, None for a partition whose
    worker died.

    The tasks go in list order: the first one to each forked worker as it
    starts, and the others into the queue, from which every process, this
    one too, takes its next partition as soon as it has run its last.  A
    worker appends to its spill file, for each partition it runs, one
    line, the partition's index, then each of its results' numbers and
    the size of its text, and then the texts.  Once the queue is empty,
    this process waits for each worker to exit and then reads its spill
    file.  Workers leave by os._exit, never flushing this process's stdio
    buffers, and none outlives this call.
    """
    results: list = [None] * len(tasks)
    queue = _unlinked_file("queue")
    pids, spills = [], []  # the workers not yet reaped, and every worker's spill file
    try:
        os.pwrite(queue, b"".join(index.to_bytes(4, "little") for index in range(workers - 1, len(tasks))), 0)
        for index in range(workers - 1):
            spills.append(SpillFile(_unlinked_file("spill")))
            if (pid := os.fork()) == 0:
                _work(tasks, run_partition, index, queue, spills[-1])
            pids.append(pid)
        while (index := _take(queue)) >= 0:
            results[index] = run_partition(tasks[index])
        while pids:
            os.waitpid(pids[-1], 0)
            pids.pop()  # only once reaped: a reaped pid may be reused, and is never signalled
        for spill in spills:
            _read(spill, results)
        return results
    finally:
        for pid in pids:  # a worker is still running only when this process raised
            os.kill(pid, signal.SIGTERM)
        os.close(queue)
        for pid in pids:
            os.waitpid(pid, 0)
