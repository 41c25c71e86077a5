"""integrate's record observer in a forked worker process, one block behind
the step loop.

ObserverWorker(observe, block) forks one process, whose copy of block
receives each block's rows.  send(start, stop) writes the block's range
and the raw bytes of its first stop - start rows into a pipe; the worker
reads them into its own copy, calls observe(view, start, stop) on a
read-only view, and pickles back only what it returns, or its error.
receive() returns (start, stop, rows) of the block in flight, or raises
that error, with its type, message and attributes and the worker's
traceback as a note.  So at most one block is in flight: its caller
receives a block's rows before it sends the next one, and neither side
can wait on the other forever.  close() reaps the worker.

The worker uses only os.fork, os.pipe and pickle, which numpy has loaded
already: multiprocessing or concurrent.futures would add their import to
every run.  A result or error that pickle cannot bring back is sent as a
TypeError that names its type, and a worker that dies raises
ChildProcessError.
"""

from __future__ import annotations

import os
import pickle


def _write(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]


def _reply(ok: bool, value) -> bytes:
    """(ok, value) pickled.  A value that pickle cannot bring back, such as
    a lambda or an error whose class needs more than its args, becomes a
    TypeError that names its type."""
    try:
        data = pickle.dumps((ok, value))
        pickle.loads(data)
        return data
    except Exception as err:
        what = f"the observer's {'result' if ok else 'error'} of type {type(value).__name__}"
        return pickle.dumps((False, TypeError(f"{what} cannot be sent from its worker process: {err!r}")))


def _serve(observe, block, reader, writer: int) -> None:
    """The worker's loop: read each block's (start, stop) and raw rows into
    block, observe them through a read-only view, and write back (True,
    rows) or (False, the error), until the parent closes its end."""
    while True:
        try:
            start, stop = pickle.load(reader)
        except EOFError:
            return
        view = block[: stop - start]
        reader.readinto(memoryview(view).cast("B"))
        view.flags.writeable = False
        try:
            reply = _reply(True, observe(view, start, stop))
        except BaseException as err:
            # the parent raises it, whatever its kind, as integrate would
            import traceback  # only a failing worker pays for the import

            err.add_note("observer traceback in the worker process:\n" + "".join(traceback.format_exception(err)))
            reply = _reply(False, err)
        _write(writer, reply)


class ObserverWorker:
    """One forked worker that observes blocks of block, one behind its caller."""

    def __init__(self, observe, block):
        reader, self.to_worker = os.pipe()
        from_worker, writer = os.pipe()
        self.block, self.pending = block, None
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (reader, self.to_worker, from_worker, writer):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(self.to_worker)
                os.close(from_worker)
                with open(reader, "rb") as source:
                    _serve(observe, block, source, writer)
            finally:
                # never back into the parent's stack, its atexit hooks or buffers
                os._exit(0)
        os.close(reader)
        os.close(writer)
        self.from_worker = open(from_worker, "rb")

    def send(self, start: int, stop: int) -> None:
        try:
            _write(self.to_worker, pickle.dumps((start, stop)))
            _write(self.to_worker, self.block[: stop - start])
        except BrokenPipeError:
            raise self._ended(start, stop) from None
        self.pending = start, stop

    def receive(self) -> tuple:
        (start, stop), self.pending = self.pending, None
        try:
            ok, value = pickle.load(self.from_worker)
        except (EOFError, pickle.UnpicklingError):
            raise self._ended(start, stop) from None
        if not ok:
            raise value
        return start, stop, value

    def _ended(self, start: int, stop: int) -> ChildProcessError:
        return ChildProcessError(
            f"the observer's worker process {self.pid} ended before it returned the rows of records {start} to {stop - 1}"
        )

    def close(self) -> None:
        # the worker reads the end of its input, or fails to write, and exits
        os.close(self.to_worker)
        self.from_worker.close()
        os.waitpid(self.pid, 0)
