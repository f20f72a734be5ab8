"""A parallel API entry re-raising bounded failures in their own class."""

from repro.encoding.container import DECODE_ERRORS


class ParallelJobError(RuntimeError):
    pass


_RERAISED = (*DECODE_ERRORS, TypeError)


def _finalize(exc):
    if isinstance(exc, _RERAISED):
        raise type(exc)(f"job failed: {exc}") from exc
    raise ParallelJobError("job failed")


def _check(value):
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"bad value: {exc}") from None


def compress_many(jobs, failure=None):
    if failure is not None:
        _finalize(failure)       # bounded by the isinstance guard
    return [_check(j) for j in jobs]   # bounded by the except clause
