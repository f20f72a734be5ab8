"""A parallel API entry whose guarded re-raise admits an undeclared type."""


class ParallelJobError(RuntimeError):
    pass


def _finalize(exc):
    if isinstance(exc, (ValueError, OSError)):
        raise type(exc)(f"job failed: {exc}") from exc
    raise ParallelJobError("job failed")


def compress_many(jobs, failure=None):
    if failure is not None:
        _finalize(failure)       # OSError escapes: EXC-001, not EXC-002
    return list(jobs)
