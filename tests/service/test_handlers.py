"""``_run_codec``: every failure a codec dispatch raises leaves the
handler in the service vocabulary."""

import pytest

from repro.faults import FaultInjectedError
from repro.parallel import DeadlineExceededError, ParallelJobError
from repro.runtime.durable import InjectedKillError
from repro.service.handlers import _run_codec
from repro.service.schemas import CodecFailureError, DeadlineError

CASES = [
    (DeadlineExceededError("dispatch deadline exceeded"), DeadlineError),
    # the request deadline clamps every attempt: an attempt timeout is it
    (TimeoutError("attempt timed out"), DeadlineError),
    (ValueError("bad header"), CodecFailureError),
    (TypeError("not an array"), CodecFailureError),
    (FaultInjectedError("injected crash"), CodecFailureError),
    (InjectedKillError("mid_write"), CodecFailureError),
    (ParallelJobError("job 0 failed"), CodecFailureError),
]


@pytest.mark.parametrize("exc,expected", CASES,
                         ids=[type(e).__name__ for e, _ in CASES])
def test_run_codec_translates_failures(exc, expected):
    def fail():
        raise exc

    with pytest.raises(expected) as err:
        _run_codec(fail, "cliz")
    assert err.value.__cause__ is exc
    assert str(exc) in str(err.value)
