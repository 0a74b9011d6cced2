"""Request queue + dynamic batcher.

The :class:`DynamicBatcher` owns the FIFO request queue and consults a
:class:`~repro.serve.policy.SchedulerPolicy` to turn queued requests into
dispatchable batches.  It is deliberately clock-agnostic: the server passes
the simulated "now" into :meth:`poll`, which either returns a batch (a list
of requests popped from the queue head) or an empty list meaning *keep
waiting* -- an empty queue tick and a not-yet-timed-out partial batch look
the same to the caller.  :meth:`next_deadline_ms` tells the server how far
it may advance the clock before the policy could change its mind.

The batcher itself never degrades anything: when adaptive fidelity is on
(:mod:`repro.serve.fidelity`), the SLO policy consults the controller's
projected cost scale *inside* :meth:`~repro.serve.policy.SchedulerPolicy.
select_batch_size`, so a batch the policy could only form at reduced
fidelity still comes out of :meth:`poll` as a plain request list -- the
server applies the levers at dispatch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .policy import SchedulerPolicy
from .request import Request


class DynamicBatcher:
    """Accumulates requests and forms batches according to a policy."""

    def __init__(self, policy: SchedulerPolicy) -> None:
        self.policy = policy
        self._queue: Deque[Request] = deque()

    # -- queue management -----------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Admit one arrived request at the queue tail."""
        self._queue.append(request)

    def __len__(self) -> int:
        return len(self._queue)

    # -- batch formation --------------------------------------------------------

    def poll(self, now_ms: float) -> List[Request]:
        """Ask the policy for a batch at time ``now_ms``.

        Returns the dispatched requests (popped from the queue head, FIFO
        order) or ``[]`` when the policy prefers to keep accumulating -- in
        particular on an empty-queue tick.
        """
        if not self._queue:
            return []
        # The deque is passed directly (it is a Sequence): policies only read
        # len() and the head, and copying the backlog on every scheduling
        # tick would be O(n^2) under sustained overload.
        size = self.policy.select_batch_size(self._queue, now_ms)
        if size <= 0:
            return []
        size = min(size, len(self._queue))
        return [self._queue.popleft() for _ in range(size)]

    def force(self, now_ms: float) -> List[Request]:
        """Unconditionally pop a batch (up to the policy's cap).

        Safety valve the server uses while draining: if arrivals have ended
        and the policy would otherwise wait forever, the queued requests
        still have to be served.
        """
        size = min(len(self._queue), self.policy.max_batch_size)
        return [self._queue.popleft() for _ in range(size)]

    def next_deadline_ms(self, now_ms: float) -> Optional[float]:
        """When the policy wants to be polled again (absent new arrivals)."""
        return self.policy.next_deadline_ms(self._queue, now_ms)
