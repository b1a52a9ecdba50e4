"""``Resource`` against a list-scan reference model (hypothesis).

The resource keeps its waiters on a heap of ``(priority, arrival,
request)`` entries and grants a free slot without queueing. The reference
below does neither: it appends every request to a list, then picks the
lowest priority by scanning from the front. Random sequences of request, withdraw and release drive both, and
after every step the grant order, ``queue_depth`` and ``in_use`` must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator


class ListModel:
    """The list-scan resource: lowest priority first, ties FCFS."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.users = set()
        self.queue = []  # (priority, key) in arrival order
        self.granted = []

    def request(self, key, priority):
        self.queue.append((priority, key))
        self._dispatch()

    def release(self, key):
        self.users.remove(key)
        self._dispatch()

    def withdraw(self, key):
        for index, (_priority, queued) in enumerate(self.queue):
            if queued == key:
                del self.queue[index]
                return

    def _dispatch(self):
        while self.queue and len(self.users) < self.capacity:
            best = 0
            for index, (priority, _key) in enumerate(self.queue):
                if priority < self.queue[best][0]:
                    best = index
            _priority, key = self.queue.pop(best)
            self.users.add(key)
            self.granted.append(key)


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["request", "request", "withdraw", "release"]),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([0.0, 1.0, 5.0]),
    ),
    max_size=160,
)


def _drive(capacity, steps, prioritised):
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    model = ListModel(capacity)
    granted = []
    requests = {}
    for key, (action, pick, priority) in enumerate(steps):
        queued = [k for k, r in requests.items() if not r.triggered and not r.cancelled]
        held = sorted(model.users)
        if action == "request":
            if not prioritised:
                priority = 0.0
            request = (
                resource.request(priority=priority) if prioritised else resource.request()
            )
            request.callbacks.append(lambda _event, key=key: granted.append(key))
            requests[key] = request
            model.request(key, priority)
        elif action == "withdraw" and queued:
            victim = queued[pick % len(queued)]
            requests[victim].withdraw()
            model.withdraw(victim)
        elif action == "release" and held:
            victim = held[pick % len(held)]
            resource.release(requests.pop(victim))
            model.release(victim)
        # Grants fire in the order they were made.
        sim.run()
        assert granted == model.granted
        assert resource.queue_depth == len(model.queue)
        assert resource.in_use == len(model.users)


@given(capacity=st.integers(min_value=1, max_value=3), steps=STEPS)
@settings(max_examples=150, deadline=None)
def test_prioritised_grants_match_list_scan_model(capacity, steps):
    _drive(capacity, steps, prioritised=True)


@given(capacity=st.integers(min_value=1, max_value=3), steps=STEPS)
@settings(max_examples=80, deadline=None)
def test_fcfs_grants_match_list_scan_model(capacity, steps):
    _drive(capacity, steps, prioritised=False)

