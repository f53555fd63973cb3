"""The table-driven ``choose`` against the per-candidate loop it replaced.

Both must return the same partition and leave the generator in the same
state, for every availability vector, size, preferred partition and
affinity, so a simulation seeded the same way stays bit-identical.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.partition import PartitionPool
from repro.machine.topology import NUM_MIDPLANES
from repro.sched import IntrepidPolicy
from repro.sched.failure_aware import FailureAwarePolicy


class ReferencePolicy(IntrepidPolicy):
    """``IntrepidPolicy.choose`` as a Python loop over every candidate."""

    def choose(self, size_midplanes, free, rng, preferred=None, now=0.0):
        fit = self.pool.fit_size(size_midplanes)
        if (
            preferred is not None
            and preferred.size == fit
            and self._is_free(preferred, free)
            and rng.random() < self.affinity
        ):
            return preferred
        candidates = [
            p for p in self.pool.candidates(fit) if self._is_free(p, free)
        ]
        if not candidates:
            return None
        scores = np.array([self._region_score(p, fit) for p in candidates])
        best = scores.min()
        best_candidates = [p for p, s in zip(candidates, scores) if s == best]
        return best_candidates[int(rng.integers(0, len(best_candidates)))]

    @staticmethod
    def _is_free(partition, free):
        return bool(free[partition.start : partition.start + partition.size].all())


POOL = PartitionPool()
PARTITIONS = list(POOL.all_partitions())


@st.composite
def free_vectors(draw):
    """Random busy midplanes, or busy runs, so every fit size is exercised."""
    if draw(st.booleans()):
        return np.array(
            draw(st.lists(st.booleans(), min_size=NUM_MIDPLANES, max_size=NUM_MIDPLANES)),
            dtype=bool,
        )
    free = np.ones(NUM_MIDPLANES, dtype=bool)
    for p in draw(st.lists(st.sampled_from(PARTITIONS), max_size=6)):
        free[p.start : p.start + p.size] = False
    return free


requests = st.tuples(
    free_vectors(),
    st.integers(1, NUM_MIDPLANES),
    st.none() | st.sampled_from(PARTITIONS),
    st.sampled_from([0.0, 0.574, 0.75, 1.0]),
    st.integers(0, 2**32 - 1),
)


def _same_choice(new, ref, free, size, preferred, seed, now=0.0):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    for _ in range(3):  # repeated calls keep the streams in step
        got = new.choose(size, free, rng_new, preferred=preferred, now=now)
        want = ref.choose(size, free, rng_ref, preferred=preferred, now=now)
        assert got == want
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@given(requests)
@settings(max_examples=300, deadline=None)
def test_choose_matches_reference_loop(request):
    free, size, preferred, affinity, seed = request
    _same_choice(
        IntrepidPolicy(affinity=affinity),
        ReferencePolicy(affinity=affinity),
        free, size, preferred, seed,
    )


@given(
    requests,
    st.lists(
        st.tuples(st.sampled_from(PARTITIONS), st.floats(0.0, 3 * 86400.0)),
        max_size=4,
    ),
    st.floats(0.0, 3 * 86400.0),
)
@settings(max_examples=200, deadline=None)
def test_failure_aware_choose_matches_reference_loop(request, kills, now):
    free, size, preferred, affinity, seed = request
    new = FailureAwarePolicy(base=IntrepidPolicy(affinity=affinity))
    ref = FailureAwarePolicy(base=ReferencePolicy(affinity=affinity))
    for partition, t in kills:
        new.observe_interruption(t, partition)
        ref.observe_interruption(t, partition)
    _same_choice(new, ref, free, size, preferred, seed, now=now)


@given(free_vectors(), st.integers(1, NUM_MIDPLANES), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_failed_choose_draws_nothing(free, size, seed):
    """The scheduler's failed-fit memo relies on this."""
    policy = IntrepidPolicy(affinity=1.0)
    for preferred in (None, *POOL.candidates(POOL.fit_size(size))):
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        if policy.choose(size, free, rng, preferred=preferred) is None:
            assert rng.bit_generator.state == before
