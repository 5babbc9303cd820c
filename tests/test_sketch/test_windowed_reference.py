"""Reference-model property tests for the windowed filters.

A dict keyed by (item, slot) is the exact reference; every windowed
structure must never underestimate it (CM/CU/tower/cold are
conservative by construction; LogLog is probabilistic and excluded).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.windowed import make_windowed_filter

CONSERVATIVE = ["tower", "cm", "cu", "cold"]

STREAMS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=25), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=250,
)


class TestNeverUnderestimate:
    @pytest.mark.parametrize("structure", CONSERVATIVE)
    @settings(max_examples=20, deadline=None)
    @given(STREAMS)
    def test_structure_never_underestimates(self, structure, stream):
        wf = make_windowed_filter(structure, 6000, s=4, seed=9)
        truth = {}
        for item, slot in stream:
            truth[(item, slot)] = truth.get((item, slot), 0) + 1
            wf.insert(item, slot)
        for (item, slot), count in truth.items():
            assert wf.query_slot(item, slot) >= min(count, 65535)


class TestClearSlotIsolation:
    @pytest.mark.parametrize("structure", CONSERVATIVE)
    @settings(max_examples=15, deadline=None)
    @given(STREAMS, st.integers(min_value=0, max_value=3))
    def test_clearing_one_slot_preserves_others(self, structure, stream, cleared):
        wf = make_windowed_filter(structure, 6000, s=4, seed=6)
        truth = {}
        for item, slot in stream:
            truth[(item, slot)] = truth.get((item, slot), 0) + 1
            wf.insert(item, slot)
        wf.clear_slot(cleared)
        for (item, slot), count in truth.items():
            if slot == cleared:
                continue
            assert wf.query_slot(item, slot) >= min(count, 65535)
