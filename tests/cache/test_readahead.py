"""AdaptiveReadahead: window ramp, collapse, fast start and whole-block
proposals."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import AdaptiveReadahead


def test_fast_start_at_file_offset_zero():
    """Reading lpn 0 of a fresh inode opens a window immediately: one
    compulsory miss, not two."""
    ra = AdaptiveReadahead(init_window=4, max_window=32)
    wants = ra.observe(1, 0)
    assert wants == [1, 2, 3, 4]


def test_mid_file_first_access_needs_trigger():
    ra = AdaptiveReadahead(init_window=4, max_window=32, trigger=2)
    assert ra.observe(1, 10) == []          # first touch: no stream yet
    assert ra.observe(1, 11) == [12, 13, 14, 15]  # second sequential: promoted


def test_window_doubles_up_to_cap():
    ra = AdaptiveReadahead(init_window=4, max_window=16)
    ra.observe(1, 0)            # window 4 consumed, ramps to 8
    assert ra.window_of(1) == 8
    w2 = ra.observe(1, 1)       # window 8: extends high from 4 to 9
    assert w2 == [5, 6, 7, 8, 9]
    assert ra.window_of(1) == 16
    ra.observe(1, 2)
    assert ra.window_of(1) == 16  # saturated at max_window


def test_window_collapses_on_random_access():
    ra = AdaptiveReadahead(init_window=4, max_window=64)
    for lpn in range(4):
        ra.observe(1, lpn)
    assert ra.window_of(1) > 4
    ra.observe(1, 1000)  # random jump
    assert ra.window_of(1) == 4


def test_random_stream_never_prefetches():
    ra = AdaptiveReadahead(init_window=4, max_window=64)
    total = []
    for lpn in (500, 3, 998, 47, 12, 700):
        total += ra.observe(1, lpn)
    assert total == []


def test_repeated_page_neither_extends_nor_breaks():
    ra = AdaptiveReadahead(init_window=4, max_window=64)
    ra.observe(1, 0)
    high_before = ra._streams[1][3]
    ra.observe(1, 0)  # re-read the same page
    assert ra._streams[1][3] == high_before
    # The stream survives: the next sequential page still extends.
    assert ra.observe(1, 1) != []


def test_streaming_counts_only_pages_a_stream_consumed():
    """A page is a stream's once the access moved a run forward past its
    first backend block: a fast start, a repeated page and a random op of one
    block (two pages) are not, so their pages keep CLOCK's second chance."""
    ra = AdaptiveReadahead(init_window=4, max_window=64, block_pages=2)
    seen = []
    for lpn in (0, 0, 0, 1, 2, 3, 3, 4, 5, 40, 41, 90, 91, 92):
        ra.observe(1, lpn)
        seen.append(ra.streaming(1))
    assert seen == [
        False, False, False,  # fast start on a one-page file, re-read twice
        False, True, True,  # lpn 1 is still in the first block, 2 and 3 are not
        False, False, True,  # a repeat starts the count over
        False, False,  # a random 8 KiB op
        False, False, True,  # a random 12 KiB op: its third page crosses a block
    ]
    assert not ra.streaming(2)  # an inode never seen


def test_streams_are_per_inode():
    ra = AdaptiveReadahead(init_window=4, max_window=64)
    ra.observe(1, 0)
    ra.observe(2, 500)  # unrelated inode, random offset
    assert ra.window_of(1) == 8
    assert ra.window_of(2) == 4


def test_never_reproposes_prefetched_pages():
    ra = AdaptiveReadahead(init_window=4, max_window=8)
    seen = set()
    for lpn in range(20):
        wants = ra.observe(1, lpn)
        assert not (set(wants) & seen), "page proposed twice"
        seen.update(wants)


def test_drop_forgets_stream():
    ra = AdaptiveReadahead(init_window=4, max_window=64)
    for lpn in range(4):
        ra.observe(1, lpn)
    ra.drop(1)
    assert ra.window_of(1) == 4


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdaptiveReadahead(init_window=0)
    with pytest.raises(ValueError):
        AdaptiveReadahead(init_window=8, max_window=4)
    with pytest.raises(ValueError):
        AdaptiveReadahead(trigger=0)
    with pytest.raises(ValueError):
        AdaptiveReadahead(block_pages=0)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 2, 4]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 100)), max_size=50),
)
def test_never_suggests_behind_reader(block_pages, accesses):
    """Every proposal is one contiguous run that starts ahead of the reader
    and ends on the last page of a backend block."""
    ra = AdaptiveReadahead(init_window=4, max_window=16, block_pages=block_pages)
    for ino, lpn in accesses:
        wants = ra.observe(ino, lpn)
        assert all(s > lpn for s in wants)
        if wants:
            assert wants == list(range(wants[0], wants[-1] + 1))
            assert (wants[-1] + 1) % block_pages == 0


def test_saturated_stream_proposes_only_whole_blocks():
    """A reader moving one 8 KiB block (2 pages) per step at the maximum
    window: without rounding, each page moved the horizon by one and every
    proposal was a single page, half a backend block."""
    ra = AdaptiveReadahead(init_window=4, max_window=16, block_pages=2)
    proposals = []
    for step in range(40):
        for lpn in (2 * step, 2 * step + 1):
            wants = ra.observe(1, lpn)
            if wants and ra.window_of(1) == 16 and step > 4:
                proposals.append(wants)
    assert proposals
    for wants in proposals:
        assert wants[0] % 2 == 0 and len(wants) % 2 == 0, wants
