"""Property-based tests for the frame substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Frame, concat
from repro.frame.column import factorize_many
from repro.frame.io import from_string, to_string

# Strategy: a small frame with an int key, a string key and a float value.
_keys = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=40)
_safe_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), max_codepoint=0x2FF
    ),
    min_size=0,
    max_size=6,
)


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    return Frame(
        {
            "k": draw(
                st.lists(
                    st.integers(min_value=-3, max_value=3), min_size=n, max_size=n
                )
            ),
            "s": np.array(
                draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)),
                dtype=object,
            ),
            "v": draw(
                st.lists(
                    st.floats(
                        allow_nan=False, allow_infinity=False, width=32
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
        }
    )


@given(frames())
def test_filter_take_equivalence(f):
    """filter(mask) and take(where(mask)) give identical frames."""
    mask = f["k"] > 0
    a, b = f.filter(mask), f.take(np.flatnonzero(mask))
    for c in f.columns:
        assert (a[c] == b[c]).all()


@given(frames())
def test_sort_is_permutation(f):
    s = f.sort_by("k", "s")
    assert sorted(s["k"]) == sorted(f["k"])
    ks = list(s["k"])
    assert ks == sorted(ks)


@given(frames())
def test_groupby_sizes_sum_to_rows(f):
    sizes = f.groupby(["k", "s"]).size()
    assert sizes["count"].sum() == f.num_rows if f.num_rows else True


@given(frames())
def test_groupby_sum_matches_total(f):
    """Group sums add up to the total within float-summation error.

    Summing per group and then across groups rounds differently from
    one pass over the column, and values near +-3.4e38 can cancel to a
    total far smaller than the rounding error, so no relative tolerance
    on the total holds. Each order is off by at most about n*eps/2 of
    the sum of magnitudes, which bounds the difference.
    """
    out = f.groupby("k").agg(s=("v", "sum"))
    v = np.asarray(f["v"], dtype=float)
    error = abs(out["s"].sum() - v.sum())
    assert error <= len(v) * np.finfo(float).eps * np.abs(v).sum()


@given(frames())
def test_groupby_min_max_bound_mean(f):
    out = f.groupby("k").agg(lo=("v", "min"), hi=("v", "max"), m=("v", "mean"))
    assert (out["lo"] <= out["hi"]).all()
    assert (out["m"] >= out["lo"] - 1e-9).all()
    assert (out["m"] <= out["hi"] + 1e-9).all()


@given(frames())
def test_factorize_many_row_identity(f):
    """Two rows share a code iff all key columns agree."""
    if not f.num_rows:
        return
    codes, n = factorize_many([f["k"], f["s"]])
    assert codes.max() == n - 1
    pairs = list(zip(f["k"], f["s"]))
    for i in range(min(len(pairs), 15)):
        for j in range(i + 1, min(len(pairs), 15)):
            assert (codes[i] == codes[j]) == (pairs[i] == pairs[j])


@given(frames())
@settings(max_examples=50)
def test_io_roundtrip(f):
    back = from_string(to_string(f))
    assert back.num_rows == f.num_rows
    if f.num_rows:
        for c in f.columns:
            assert (back[c] == f[c]).all()


@given(frames(), frames())
@settings(max_examples=50)
def test_concat_length(f, g):
    assert concat([f, g]).num_rows == f.num_rows + g.num_rows


@given(frames())
def test_inner_join_self_on_unique_key(f):
    """Joining on a made-unique key returns the same number of rows."""
    f = f.with_column("uid", np.arange(f.num_rows))
    out = f.join(f.select(["uid"]).with_column("flag", np.ones(f.num_rows)), on="uid")
    assert out.num_rows == f.num_rows


@given(frames())
def test_left_join_never_drops_left_rows(f):
    right = Frame({"k": [0, 1], "extra": [1.0, 2.0]})
    out = f.join(right, on="k", how="left")
    assert out.num_rows >= f.num_rows


@given(frames())
def test_value_counts_total(f):
    if f.num_rows:
        vc = f.value_counts("s")
        assert vc["count"].sum() == f.num_rows
