from collections import Counter
from dataclasses import replace

from diatomic import verify
from diatomic.fracs import Frac


def test_histogram_checks_build_each_order_once(monkeypatch):
    calls = Counter()
    original = verify.histogram

    def counted(k, *args):
        calls[k] += 1
        return original(k, *args)

    monkeypatch.setattr(verify, "histogram", counted)
    verify._order.cache_clear()
    assert verify.check_histograms(12, 0).ok
    assert verify.check_tables(12, 0).ok
    assert calls == {k: 1 for k in range(13)}
    verify._order.cache_clear()


def test_directive_roundtrip_catches_a_wrong_slope_word(monkeypatch):
    # the word of slope q/p, returned as is and relabelled p/q
    assert verify.check_directive_roundtrip(0, 20).ok
    original = verify.christoffel_by_slope
    for swapped in (
        lambda p, q: original(q, p),
        lambda p, q: replace(original(q, p), slope=Frac(p, q)),
    ):
        monkeypatch.setattr(verify, "christoffel_by_slope", swapped)
        assert not verify.check_directive_roundtrip(0, 20).ok
