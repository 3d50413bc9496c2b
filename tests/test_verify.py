from collections import Counter

from diatomic import verify


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
