"""The byte-capped LRU map the kernel-tape cache lives in."""

from repro.util.lru import ByteLRU


class TestByteLRU:
    def test_evicts_least_recently_used_past_the_cap(self):
        lru = ByteLRU(100)
        lru.put("a", 1, 40)
        lru.put("b", 2, 40)
        assert lru.get("a") == 1  # refreshes a: b is now the cold end
        lru.put("c", 3, 40)
        assert list(lru._entries) == ["a", "c"]
        assert lru.nbytes == 80
        assert lru.get("b") is None
        assert (lru.hits, lru.misses) == (1, 1)

    def test_replacing_a_key_recounts_its_bytes(self):
        lru = ByteLRU(100)
        lru.put("a", 1, 90)
        lru.put("a", 2, 10)
        assert lru.nbytes == 10 and lru.get("a") == 2

    def test_entry_larger_than_the_cap_is_not_retained(self):
        lru = ByteLRU(100)
        lru.put("a", 1, 30)
        lru.put("huge", 2, 101)
        assert not lru._entries and lru.nbytes == 0
