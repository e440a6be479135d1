import queue
import threading

import pytest

from flowsketch.bus import TopicBus, TopicClosed


class TestOrdering:
    def test_fifo_single_producer(self):
        bus = TopicBus()
        sub = bus.subscribe("t")
        bus.publish("t", "m1")
        bus.publish("t", "m2")
        assert sub.get() == "m1"
        assert sub.get() == "m2"

    def test_per_producer_order_with_four_producers(self):
        bus = TopicBus(maxsize=200_000)
        sub = bus.subscribe("audit")
        n_per = 25_000

        def producer(pid):
            for i in range(n_per):
                bus.publish("audit", (pid, i))

        threads = [threading.Thread(target=producer, args=(p,)) for p in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        bus.close_topic("audit")
        last = [-1] * 4
        received = 0
        for pid, seq in sub:
            assert seq == last[pid] + 1, f"producer {pid} out of order"
            last[pid] = seq
            received += 1
        assert received == 4 * n_per


class TestLifecycle:
    def test_closed_topic_raises(self):
        bus = TopicBus()
        sub = bus.subscribe("t")
        bus.publish("t", 1)
        bus.close_topic("t")
        assert sub.get() == 1
        with pytest.raises(TopicClosed):
            sub.get()
        with pytest.raises(TopicClosed):
            bus.publish("t", 2)

    def test_end_of_stream_is_final(self):
        # a consumer that reads past the end (say, to drain after a
        # failure) sees TopicClosed again instead of blocking
        bus = TopicBus()
        sub = bus.subscribe("t")
        bus.close_topic("t")
        assert list(sub) == []
        with pytest.raises(TopicClosed):
            sub.get(timeout=0.01)
        assert list(sub) == []

    def test_empty_topic_name_rejected(self):
        bus = TopicBus()
        with pytest.raises(ValueError):
            bus.publish("", 1)
        with pytest.raises(ValueError):
            bus.subscribe("")

    def test_second_subscriber_refused(self):
        bus = TopicBus()
        sub = bus.subscribe("t")
        with pytest.raises(ValueError, match="already has a subscriber"):
            bus.subscribe("t")
        bus.publish("t", 1)
        assert sub.get() == 1

    def test_unsubscribed_topic_refused(self):
        # a message nobody will read is an error, not a silent drop
        bus = TopicBus()
        with pytest.raises(ValueError, match="no subscriber"):
            bus.publish("t", 1)
        with pytest.raises(ValueError, match="no subscriber"):
            bus.close_topic("t")

    def test_get_timeout(self):
        bus = TopicBus()
        sub = bus.subscribe("t")
        with pytest.raises(queue.Empty):
            sub.get(timeout=0.01)

    def test_backpressure_blocks_until_consumed(self):
        bus = TopicBus(maxsize=1)
        sub = bus.subscribe("t")
        bus.publish("t", 0)
        done = threading.Event()

        def blocked_publish():
            bus.publish("t", 1)
            done.set()

        t = threading.Thread(target=blocked_publish)
        t.start()
        assert not done.wait(timeout=0.05)
        assert sub.get() == 0
        assert done.wait(timeout=1.0)
        t.join()
        assert sub.get() == 1
