"""In-process ordered topic bus with bounded queues and backpressure.

Every subscriber of a topic observes that topic's messages in publish
order. Publishing while a subscriber's queue is full blocks the
producer, which is the backpressure that keeps stages in step.
Subscriptions are streaming: a late subscriber sees only messages
published after it attached.
"""

import queue
import threading


class TopicClosed(Exception):
    """Raised by Subscription.get once the topic is closed and drained."""


_CLOSE = object()


class Subscription:
    """One consumer's ordered view of a topic."""

    def __init__(self, topic: str, maxsize: int):
        self.topic = topic
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._ended = False

    def get(self, timeout: float | None = None):
        """Next message in publish order; raises TopicClosed at end of
        stream (and on every get after it) and queue.Empty on timeout."""
        if self._ended:
            raise TopicClosed(self.topic)
        item = self._queue.get(timeout=timeout)
        if item is _CLOSE:
            self._ended = True
            raise TopicClosed(self.topic)
        return item

    def __iter__(self):
        while True:
            try:
                yield self.get()
            except TopicClosed:
                return


class TopicBus:
    """Named topics with FIFO fan-out to every subscriber."""

    def __init__(self, maxsize: int = 1024):
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._topics: dict[str, list[Subscription]] = {}
        self._publish_locks: dict[str, threading.Lock] = {}
        self._closed: set[str] = set()

    def _topic_lock(self, topic: str) -> threading.Lock:
        with self._lock:
            return self._publish_locks.setdefault(topic, threading.Lock())

    def publish(self, topic: str, message) -> None:
        """Deliver message to every current subscriber of topic, in a
        single atomic order across concurrent producers."""
        if not topic:
            raise ValueError("topic name must be non-empty")
        with self._topic_lock(topic):
            if topic in self._closed:
                raise TopicClosed(topic)
            with self._lock:
                subs = list(self._topics.get(topic, ()))
            for sub in subs:
                sub._queue.put(message)

    def subscribe(self, topic: str) -> Subscription:
        if not topic:
            raise ValueError("topic name must be non-empty")
        sub = Subscription(topic, self._maxsize)
        with self._lock:
            if topic in self._closed:
                raise TopicClosed(topic)
            self._topics.setdefault(topic, []).append(sub)
        return sub

    def close_topic(self, topic: str) -> None:
        """End of stream: subscribers drain what was published, then see
        TopicClosed."""
        with self._topic_lock(topic):
            with self._lock:
                self._closed.add(topic)
                subs = list(self._topics.get(topic, ()))
            for sub in subs:
                sub._queue.put(_CLOSE)
