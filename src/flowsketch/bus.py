"""In-process topic bus: one bounded FIFO queue per topic, read by the
topic's one subscriber.

A topic's subscriber attaches before anything is published to it or
the topic is closed; a second subscriber, or a publish or close on a
topic nobody subscribed to, raises ValueError instead of losing the
message. Publishing while the queue is full blocks the producer, which
is the backpressure that keeps stages in step.
"""

import queue


class TopicClosed(Exception):
    """Raised by Subscription.get once the topic is closed and drained."""


_CLOSE = object()


class Subscription:
    """The one consumer of a topic: its messages in publish order."""

    def __init__(self, topic: str, maxsize: int):
        self.topic = topic
        self._queue: queue.Queue = queue.Queue(maxsize=maxsize)
        self._closed = False  # no further publish
        self._ended = False   # end of stream read

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
    """Named topics, each one bounded queue with one subscriber."""

    def __init__(self, maxsize: int = 1024):
        self._maxsize = maxsize
        self._subs: dict[str, Subscription] = {}

    def _subscription(self, topic: str) -> Subscription:
        sub = self._subs.get(topic)
        if sub is None:
            raise ValueError(f"topic {topic!r} has no subscriber")
        return sub

    def publish(self, topic: str, message) -> None:
        """Queue message for topic's subscriber, blocking while its
        queue is full."""
        sub = self._subscription(topic)
        if sub._closed:
            raise TopicClosed(topic)
        sub._queue.put(message)

    def subscribe(self, topic: str) -> Subscription:
        if not topic:
            raise ValueError("topic name must be non-empty")
        sub = Subscription(topic, self._maxsize)
        if self._subs.setdefault(topic, sub) is not sub:
            raise ValueError(f"topic {topic!r} already has a subscriber")
        return sub

    def close_topic(self, topic: str) -> None:
        """End of stream: the subscriber drains what was published, then
        sees TopicClosed. Close a topic once its every publish has
        returned; a later publish raises TopicClosed."""
        sub = self._subscription(topic)
        sub._closed = True
        sub._queue.put(_CLOSE)
