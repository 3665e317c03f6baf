"""Synthetic Usenet2 stream (Sec. 6.4 substitution).

The paper evaluates Naive Bayes on the Usenet2 dataset of Katakis et
al. [23]: 1500 messages drawn from three 20-Newsgroups topics,
sequentially shown to a simulated user whose interest flips every 300
messages — producing *recurring contexts* (the same interest set
returns later). The original file is not available offline, so this
generator reproduces its statistical structure (documented in
DESIGN.md):

* 1500 bag-of-words messages over a fixed vocabulary;
* three latent topics, each with its own word distribution over a
  topic-specific vocabulary block plus shared common words;
* the user's interest set alternates between {topic 0} and {topic 2}
  every 300 messages (topic 1 is never interesting — background);
* the label is 1 ("interesting") iff the message's topic is in the
  current interest set.

A classifier that tracks the current context can do well; a sliding
window forgets the recurring context, and a uniform sample mixes
contexts — exactly the contrast the paper's experiment probes.
"""
from __future__ import annotations

import numpy as np

from repro.rng import make_rng

N_MESSAGES = 1500
SEGMENT = 300
N_TOPICS = 3
VOCAB_PER_TOPIC = 60  # words in each topic's own vocabulary block
COMMON_WORDS = 120  # words shared by all topics
WORDS_PER_MESSAGE = 40
TOPIC_WORD_SHARE = 0.55  # a topic's word mass on its own block


class UsenetStream:
    """Generator for the full 1500-message synthetic Usenet2 stream."""

    def __init__(self, seed: int | np.random.Generator = 0):
        self.rng = make_rng(seed)
        self.vocab_size = N_TOPICS * VOCAB_PER_TOPIC + COMMON_WORDS
        # topic-conditional word distributions: mass `TOPIC_WORD_SHARE`
        # on the topic's own block, the rest spread over common words.
        self._dists = np.zeros((N_TOPICS, self.vocab_size))
        for k in range(N_TOPICS):
            block = slice(k * VOCAB_PER_TOPIC, (k + 1) * VOCAB_PER_TOPIC)
            w_block = self.rng.dirichlet(np.full(VOCAB_PER_TOPIC, 0.5))
            w_common = self.rng.dirichlet(np.full(COMMON_WORDS, 0.5))
            self._dists[k, block] = TOPIC_WORD_SHARE * w_block
            self._dists[k, N_TOPICS * VOCAB_PER_TOPIC :] = (
                1.0 - TOPIC_WORD_SHARE
            ) * w_common

    @staticmethod
    def interest_set(msg_index: int) -> set[int]:
        """User interest for the 0-based message index: flips every 300
        messages between {topic 0} and {topic 2}, i.e. recurring."""
        segment = msg_index // SEGMENT
        return {0} if segment % 2 == 0 else {2}

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """The full stream: (X counts of shape (1500, V), labels 0/1)."""
        X = np.zeros((N_MESSAGES, self.vocab_size), dtype=np.int64)
        y = np.zeros(N_MESSAGES, dtype=np.int64)
        topics = self.rng.integers(0, N_TOPICS, size=N_MESSAGES)
        for i in range(N_MESSAGES):
            counts = self.rng.multinomial(
                WORDS_PER_MESSAGE, self._dists[topics[i]]
            )
            X[i] = counts
            y[i] = 1 if int(topics[i]) in self.interest_set(i) else 0
        return X, y
