import random

import pytest

from poollab import Document, Pool


@pytest.fixture
def ten_token_docs():
    """100 documents of exactly 10 whitespace tokens each."""
    return [
        Document(f"doc-{i:03d}", " ".join(f"w{i}x{j}" for j in range(10)))
        for i in range(100)
    ]


@pytest.fixture
def small_pool(ten_token_docs):
    return Pool(documents=ten_token_docs[:20], seed=7, label="small")


def random_words(rng: random.Random, n: int) -> list[str]:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(3, 8))) for _ in range(n)]
