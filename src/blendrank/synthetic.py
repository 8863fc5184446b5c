"""Synthetic topic-clustered corpus generator for desk-scale experiments.

Documents belong to a topic; text is drawn mostly from the topic's
vocabulary, with sibling topics sharing a large fraction of their words
plus global shared/common fillers and cross-topic leakage. Topic sizes are
Dirichlet-distributed, so clusters differ widely in population.

Embeddings encode the topic (a hashed descriptor unit vector plus noise)
and one dense-only document property: a "genre" bit written on a reserved
coordinate that queries never use, so it is invisible to cosine ordering
and to the first retrieval stage.

Relevance requires BOTH channels. A document is relevant only when it
shares the query's topic and contains at least 2 of the 3 query words; it
is grade 2 when it contains all 3 words or is in genre 1, grade 1
otherwise. Lexical features see word overlap (but are confused by
sibling-topic collisions and cannot see the genre); dense features see
topic and genre (but not words). A ranker needs both families to separate
grade 2 from grade 1, which is exactly the regime the blended re-ranker
is built for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Qrels, QuerySet
from .embeddings import EmbeddingMatrix, toy_encode

TOPIC_VOCAB = 60
PAIR_SHARE = 0.6
GENRE_DIM = 0
GENRE_WEIGHT = 0.5
DOC_NOISE = 0.40
QUERY_NOISE = 0.40
QUERY_WORDS = 3
MIN_DOCS, MIN_QUERIES, MIN_DIM = 100, 1, 2
P_TOPIC = 0.55
P_SHARED = 0.20
P_COMMON = 0.15
DOC_LEN_RANGE = (20, 41)
TOPIC_SIZE_ALPHA = 0.8


@dataclass
class SyntheticData:
    corpus: Corpus
    queries: QuerySet
    qrels: Qrels
    doc_embeddings: EmbeddingMatrix
    query_embeddings: EmbeddingMatrix
    doc_topics: np.ndarray
    doc_genres: np.ndarray
    query_topics: np.ndarray


def _topic_vocabularies(n_topics: int) -> list[list[str]]:
    """Sibling pairs (2p, 2p+1) share PAIR_SHARE of their vocabulary."""
    n_shared = int(TOPIC_VOCAB * PAIR_SHARE)
    n_unique = TOPIC_VOCAB - n_shared
    vocabs = []
    for t in range(n_topics):
        pair = t // 2
        shared = [f"p{pair}s{i}" for i in range(n_shared)]
        unique = [f"t{t}u{i}" for i in range(n_unique)]
        vocabs.append(unique + shared)
    return vocabs


def make_synthetic(n_docs: int, n_queries: int, dim: int, seed: int) -> SyntheticData:
    """Deterministic synthetic collection with complementary relevance signals,
    over max(4, round(sqrt(n_docs) / 2)) topics."""
    if n_docs < MIN_DOCS:
        raise ValueError(f"n_docs must be >= {MIN_DOCS}")
    if n_queries < MIN_QUERIES or dim < MIN_DIM:
        raise ValueError(f"need n_queries >= {MIN_QUERIES} and dim >= {MIN_DIM}")
    rng = np.random.default_rng(seed)
    n_topics = max(4, int(round(np.sqrt(n_docs) / 2.0)))
    vocabs = _topic_vocabularies(n_topics)
    vocab_sets = [set(v) for v in vocabs]
    shared_pool = [f"shared{i}" for i in range(60)]
    common_pool = [f"common{i}" for i in range(40)]

    topic_units = np.vstack([
        toy_encode(f"topicmark{t}a topicmark{t}b topicmark{t}c", dim, seed)
        for t in range(n_topics)
    ])
    # The genre coordinate is reserved for documents; keep topics off it.
    topic_units[:, GENRE_DIM] = 0.0
    topic_units /= np.linalg.norm(topic_units, axis=1, keepdims=True)

    topic_weights = rng.dirichlet(np.full(n_topics, TOPIC_SIZE_ALPHA))
    doc_topics = rng.choice(n_topics, size=n_docs, p=topic_weights)
    doc_genres = rng.integers(0, 2, size=n_docs)
    doc_ids = [f"D{i}" for i in range(n_docs)]
    texts = []
    doc_token_sets: list[set[str]] = []
    word_docs: dict[str, list[int]] = {}
    for i in range(n_docs):
        z = int(doc_topics[i])
        length = int(rng.integers(*DOC_LEN_RANGE))
        r = rng.random(length)
        words = []
        for u in r:
            if u < P_TOPIC:
                words.append(vocabs[z][int(rng.integers(TOPIC_VOCAB))])
            elif u < P_TOPIC + P_SHARED:
                words.append(shared_pool[int(rng.integers(len(shared_pool)))])
            elif u < P_TOPIC + P_SHARED + P_COMMON:
                words.append(common_pool[int(rng.integers(len(common_pool)))])
            else:
                other = int(rng.integers(n_topics))
                words.append(vocabs[other][int(rng.integers(TOPIC_VOCAB))])
        texts.append(" ".join(words))
        tok_set = set(words)
        doc_token_sets.append(tok_set)
        for w in tok_set:
            word_docs.setdefault(w, []).append(i)

    def _noise(scale: float) -> np.ndarray:
        g = rng.standard_normal(dim)
        return scale * g / np.linalg.norm(g)

    doc_vecs = np.empty((n_docs, dim), dtype=np.float64)
    for i in range(n_docs):
        v = topic_units[doc_topics[i]] + _noise(DOC_NOISE)
        v[GENRE_DIM] += GENRE_WEIGHT * (1.0 if doc_genres[i] else -1.0)
        doc_vecs[i] = v / np.linalg.norm(v)

    query_ids = []
    query_texts = []
    query_topics = np.empty(n_queries, dtype=np.int64)
    query_vecs = np.empty((n_queries, dim), dtype=np.float64)
    judgments: dict[tuple[str, str], int] = {}
    for j in range(n_queries):
        while True:
            src = int(rng.integers(n_docs))
            z = int(doc_topics[src])
            topical = sorted(doc_token_sets[src] & vocab_sets[z])
            if len(topical) >= QUERY_WORDS:
                break
        pick = rng.choice(len(topical), size=QUERY_WORDS, replace=False)
        terms = [topical[p] for p in sorted(pick)]
        qid = f"Q{j}"
        query_ids.append(qid)
        query_texts.append(" ".join(terms))
        query_topics[j] = z
        v = topic_units[z] + _noise(QUERY_NOISE)
        query_vecs[j] = v / np.linalg.norm(v)

        overlap: dict[int, int] = {}
        for w in terms:
            for d in word_docs.get(w, []):
                overlap[d] = overlap.get(d, 0) + 1
        for d, cnt in overlap.items():
            if doc_topics[d] != z or cnt < QUERY_WORDS - 1:
                continue
            full_overlap = cnt == QUERY_WORDS
            grade = 2 if (full_overlap or doc_genres[d]) else 1
            judgments[(qid, doc_ids[d])] = grade

    return SyntheticData(
        corpus=Corpus(doc_ids, texts),
        queries=QuerySet(query_ids, query_texts),
        qrels=Qrels(judgments),
        doc_embeddings=EmbeddingMatrix(doc_vecs.astype(np.float32)),
        query_embeddings=EmbeddingMatrix(query_vecs.astype(np.float32)),
        doc_topics=doc_topics.astype(np.int64),
        doc_genres=doc_genres.astype(np.int64),
        query_topics=query_topics,
    )
