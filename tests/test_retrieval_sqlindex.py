"""Persistent SQLite index: incremental indexing, warm restarts,
concurrency, corruption, and hybrid scoring over it."""

import sqlite3
import threading

import pytest

from repro.errors import (
    ConfigError,
    EmptyIndexError,
    RetrievalError,
    UnknownDocumentError,
)
from repro.retrieval import (
    DB_NAME,
    BM25Scorer,
    Document,
    InvertedIndex,
    Searcher,
    SqliteIndex,
    SqliteSearcher,
    make_retrieval_scorer,
    open_index,
)
from repro.retrieval.sqlindex import SCHEMA_VERSION, content_hash
from repro.textproc import Tokenizer


@pytest.fixture()
def docs(tiny_corpus):
    return list(tiny_corpus)


@pytest.fixture()
def index(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        yield ix


# ---------------------------------------------------------------------------
# Protocol parity with the in-memory index


def test_read_protocol_matches_inverted_index(index, docs):
    mem = InvertedIndex.build(docs)
    assert len(index) == len(mem)
    assert sorted(index.vocabulary()) == sorted(mem.vocabulary())
    for doc in docs:
        assert doc.doc_id in index
        assert index.doc_length(doc.doc_id) == mem.doc_length(doc.doc_id)
        assert index.document(doc.doc_id) == mem.document(doc.doc_id)
    for term in mem.vocabulary():
        assert index.document_frequency(term) == mem.document_frequency(term)
        assert sorted(index.postings(term), key=lambda p: p.doc_id) == sorted(
            mem.postings(term), key=lambda p: p.doc_id
        )
    assert index.stats == mem.stats
    assert index.term_frequency("quick", "d4") == mem.term_frequency("quick", "d4")
    assert index.term_frequency("quick", "d3") == 0


def test_bm25_rankings_match_inverted_index(index, docs):
    mem_result = Searcher(InvertedIndex.build(docs), scorer=BM25Scorer()).search(
        "quick fox", k=4
    )
    sql_result = SqliteSearcher(index, scorer=BM25Scorer()).search("quick fox", k=4)
    assert [
        (s.document.doc_id, s.rank, s.score) for s in sql_result.sources
    ] == [(s.document.doc_id, s.rank, s.score) for s in mem_result.sources]


def test_documents_in_first_indexed_order(index, docs):
    assert [d.doc_id for d in index.documents()] == [d.doc_id for d in docs]
    assert index.doc_ids() == [d.doc_id for d in docs]


def test_missing_document_raises(index):
    with pytest.raises(UnknownDocumentError):
        index.document("missing")
    with pytest.raises(UnknownDocumentError):
        index.doc_length("missing")


# ---------------------------------------------------------------------------
# Incremental indexing: add / update / remove / sync


def test_add_reports_outcomes(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        assert ix.add(docs[0]) == "added"
        assert ix.add(docs[0]) == "unchanged"
        changed = Document(doc_id=docs[0].doc_id, text="entirely new text")
        assert ix.add(changed) == "updated"
        assert ix.document(docs[0].doc_id).text == "entirely new text"


def test_unchanged_readd_is_a_noop(index, docs):
    before = index.counters["doc_tokenizations"]
    assert index.add_many(docs) == {"added": 0, "updated": 0, "unchanged": 4}
    assert index.counters["doc_tokenizations"] == before
    assert index.counters["unchanged"] == 4


def test_update_replaces_postings_atomically(index):
    changed = Document(doc_id="d1", text="zebra stripes")
    assert index.update(changed) == "updated"
    # The old content's postings are fully withdrawn.
    assert all(p.doc_id != "d1" for p in index.postings("lazi"))
    assert index.document_frequency("zebra") == 1
    assert index.doc_length("d1") == 2


def test_update_requires_existing_document(index):
    with pytest.raises(UnknownDocumentError):
        index.update(Document(doc_id="missing", text="x"))


def test_remove_withdraws_every_contribution(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        ix.remove("d4")
        rebuilt = InvertedIndex.build([d for d in docs if d.doc_id != "d4"])
        assert ix.stats == rebuilt.stats
        assert sorted(ix.vocabulary()) == sorted(rebuilt.vocabulary())
        assert "d4" not in ix
        with pytest.raises(UnknownDocumentError):
            ix.remove("d4")


def test_sync_mirrors_a_corpus(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        assert ix.sync(docs)["added"] == 4
        smaller = docs[:2] + [Document(doc_id="d3", text="rewritten")]
        outcome = ix.sync(smaller, remove_missing=True)
        assert outcome == {"added": 0, "updated": 1, "unchanged": 2, "removed": 1}
        assert sorted(ix.doc_ids()) == ["d1", "d2", "d3"]


def test_content_hash_covers_title_and_metadata():
    base = Document(doc_id="d", text="x")
    assert content_hash(base) == content_hash(Document(doc_id="d", text="x"))
    assert content_hash(base) != content_hash(Document(doc_id="d", text="x", title="t"))
    assert content_hash(base) != content_hash(
        Document(doc_id="d", text="x", metadata={"y": "1"})
    )


# ---------------------------------------------------------------------------
# Warm restarts


def test_warm_reopen_serves_identical_bytes_with_zero_tokenization(tmp_path, docs):
    query, k = "quick brown fox", 4
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        cold = SqliteSearcher(ix, scorer=BM25Scorer()).search(query, k=k)
    with open_index(tmp_path / "ix") as warm_ix:
        assert warm_ix.sync(docs) == {
            "added": 0, "updated": 0, "unchanged": 4, "removed": 0,
        }
        warm = SqliteSearcher(warm_ix, scorer=BM25Scorer()).search(query, k=k)
        # Zero re-tokenization of unchanged documents on the warm path.
        assert warm_ix.counters["doc_tokenizations"] == 0
    assert [
        (s.document.doc_id, s.rank, s.score) for s in warm.sources
    ] == [(s.document.doc_id, s.rank, s.score) for s in cold.sources]


def test_reopen_adopts_stored_tokenizer(tmp_path):
    tok = Tokenizer(stem=False, remove_stopwords=False)
    with open_index(tmp_path / "ix", tokenizer=tok) as ix:
        ix.add(Document(doc_id="d", text="The Running Foxes"))
    with open_index(tmp_path / "ix") as ix:
        assert ix.tokenizer.stem is False
        assert ix.tokenizer.remove_stopwords is False
        assert ix.document_frequency("running") == 1  # not stemmed


def test_reopen_with_conflicting_tokenizer_rejected(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        ix.add(Document(doc_id="d", text="hello world"))
    with pytest.raises(RetrievalError, match="analyzer"):
        open_index(tmp_path / "ix", tokenizer=Tokenizer(stem=False))


def test_schema_version_mismatch_rejected(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        ix.add(Document(doc_id="d", text="hello"))
        path = ix.path
    conn = sqlite3.connect(str(path))
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(RetrievalError, match="schema version"):
        open_index(tmp_path / "ix")


# ---------------------------------------------------------------------------
# Corruption and lifecycle


def test_non_sqlite_garbage_raises_retrieval_error(tmp_path):
    root = tmp_path / "ix"
    root.mkdir()
    (root / DB_NAME).write_bytes(b"this is definitely not a database" * 64)
    with pytest.raises(RetrievalError):
        open_index(root)


def test_truncated_database_raises_retrieval_error(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        path = ix.path
    # Keep the SQLite header (so connect succeeds) but shear off the
    # b-tree pages: reads must surface RetrievalError, never a raw
    # sqlite3 traceback.
    blob = path.read_bytes()
    path.write_bytes(blob[:120])
    with pytest.raises(RetrievalError):
        with open_index(tmp_path / "ix") as ix:
            ix.postings("quick")


def test_index_dir_collision_with_file(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("occupied")
    with pytest.raises(ConfigError):
        open_index(target)


def test_closed_index_rejects_use(tmp_path, docs):
    ix = open_index(tmp_path / "ix")
    ix.add(docs[0])
    ix.close()
    with pytest.raises(RetrievalError, match="closed"):
        ix.postings("quick")


def test_empty_index_search_raises(tmp_path):
    with open_index(tmp_path / "ix") as ix:
        with pytest.raises(EmptyIndexError):
            SqliteSearcher(ix, scorer=BM25Scorer()).search("anything")


# ---------------------------------------------------------------------------
# Concurrency: WAL readers vs the single writer


def test_concurrent_readers_during_writes(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    result = searcher.search("quick fox", k=3)
                    assert result.sources  # always a consistent ranking
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for i in range(25):
                ix.add(Document(doc_id=f"extra-{i}", text=f"filler body {i}"))
            for i in range(25):
                ix.remove(f"extra-{i}")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        assert len(ix) == len(docs)


def test_short_lived_search_threads_leave_bounded_connections(tmp_path, docs):
    """A thread per request (the serving model) must not leave one open
    connection per thread that ever searched: connections go back to a
    small pool, and the rankings stay those of a single-thread search."""
    from repro.retrieval.sqlindex import MAX_IDLE_CONNECTIONS

    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(ix, scorer=BM25Scorer())
        expected = searcher.search("quick fox", k=3).doc_ids()
        rankings = []
        lock = threading.Lock()

        def one_search():
            ranking = searcher.search("quick fox", k=3).doc_ids()
            with lock:
                rankings.append(ranking)

        for _ in range(10):  # overlapping waves of short-lived threads
            threads = [threading.Thread(target=one_search) for _ in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        assert len(rankings) == 50
        assert all(ranking == expected for ranking in rankings)
        assert 1 <= len(ix._connections) <= MAX_IDLE_CONNECTIONS
    assert len(ix._connections) == 0  # close() reaps the pool


def test_idle_connection_pool_is_capped(tmp_path, docs):
    """Many threads inside snapshots at once each need a connection;
    once they leave, only MAX_IDLE_CONNECTIONS stay open."""
    from repro.retrieval.sqlindex import MAX_IDLE_CONNECTIONS

    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        width = MAX_IDLE_CONNECTIONS + 3
        inside = threading.Barrier(width + 1, timeout=10)
        leave = threading.Event()

        def hold_snapshot():
            with ix.snapshot():
                ix.document_frequency("quick")
                inside.wait()
                leave.wait(10)

        threads = [threading.Thread(target=hold_snapshot) for _ in range(width)]
        for thread in threads:
            thread.start()
        inside.wait()
        assert len(ix._connections) == width  # one lent per snapshot
        leave.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(ix._connections) == MAX_IDLE_CONNECTIONS


def test_reads_inside_a_snapshot_share_its_connection(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        with ix.snapshot() as conn:
            ix.postings("quick")
            ix.stats
            assert len(ix._connections) == 1
            # Another thread's read meanwhile borrows a second connection.
            worker = threading.Thread(target=ix.document_frequency, args=("fox",))
            worker.start()
            worker.join(timeout=10)
            assert len(ix._connections) == 2
            conn.execute("SELECT 1")  # still this block's live connection
        assert len(ix._connections) == 2  # both went back to the pool


def test_snapshot_isolates_a_search_from_commits(tmp_path, docs):
    """Inside one snapshot, reads see one database version even after
    another connection (here: a second handle) commits."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        writer = open_index(tmp_path / "ix")
        try:
            with ix.snapshot():
                before = ix.document_frequency("quick")
                writer.add(Document(doc_id="d9", text="quick quick"))
                assert ix.document_frequency("quick") == before
            # A fresh snapshot observes the external commit.
            with ix.snapshot():
                assert ix.document_frequency("quick") == before + 1
        finally:
            writer.close()


def test_cross_handle_cache_invalidation(tmp_path, docs):
    """A long-lived reader handle notices another handle's commits."""
    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
        assert len(ix) == 4
        other = open_index(tmp_path / "ix")
        try:
            other.add(Document(doc_id="d5", text="a fifth document"))
        finally:
            other.close()
        assert len(ix) == 5
        assert ix.doc_length("d5") == 2  # "a" is a stopword: fifth, document


# ---------------------------------------------------------------------------
# Dense vectors and hybrid scoring over the persistent index


def test_dense_vectors_persist(tmp_path, docs):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        cold = ix.dense_view().scores("quick brown fox")
    with open_index(tmp_path / "ix") as warm:
        assert warm.embedder is not None  # reconstructed from stored meta
        assert warm.dense_view().scores("quick brown fox") == cold


def test_dense_view_requires_vectors(index):
    with pytest.raises(RetrievalError, match="dense"):
        index.dense_view()


def test_embedder_on_sparse_index_rejected(tmp_path, docs):
    from repro.retrieval import HashedEmbedder

    with open_index(tmp_path / "ix") as ix:
        ix.add_many(docs)
    with pytest.raises(RetrievalError, match="without dense vectors"):
        open_index(tmp_path / "ix", embedder=HashedEmbedder())


def test_embedder_dimension_mismatch_rejected(tmp_path, docs):
    from repro.retrieval import HashedEmbedder

    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
    with pytest.raises(RetrievalError, match="dimensional"):
        open_index(tmp_path / "ix", embedder=HashedEmbedder(dimensions=8))


@pytest.mark.parametrize("mode,fusion", [
    ("bm25", "minmax"),
    ("dense", "minmax"),
    ("hybrid", "minmax"),
    ("hybrid", "rrf"),
])
def test_retrieval_modes_rank_deterministically(tmp_path, docs, mode, fusion):
    with open_index(tmp_path / "ix", dense=True) as ix:
        ix.add_many(docs)
        searcher = SqliteSearcher(
            ix, scorer=make_retrieval_scorer(ix, mode=mode, fusion=fusion)
        )
        first = searcher.search("quick fox", k=4)
        second = searcher.search("quick fox", k=4)
        assert [
            (s.document.doc_id, s.score) for s in first.sources
        ] == [(s.document.doc_id, s.score) for s in second.sources]
        assert first.sources  # every mode retrieves something here


def test_make_retrieval_scorer_validates_names(index):
    with pytest.raises(ConfigError):
        make_retrieval_scorer(index, mode="nope")
    with pytest.raises(ConfigError):
        make_retrieval_scorer(index, mode="hybrid", fusion="nope")


# ---------------------------------------------------------------------------
# Odds and ends


def test_size_bytes_grows_with_content(tmp_path, docs):
    with open_index(tmp_path / "ix") as ix:
        empty = ix.size_bytes()
        ix.add_many(docs)
        assert ix.size_bytes() > 0
        assert ix.size_bytes() >= empty


def test_search_counter_increments(index):
    searcher = SqliteSearcher(index, scorer=BM25Scorer())
    searcher.search("quick", k=2)
    searcher.search("fox", k=2)
    assert index.counters["searches"] == 2
