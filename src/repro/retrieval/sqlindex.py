"""Persistent incremental hybrid retrieval index, SQLite-backed.

The in-memory :class:`~repro.retrieval.index.InvertedIndex` rebuilds
from raw text on every process start and persists only as one whole-file
JSON blob.  :class:`SqliteIndex` is the production-shaped replacement —
the project's stand-in for a Lucene index directory:

* **One WAL-mode database** holds documents, postings, per-document
  lengths and (optionally) dense embedding vectors, stamped with a
  schema version and the analyzer configuration, so a reopened index
  tokenizes queries identically and never re-analyzes a stored document.
* **Lazy open** — opening is O(1); collection statistics and document
  lengths load on first search, postings stream per query term.  A warm
  restart therefore serves byte-identical results with *zero*
  re-tokenization of unchanged documents (``counters["doc_tokenizations"]``
  proves it).
* **Incremental re-indexing** — :meth:`SqliteIndex.add` hashes document
  content; re-adding an unchanged document is a no-op, a changed one is
  atomically re-indexed (stale postings can never linger), and
  :meth:`remove` withdraws every contribution.  :meth:`sync` folds a
  whole corpus in with per-document change detection.
* **Concurrent readers, single writer** — WAL mode lets any number of
  reader connections (one per concurrent call, or other processes such
  as a second ``rage serve`` worker) query a consistent snapshot while
  one writer commits; :meth:`snapshot` pins one read transaction around
  a whole search so every posting list and document length it touches
  comes from the same database version.  Connections are pooled: a
  thread borrows one for the length of a call and hands it back, so a
  server's short-lived request threads never strand open connections.
* **Hybrid fusion done right** — :func:`make_retrieval_scorer` combines
  BM25 with dense cosine scores via min-max normalization
  (:class:`~repro.retrieval.dense.HybridScorer`) or reciprocal-rank
  fusion (:class:`~repro.retrieval.dense.ReciprocalRankFusionScorer`),
  never raw addition across incompatible scales; all rankings break
  ties by doc_id.

The class exposes the same read protocol the scorers consume
(``postings`` / ``document_frequency`` / ``doc_length`` / ``stats`` /
``tokenizer``), so :class:`~repro.retrieval.bm25.BM25Scorer` and friends
run against it unchanged; :class:`SqliteSearcher` wraps
:class:`~repro.retrieval.searcher.Searcher` with the snapshot
transaction.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, RetrievalError, UnknownDocumentError
from ..textproc import Tokenizer
from .bm25 import BM25Scorer, Scorer
from .dense import DenseScorer, HashedEmbedder, HybridScorer, ReciprocalRankFusionScorer
from .document import Document
from .index import IndexStats, Posting
from .searcher import RetrievalResult, Searcher

#: Bumped whenever the on-disk layout changes; an index written by a
#: different version refuses to open instead of misreading rows.
SCHEMA_VERSION = 1

#: Database filename inside an index directory.
DB_NAME = "index.db"

#: Retrieval modes a persistent index can serve.
RETRIEVAL_MODES = ("bm25", "dense", "hybrid")

#: Hybrid fusion strategies (both scale-safe; never raw addition).
FUSION_STRATEGIES = ("minmax", "rrf")

#: Idle connections an index keeps open for reuse; a connection handed
#: back while this many are idle is closed instead.  A server searches
#: on one thread per request, so this only has to cover the requests in
#: flight: the two-tenant ``serve_mixed`` benchmark peaks at 2
#: (``app.server.concurrent_max``), and twice that absorbs a burst
#: without reopening.  A busier server still works, it just reopens.
MAX_IDLE_CONNECTIONS = 4

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE documents (
    doc_id       TEXT PRIMARY KEY,
    title        TEXT NOT NULL,
    text         TEXT NOT NULL,
    metadata     TEXT NOT NULL,
    content_hash TEXT NOT NULL,
    doc_length   INTEGER NOT NULL,
    seq          INTEGER NOT NULL
);
CREATE INDEX documents_by_seq ON documents (seq);
CREATE TABLE postings (
    term      TEXT NOT NULL,
    doc_id    TEXT NOT NULL,
    tf        INTEGER NOT NULL,
    positions TEXT NOT NULL,
    PRIMARY KEY (term, doc_id)
) WITHOUT ROWID;
CREATE INDEX postings_by_doc ON postings (doc_id);
CREATE TABLE vectors (
    doc_id     TEXT PRIMARY KEY,
    dimensions INTEGER NOT NULL,
    vector     BLOB NOT NULL
);
"""


def content_hash(doc: Document) -> str:
    """Stable content digest deciding whether a re-add must re-index."""
    payload = json.dumps(doc.to_dict(), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def open_index(
    index_dir: str | Path,
    tokenizer: Optional[Tokenizer] = None,
    embedder: Optional[HashedEmbedder] = None,
    store_positions: bool = True,
    dense: bool = False,
) -> "SqliteIndex":
    """Open (creating if needed) the persistent index in ``index_dir``.

    The directory is created on demand; the database lives at
    ``index_dir/index.db``.  ``dense=True`` equips a *newly created*
    index with dense vectors using ``embedder`` (default
    :class:`~repro.retrieval.dense.HashedEmbedder`); an existing index
    keeps whatever vector configuration it was built with.
    """
    root = Path(index_dir).expanduser()
    if root.exists() and not root.is_dir():
        raise ConfigError(f"index_dir {root} exists and is not a directory")
    root.mkdir(parents=True, exist_ok=True)
    if dense and embedder is None:
        embedder = HashedEmbedder(tokenizer=tokenizer)
    return SqliteIndex(
        root / DB_NAME,
        tokenizer=tokenizer,
        embedder=embedder,
        store_positions=store_positions,
    )


class SqliteIndex:
    """The SQLite-backed persistent incremental index (module docstring).

    Parameters
    ----------
    path:
        The database file.  A fresh file is initialized with the schema
        and the analyzer configuration; an existing one is validated
        (schema version, analyzer compatibility) and **not** rebuilt.
    tokenizer:
        Analysis chain for new indexes.  Opening an existing index with
        ``None`` adopts the stored configuration; passing a conflicting
        configuration raises — silently mixing analyzers would corrupt
        every ranking.
    embedder:
        Equip a *new* index with dense vectors.  ``None`` on an existing
        dense index reconstructs the embedder from the stored
        dimensions; passing one to a sparse-only index (or with the
        wrong dimensions) raises.
    store_positions:
        Keep within-document token positions (new indexes only).
    """

    def __init__(
        self,
        path: str | Path,
        tokenizer: Optional[Tokenizer] = None,
        embedder: Optional[HashedEmbedder] = None,
        store_positions: bool = True,
    ) -> None:
        self.path = Path(path).expanduser()
        self._lock = threading.RLock()
        self._local = threading.local()
        # Every open connection -> the ``PRAGMA data_version`` it last
        # saw; the idle ones wait in ``_idle`` for the next borrower.
        # Both are guarded by ``_pool_lock`` (taken after ``_lock``
        # when a writer holds that).
        self._pool_lock = threading.Lock()
        self._connections: Dict[sqlite3.Connection, Optional[int]] = {}
        self._idle: List[sqlite3.Connection] = []
        self._closed = False
        # Shared lazy caches; dropped on every write and whenever a
        # reader connection observes another process's commit.
        self._doc_lengths: Optional[Dict[str, int]] = None
        self._dense_ids: Optional[List[str]] = None
        self._dense_matrix: Optional[np.ndarray] = None
        self._stats: Optional[IndexStats] = None
        self.counters: Dict[str, int] = {
            "added": 0,
            "updated": 0,
            "unchanged": 0,
            "removed": 0,
            "doc_tokenizations": 0,
            "searches": 0,
        }
        self.tokenizer = tokenizer
        self.embedder = embedder
        self.store_positions = store_positions
        with self._connection() as conn, self._lock:
            self._initialize(conn)

    # -- connections and lifecycle ----------------------------------------

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """This thread's connection for the length of the block.

        Re-entrant: nested blocks on one thread (a search's reads inside
        its :meth:`snapshot`) share the outermost block's connection,
        which is what pins a snapshot to one read transaction.  The
        outermost block borrows an idle connection (or opens one) and
        hands it back on exit, so threads that end never strand one.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            yield conn
            return
        conn = self._checkout()
        self._local.conn = conn
        try:
            yield conn
        finally:
            self._local.conn = None
            self._checkin(conn)

    def _checkout(self) -> sqlite3.Connection:
        with self._pool_lock:
            if self._closed:
                raise RetrievalError(f"index {self.path} is closed")
            if self._idle:
                return self._idle.pop()
        try:
            conn = sqlite3.connect(
                str(self.path),
                timeout=30.0,
                isolation_level=None,  # manual transactions
                check_same_thread=False,  # borrowed by one thread at a time
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.Error as error:
            raise RetrievalError(
                f"cannot open index database {self.path}: {error}"
            ) from error
        with self._pool_lock:
            self._connections[conn] = None
        return conn

    def _checkin(self, conn: sqlite3.Connection) -> None:
        with self._pool_lock:
            if not self._closed and len(self._idle) < MAX_IDLE_CONNECTIONS:
                self._idle.append(conn)
                return
            self._connections.pop(conn, None)
        try:
            conn.close()
        except sqlite3.Error:
            pass

    def close(self) -> None:
        """Close every connection this index opened (all threads)."""
        with self._pool_lock:
            self._closed = True
            connections = list(self._connections)
            self._connections.clear()
            self._idle.clear()
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "SqliteIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- schema ------------------------------------------------------------

    def _initialize(self, conn: sqlite3.Connection) -> None:
        try:
            existing = conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
            ).fetchone()
            if existing is None:
                self._create_schema(conn)
            else:
                self._validate_schema(conn)
        except sqlite3.DatabaseError as error:
            raise RetrievalError(
                f"corrupt index database {self.path}: {error}"
            ) from error

    def _create_schema(self, conn: sqlite3.Connection) -> None:
        if self.tokenizer is None:
            self.tokenizer = Tokenizer()
        meta = {
            "schema_version": str(SCHEMA_VERSION),
            "tokenizer": json.dumps(_tokenizer_config(self.tokenizer)),
            "store_positions": "1" if self.store_positions else "0",
            "embedder_dimensions": (
                str(self.embedder.dimensions) if self.embedder is not None else ""
            ),
        }
        conn.execute("BEGIN IMMEDIATE")
        try:
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    conn.execute(statement)
            conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)", meta.items()
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def _validate_schema(self, conn: sqlite3.Connection) -> None:
        meta = dict(conn.execute("SELECT key, value FROM meta"))
        version = meta.get("schema_version")
        if version != str(SCHEMA_VERSION):
            raise RetrievalError(
                f"unsupported index schema version {version!r} at {self.path} "
                f"(expected {SCHEMA_VERSION})"
            )
        stored_tok = json.loads(meta["tokenizer"])
        if self.tokenizer is None:
            self.tokenizer = Tokenizer(**stored_tok)
        elif _tokenizer_config(self.tokenizer) != stored_tok:
            raise RetrievalError(
                f"index {self.path} was built with analyzer {stored_tok}; "
                "reopen with a matching tokenizer (or None to adopt it)"
            )
        self.store_positions = meta.get("store_positions") == "1"
        stored_dims = meta.get("embedder_dimensions") or ""
        if not stored_dims:
            if self.embedder is not None:
                raise RetrievalError(
                    f"index {self.path} was built without dense vectors; "
                    "rebuild it with an embedder to enable dense retrieval"
                )
        else:
            dims = int(stored_dims)
            if self.embedder is None:
                self.embedder = HashedEmbedder(dims, tokenizer=self.tokenizer)
            elif self.embedder.dimensions != dims:
                raise RetrievalError(
                    f"index {self.path} stores {dims}-dimensional vectors; "
                    f"embedder has {self.embedder.dimensions}"
                )

    # -- cache discipline --------------------------------------------------

    def _drop_caches(self) -> None:
        with self._lock:
            self._doc_lengths = None
            self._dense_ids = None
            self._dense_matrix = None
            self._stats = None

    def _check_external_commits(self, conn: sqlite3.Connection) -> None:
        """Drop shared caches when another connection committed.

        ``PRAGMA data_version`` changes (for this connection) exactly
        when a different connection modified the database — the hook a
        long-lived reader needs to notice an external indexer's work.
        """
        version = conn.execute("PRAGMA data_version").fetchone()[0]
        with self._pool_lock:
            changed = self._connections.get(conn) != version
            if conn in self._connections:
                self._connections[conn] = version
        if changed:
            self._drop_caches()

    def _lengths(self) -> Dict[str, int]:
        with self._lock:
            cached = self._doc_lengths
        if cached is not None:
            return cached
        loaded = dict(self._rows("SELECT doc_id, doc_length FROM documents"))
        with self._lock:
            self._doc_lengths = loaded
        return loaded

    @contextmanager
    def snapshot(self) -> Iterator[sqlite3.Connection]:
        """One read transaction: every read inside sees one DB version.

        WAL readers are never blocked by the writer; a search wrapped in
        a snapshot can therefore run concurrently with an indexer commit
        and still return internally consistent rankings.
        """
        with self._connection() as conn:
            self._check_external_commits(conn)
            try:
                conn.execute("BEGIN")
            except sqlite3.DatabaseError as error:
                raise RetrievalError(
                    f"corrupt index database {self.path}: {error}"
                ) from error
            try:
                yield conn
            finally:
                conn.execute("COMMIT")

    # -- writes ------------------------------------------------------------

    def add(self, doc: Document) -> str:
        """Index, re-index, or skip one document by content hash.

        Returns ``"added"`` (new document), ``"updated"`` (content
        changed; old postings atomically replaced) or ``"unchanged"``
        (byte-identical content: a no-op — nothing is re-tokenized and
        nothing is written).
        """
        with self._lock, self._connection() as conn:
            digest = content_hash(doc)
            try:
                row = conn.execute(
                    "SELECT content_hash FROM documents WHERE doc_id = ?",
                    (doc.doc_id,),
                ).fetchone()
                if row is not None and row[0] == digest:
                    self.counters["unchanged"] += 1
                    return "unchanged"
                conn.execute("BEGIN IMMEDIATE")
                try:
                    if row is not None:
                        self._delete_rows(conn, doc.doc_id)
                    self._insert_document(conn, doc, digest)
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.DatabaseError as error:
                raise RetrievalError(
                    f"corrupt index database {self.path}: {error}"
                ) from error
            outcome = "updated" if row is not None else "added"
            self.counters[outcome] += 1
            self._drop_caches()
            return outcome

    def add_many(self, documents: Iterable[Document]) -> Dict[str, int]:
        """Bulk :meth:`add` in one transaction; returns outcome counts.

        Unchanged documents are detected *before* the write transaction
        opens, so a fully warm corpus sync takes zero write locks.
        """
        outcome = {"added": 0, "updated": 0, "unchanged": 0}
        with self._lock, self._connection() as conn:
            try:
                pending: List[Tuple[Document, str, bool]] = []
                for doc in documents:
                    digest = content_hash(doc)
                    row = conn.execute(
                        "SELECT content_hash FROM documents WHERE doc_id = ?",
                        (doc.doc_id,),
                    ).fetchone()
                    if row is not None and row[0] == digest:
                        outcome["unchanged"] += 1
                        self.counters["unchanged"] += 1
                        continue
                    pending.append((doc, digest, row is not None))
                if not pending:
                    return outcome
                conn.execute("BEGIN IMMEDIATE")
                try:
                    for doc, digest, existed in pending:
                        if existed:
                            self._delete_rows(conn, doc.doc_id)
                        self._insert_document(conn, doc, digest)
                        key = "updated" if existed else "added"
                        outcome[key] += 1
                        self.counters[key] += 1
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.DatabaseError as error:
                raise RetrievalError(
                    f"corrupt index database {self.path}: {error}"
                ) from error
            self._drop_caches()
        return outcome

    def update(self, doc: Document) -> str:
        """Re-index an *existing* document (content-hash no-op aware)."""
        with self._lock:
            if doc.doc_id not in self:
                raise UnknownDocumentError(
                    f"no document with id {doc.doc_id!r}"
                )
            return self.add(doc)

    def remove(self, doc_id: str) -> None:
        """Withdraw a document and every posting it contributed."""
        with self._lock, self._connection() as conn:
            try:
                row = conn.execute(
                    "SELECT doc_id FROM documents WHERE doc_id = ?", (doc_id,)
                ).fetchone()
                if row is None:
                    raise UnknownDocumentError(f"no document with id {doc_id!r}")
                conn.execute("BEGIN IMMEDIATE")
                try:
                    self._delete_rows(conn, doc_id)
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.DatabaseError as error:
                raise RetrievalError(
                    f"corrupt index database {self.path}: {error}"
                ) from error
            self.counters["removed"] += 1
            self._drop_caches()

    def sync(self, documents: Iterable[Document], remove_missing: bool = False) -> Dict[str, int]:
        """Fold a corpus in incrementally; optionally drop absent docs.

        Returns ``{"added": a, "updated": u, "unchanged": n, "removed": r}``.
        A warm restart over an unchanged corpus reports everything
        ``unchanged`` and performs zero tokenizations.
        """
        documents = list(documents)
        outcome = self.add_many(documents)
        outcome["removed"] = 0
        if remove_missing:
            wanted = {doc.doc_id for doc in documents}
            with self._lock:
                for doc_id in self.doc_ids():
                    if doc_id not in wanted:
                        self.remove(doc_id)
                        outcome["removed"] += 1
        return outcome

    def _delete_rows(self, conn: sqlite3.Connection, doc_id: str) -> None:
        conn.execute("DELETE FROM postings WHERE doc_id = ?", (doc_id,))
        conn.execute("DELETE FROM vectors WHERE doc_id = ?", (doc_id,))
        conn.execute("DELETE FROM documents WHERE doc_id = ?", (doc_id,))

    def _insert_document(
        self, conn: sqlite3.Connection, doc: Document, digest: str
    ) -> None:
        terms = self.tokenizer.tokenize(doc.text + " " + doc.title)
        with self._lock:  # re-entrant: every caller already writes under it
            self.counters["doc_tokenizations"] += 1
        occurrences: Dict[str, List[int]] = {}
        for position, term in enumerate(terms):
            occurrences.setdefault(term, []).append(position)
        seq = conn.execute(
            "SELECT COALESCE(MAX(seq), 0) + 1 FROM documents"
        ).fetchone()[0]
        conn.execute(
            "INSERT INTO documents "
            "(doc_id, title, text, metadata, content_hash, doc_length, seq) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                doc.doc_id,
                doc.title,
                doc.text,
                json.dumps(dict(doc.metadata), sort_keys=True, ensure_ascii=False),
                digest,
                len(terms),
                seq,
            ),
        )
        conn.executemany(
            "INSERT INTO postings (term, doc_id, tf, positions) VALUES (?, ?, ?, ?)",
            (
                (
                    term,
                    doc.doc_id,
                    len(positions),
                    json.dumps(positions) if self.store_positions else "[]",
                )
                for term, positions in occurrences.items()
            ),
        )
        if self.embedder is not None:
            vector = self.embedder.embed(doc.text + " " + doc.title)
            conn.execute(
                "INSERT INTO vectors (doc_id, dimensions, vector) VALUES (?, ?, ?)",
                (doc.doc_id, self.embedder.dimensions, vector.tobytes()),
            )

    # -- the scorer-facing read protocol -----------------------------------

    def _rows(self, sql: str, params: Sequence[object] = ()) -> List[tuple]:
        """One read on this thread's connection; corruption is typed."""
        with self._connection() as conn:
            try:
                return conn.execute(sql, params).fetchall()
            except sqlite3.DatabaseError as error:
                raise RetrievalError(
                    f"corrupt index database {self.path}: {error}"
                ) from error

    def postings(self, term: str) -> List[Posting]:
        """Postings for an analyzed term, ordered by doc_id (empty when
        absent)."""
        rows = self._rows(
            "SELECT doc_id, tf, positions FROM postings "
            "WHERE term = ? ORDER BY doc_id",
            (term,),
        )
        return [
            Posting(
                doc_id=doc_id,
                term_frequency=tf,
                positions=tuple(json.loads(positions)),
            )
            for doc_id, tf, positions in rows
        ]

    def document_frequency(self, term: str) -> int:
        """Number of documents containing the analyzed term."""
        return self._rows("SELECT COUNT(*) FROM postings WHERE term = ?", (term,))[0][0]

    def term_frequency(self, term: str, doc_id: str) -> int:
        """Frequency of ``term`` inside ``doc_id`` (0 if absent)."""
        rows = self._rows(
            "SELECT tf FROM postings WHERE term = ? AND doc_id = ?", (term, doc_id)
        )
        return rows[0][0] if rows else 0

    def doc_length(self, doc_id: str) -> int:
        """Analyzed token count of a document."""
        try:
            return self._lengths()[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"no document with id {doc_id!r}") from None

    def document(self, doc_id: str) -> Document:
        """Return the stored document."""
        rows = self._rows(
            "SELECT doc_id, title, text, metadata FROM documents WHERE doc_id = ?",
            (doc_id,),
        )
        if not rows:
            raise UnknownDocumentError(f"no document with id {doc_id!r}")
        return _row_to_document(rows[0])

    def documents(self) -> List[Document]:
        """All indexed documents in first-indexed order."""
        return [
            _row_to_document(row)
            for row in self._rows(
                "SELECT doc_id, title, text, metadata FROM documents ORDER BY seq"
            )
        ]

    def doc_ids(self) -> List[str]:
        """All indexed document ids in first-indexed order."""
        return [row[0] for row in self._rows("SELECT doc_id FROM documents ORDER BY seq")]

    def vocabulary(self) -> List[str]:
        """All analyzed terms, sorted."""
        return [
            row[0]
            for row in self._rows("SELECT DISTINCT term FROM postings ORDER BY term")
        ]

    @property
    def stats(self) -> IndexStats:
        """Collection statistics (cached: BM25 reads these per query,
        and the vocabulary count walks every distinct term)."""
        with self._connection() as conn:
            self._check_external_commits(conn)
            with self._lock:
                cached = self._stats
            if cached is not None:
                return cached
            lengths = self._lengths()
            vocabulary = self._rows("SELECT COUNT(DISTINCT term) FROM postings")[0][0]
        computed = IndexStats(
            num_documents=len(lengths),
            total_terms=sum(lengths.values()),
            vocabulary_size=vocabulary,
        )
        with self._lock:
            self._stats = computed
        return computed

    def __len__(self) -> int:
        with self._connection() as conn:
            self._check_external_commits(conn)
            return len(self._lengths())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._lengths()

    def size_bytes(self) -> int:
        """On-disk footprint (database plus WAL side files)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total

    # -- dense access ------------------------------------------------------

    def dense_view(self) -> "_DenseView":
        """Dense-scores adapter over the stored vectors.

        Raises when the index was built without an embedder — dense and
        hybrid retrieval need vectors that only indexing can produce.
        """
        if self.embedder is None:
            raise RetrievalError(
                f"index {self.path} has no dense vectors; rebuild it with "
                "an embedder to use dense or hybrid retrieval"
            )
        return _DenseView(self)

    def _dense_rows(self) -> Tuple[List[str], np.ndarray]:
        with self._lock:
            if self._dense_ids is not None and self._dense_matrix is not None:
                return self._dense_ids, self._dense_matrix
        rows = self._rows("SELECT doc_id, vector FROM vectors ORDER BY doc_id")
        ids = [doc_id for doc_id, _ in rows]
        dimensions = self.embedder.dimensions if self.embedder else 0
        if rows:
            matrix = np.vstack(
                [np.frombuffer(blob, dtype=np.float64) for _, blob in rows]
            )
        else:
            matrix = np.zeros((0, dimensions), dtype=np.float64)
        with self._lock:
            self._dense_ids = ids
            self._dense_matrix = matrix
        return ids, matrix


class _DenseView:
    """The :class:`~repro.retrieval.dense.DenseIndex` read protocol
    (``scores``/``search``) over a :class:`SqliteIndex`'s vector table."""

    def __init__(self, index: SqliteIndex) -> None:
        self.index = index
        self.embedder = index.embedder

    def __len__(self) -> int:
        ids, _ = self.index._dense_rows()
        return len(ids)

    def scores(self, query: str) -> Dict[str, float]:
        """Cosine similarity for every stored vector."""
        ids, matrix = self.index._dense_rows()
        if not ids:
            return {}
        query_vector = self.embedder.embed(query)
        similarities = matrix @ query_vector
        return dict(zip(ids, similarities.tolist()))


def make_retrieval_scorer(
    index: SqliteIndex,
    mode: str = "bm25",
    fusion: str = "minmax",
    alpha: float = 0.5,
) -> Scorer:
    """Build the scorer a retrieval mode names, over a persistent index.

    ``bm25`` is the sparse baseline; ``dense`` ranks purely by vector
    cosine; ``hybrid`` fuses both — via min-max normalization
    (``fusion="minmax"``, weight ``alpha`` on the sparse side) or
    reciprocal-rank fusion (``fusion="rrf"``), both immune to the
    unbounded-BM25 vs bounded-cosine scale mismatch.
    """
    if mode not in RETRIEVAL_MODES:
        raise ConfigError(
            f"retrieval mode must be one of {RETRIEVAL_MODES}, got {mode!r}"
        )
    if fusion not in FUSION_STRATEGIES:
        raise ConfigError(
            f"fusion must be one of {FUSION_STRATEGIES}, got {fusion!r}"
        )
    if mode == "bm25":
        return BM25Scorer()
    dense = DenseScorer(index.dense_view())
    if mode == "dense":
        return dense
    if fusion == "rrf":
        return ReciprocalRankFusionScorer(
            [BM25Scorer(), dense], weights=[alpha, 1.0 - alpha]
        )
    return HybridScorer(BM25Scorer(), dense, alpha=alpha)


class SqliteSearcher(Searcher):
    """:class:`~repro.retrieval.searcher.Searcher` over a persistent
    index: every search runs inside one snapshot transaction, so a
    concurrent indexer commit can never split a ranking across two
    database versions."""

    def __init__(self, index: SqliteIndex, scorer: Optional[Scorer] = None) -> None:
        super().__init__(index, scorer=scorer)

    def search(self, query: str, k: int = 10) -> RetrievalResult:
        index: SqliteIndex = self.index
        with index.snapshot():
            with index._lock:
                index.counters["searches"] += 1
            return super().search(query, k)


def _tokenizer_config(tokenizer: Tokenizer) -> Dict[str, bool]:
    return {
        "lowercase": tokenizer.lowercase,
        "remove_stopwords": tokenizer.remove_stopwords,
        "stem": tokenizer.stem,
        "fold_accents": tokenizer.fold_accents,
    }


def _row_to_document(row: Sequence[object]) -> Document:
    doc_id, title, text, metadata = row
    return Document(
        doc_id=doc_id,
        text=text,
        title=title,
        metadata=json.loads(metadata),
    )
