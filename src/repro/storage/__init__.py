"""From-scratch document storage engine (the Lucene/Elasticsearch substrate).

Implements the pieces of Lucene/Elasticsearch that the paper's query-side
evaluation depends on:

* documents with flexible schema (the "attributes" column of §1);
* an analyzer and inverted index for full-text columns;
* a sorted numeric index (the role Bkd-trees play in Elasticsearch);
* composite indexes over concatenated columns (§5.1);
* columnar doc values enabling sequential scan (§5.1);
* immutable segments, an in-memory buffer with refresh (near-real-time
  search), a translog WAL with recovery, and a segment merge policy (§3.3);
* :class:`~repro.storage.engine.ShardEngine` tying it all together per shard.
"""

from repro.storage.analysis import StandardAnalyzer, tokenize
from repro.storage.buffer import InMemoryBuffer
from repro.storage.composite import CompositeIndex
from repro.storage.document import Document, FieldType, Schema
from repro.storage.docvalues import DocValues
from repro.storage.engine import EngineConfig, ShardEngine
from repro.storage.inverted_index import InvertedIndex
from repro.storage.merge import MergePolicy, TieredMergePolicy
from repro.storage.postings import PostingList
from repro.storage.segment import Segment
from repro.storage.sorted_index import SortedIndex
from repro.storage.translog import Translog, TranslogEntry

__all__ = [
    "Document",
    "Schema",
    "FieldType",
    "StandardAnalyzer",
    "tokenize",
    "PostingList",
    "InvertedIndex",
    "SortedIndex",
    "CompositeIndex",
    "DocValues",
    "Segment",
    "InMemoryBuffer",
    "Translog",
    "TranslogEntry",
    "MergePolicy",
    "TieredMergePolicy",
    "ShardEngine",
    "EngineConfig",
]
