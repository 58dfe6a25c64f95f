"""Content-addressed result store: the library's one result cache.

Every memoized result -- an :class:`ExperimentRunner` sweep point
re-served to ``python -m repro figures --cache DIR``, or a design point
shared by the DSE service (``python -m repro serve``, docs/SERVICE.md)
-- lives in a :class:`ResultStore`.  Many dispatchers and one HTTP
front end may read and write the same directory, possibly over a
network filesystem, so every record must tell a half-written file from
a result, and the directory keeps an inventory of what is in it.

See :mod:`repro.store.cas` for the on-disk format (sha256-verified records, atomic publishes, an
append-only manifest index, garbage collection and compaction).
"""

from repro.store.cas import (
    MANIFEST_BASENAME,
    STORE_SCHEMA,
    ResultStore,
    StoreError,
    StoreRecord,
)

__all__ = [
    "MANIFEST_BASENAME",
    "STORE_SCHEMA",
    "ResultStore",
    "StoreError",
    "StoreRecord",
]
