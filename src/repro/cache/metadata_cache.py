"""Coordinator metadata cache (tier 1 of the caching tier).

``CachingMetadata`` is a drop-in replacement for the catalog
:class:`~repro.catalog.metadata.Metadata` router. Every cached entry is
keyed on the referenced table's :class:`MetadataVersions` counter, so a
DDL or committed INSERT — which bumps the counter inside the connector —
invalidates by *key rotation*: the next lookup simply misses and falls
through to the connector. Stale entries age out of the LRU.

Write-path methods (create/drop/insert) are never cached; they delegate
to the base router, whose connectors bump their own version counters.
"""

from __future__ import annotations

from typing import Sequence

from repro.catalog.metadata import Metadata, TableHandle
from repro.catalog.schema import TableMetadata, TableStatistics
from repro.connectors.api import ConnectorTableLayout
from repro.connectors.predicate import TupleDomain

from repro.cache.lru import LruCache


class CachingMetadata(Metadata):
    """Versioned LRU over the four read-path Metadata API calls."""

    def __init__(self, max_entries: int = 4096):
        super().__init__()
        self.cache = LruCache(max_entries=max_entries)

    # -- version plumbing --------------------------------------------------

    def _handle_version(self, handle: TableHandle) -> tuple:
        name = handle.name
        return self._table_version(name.catalog, name.schema, name.table)

    # -- cached read path --------------------------------------------------

    def resolve_table(self, catalog: str, schema: str, table: str) -> TableHandle | None:
        # Force the CatalogNotFoundError path before consulting the cache.
        self.connector(catalog)
        key = ("resolve", catalog, schema, table, self._table_version(catalog, schema, table))
        hit = self.cache.get(key)
        if hit is not None:
            return hit[0]
        # Misses (including "table does not exist") are cached too: the
        # version bump on CREATE TABLE rotates the key, so negative
        # entries can never mask a newly-created table.
        resolved = Metadata.resolve_table(self, catalog, schema, table)
        self.cache.put(key, (resolved,))
        return resolved

    def table_metadata(self, handle: TableHandle) -> TableMetadata:
        key = ("metadata", handle.name, self._handle_version(handle))
        hit = self.cache.get(key)
        if hit is not None:
            return hit[0]
        result = Metadata.table_metadata(self, handle)
        self.cache.put(key, (result,))
        return result

    def table_statistics(self, handle: TableHandle) -> TableStatistics:
        key = ("statistics", handle.name, self._handle_version(handle))
        hit = self.cache.get(key)
        if hit is not None:
            return hit[0]
        result = Metadata.table_statistics(self, handle)
        self.cache.put(key, (result,))
        return result

    def table_layouts(
        self, handle: TableHandle, constraint: TupleDomain, desired_columns: Sequence[str]
    ) -> list[ConnectorTableLayout]:
        key = (
            "layouts",
            handle.name,
            self._handle_version(handle),
            repr(constraint),
            tuple(desired_columns),
        )
        hit = self.cache.get(key)
        if hit is not None:
            return list(hit[0])
        result = Metadata.table_layouts(self, handle, constraint, desired_columns)
        self.cache.put(key, (list(result),))
        return result
