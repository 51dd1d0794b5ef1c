"""Global metadata manager: routes catalog names to connectors.

The coordinator holds one of these; resolving ``catalog.schema.table``
dispatches to the Metadata API of the registered connector (paper
Sec. III: the extensible, federated design lets a single cluster process
data from many data sources, even within a single query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog.schema import QualifiedTableName, TableMetadata, TableStatistics
from repro.connectors.api import Connector, ConnectorTableLayout
from repro.connectors.predicate import TupleDomain
from repro.errors import CatalogNotFoundError, TableNotFoundError


@dataclass(frozen=True)
class TableHandle:
    """Engine-level handle: catalog name plus connector-specific handle."""

    catalog: str
    connector_handle: object
    name: QualifiedTableName


class Metadata:
    """Registry of connectors keyed by catalog name."""

    def __init__(self):
        self._connectors: dict[str, Connector] = {}
        # Catalog -> registrations so far, part of each table version: a
        # replacing connector may repeat the old one's counters.
        self._epochs: dict[str, int] = {}
        # Read-path calls that actually reached a connector's Metadata
        # API. The caching subclass (src/repro/cache/metadata_cache.py)
        # only falls through here on a miss, so for a cached coordinator
        # this counts misses and for a plain one it counts every lookup.
        self.connector_calls = 0

    def register_catalog(self, catalog: str, connector: Connector) -> None:
        self._connectors[catalog] = connector
        self._epochs[catalog] = self._epochs.get(catalog, 0) + 1

    def catalogs(self) -> list[str]:
        return sorted(self._connectors)

    def connectors(self) -> list[Connector]:
        """Registered connectors in catalog-name order (stats export)."""
        return [self._connectors[catalog] for catalog in self.catalogs()]

    def connector(self, catalog: str) -> Connector:
        try:
            return self._connectors[catalog]
        except KeyError:
            raise CatalogNotFoundError(f"Catalog not found: {catalog}")

    def table_versions(self, tables) -> tuple:
        """``((catalog, schema, table), version)`` for each key of
        ``tables``, read from the catalog's registration epoch and the
        owning connector's monotonic counters (what the plan cache
        validates an entry against)."""
        return tuple((key, self._table_version(*key)) for key in tables)

    def _table_version(self, catalog: str, schema: str, table: str) -> tuple:
        try:
            versions = self.connector(catalog).metadata.versions
        except CatalogNotFoundError:
            return ()  # catalog vanished: can never match a snapshot
        return self._epochs[catalog], versions.table_version(schema, table)

    def resolve_table(self, catalog: str, schema: str, table: str) -> TableHandle | None:
        connector = self.connector(catalog)
        self.connector_calls += 1
        handle = connector.metadata.get_table_handle(schema, table)
        if handle is None:
            return None
        return TableHandle(catalog, handle, QualifiedTableName(catalog, schema, table))

    def require_table(self, catalog: str, schema: str, table: str) -> TableHandle:
        handle = self.resolve_table(catalog, schema, table)
        if handle is None:
            raise TableNotFoundError(f"Table not found: {catalog}.{schema}.{table}")
        return handle

    def table_metadata(self, handle: TableHandle) -> TableMetadata:
        self.connector_calls += 1
        return self.connector(handle.catalog).metadata.get_table_metadata(
            handle.connector_handle
        )

    def table_statistics(self, handle: TableHandle) -> TableStatistics:
        self.connector_calls += 1
        return self.connector(handle.catalog).metadata.get_statistics(
            handle.connector_handle
        )

    def table_layouts(
        self, handle: TableHandle, constraint: TupleDomain, desired_columns: Sequence[str]
    ) -> list[ConnectorTableLayout]:
        self.connector_calls += 1
        return self.connector(handle.catalog).metadata.get_layouts(
            handle.connector_handle, constraint, desired_columns
        )

    def create_table(self, catalog: str, metadata: TableMetadata) -> TableHandle:
        handle = self.connector(catalog).metadata.create_table(metadata)
        return TableHandle(catalog, handle, metadata.name)

    def begin_insert(self, handle: TableHandle) -> object:
        return self.connector(handle.catalog).metadata.begin_insert(
            handle.connector_handle
        )

    def finish_insert(
        self, handle: TableHandle, insert_handle: object, fragments: list
    ) -> None:
        self.connector(handle.catalog).metadata.finish_insert(insert_handle, fragments)

    def drop_table(self, handle: TableHandle) -> None:
        self.connector(handle.catalog).metadata.drop_table(handle.connector_handle)
