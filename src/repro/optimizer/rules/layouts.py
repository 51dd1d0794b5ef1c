"""Data-layout selection and predicate pushdown into connectors
(paper Sec. IV-C1/C2).

Converts filter conjuncts above table scans into TupleDomains, asks the
connector for matching layouts through the Data Layout API, picks the
most efficient one (e.g. a layout indexed on the predicate columns),
and keeps only the unenforced remainder as an engine-side filter.
"""

from __future__ import annotations

from repro.connectors.predicate import TupleDomain
from repro.optimizer.domains import domain_to_predicate, extract_domains
from repro.planner import expressions as ir
from repro.planner import nodes as plan


def pick_table_layouts(root: plan.PlanNode, context) -> plan.PlanNode:
    """Top-down so a Filter directly above a scan is seen *with* the scan
    (the filter's domains must reach the Data Layout API)."""

    def visit(node: plan.PlanNode) -> plan.PlanNode:
        if isinstance(node, plan.FilterNode) and isinstance(
            node.source, plan.TableScanNode
        ) and node.source.layout is None:
            return _apply(node.source, node.predicate, context) or node
        if isinstance(node, plan.TableScanNode) and node.layout is None:
            return _apply(node, None, context) or node
        return plan.with_sources(node, [visit(s) for s in node.sources])

    return visit(root)


def _apply(scan: plan.TableScanNode, predicate, context):
    symbol_to_column = {s.name: c for s, c in scan.assignments.items()}
    column_to_symbol = {c: s for s, c in scan.assignments.items()}
    domain, residual_conjuncts = extract_domains(predicate)
    # Rename domains from symbol names to connector column names; domains
    # over computed symbols cannot be pushed.
    column_domains: dict = {}
    unpushable: list[ir.RowExpression] = []
    for name, column_domain in domain.domains.items():
        column = symbol_to_column.get(name)
        if column is None:
            symbol = _symbol_by_name(scan, name)
            rebuilt = domain_to_predicate(name, column_domain, symbol.type if symbol else None)
            if rebuilt is not None:
                unpushable.append(rebuilt)
            continue
        column_domains[column] = column_domain
    constraint = TupleDomain(column_domains) if not domain.is_none() else TupleDomain.none()
    constraint = constraint.intersect(scan.constraint)
    if domain.is_none() or constraint.is_none():
        # The predicate is unsatisfiable (e.g. `k IN (1, 3) AND k IN (2, 4)`):
        # the scan produces no rows. TupleDomain.none() carries no per-column
        # domains, so it must never reach the residual-rebuild path below —
        # the filter would silently vanish.
        return plan.ValuesNode(scan.outputs, [])

    layouts = context.metadata.table_layouts(
        scan.table, constraint, list(symbol_to_column.values())
    )
    if not layouts:
        return None
    # Prefer the layout that scans the smallest fraction of the table.
    layout = min(layouts, key=lambda candidate: candidate.scan_fraction)
    new_scan = plan.TableScanNode(
        scan.table, scan.assignments, scan.outputs, constraint, layout
    )
    # Residual = non-extractable conjuncts + domains the layout could not
    # enforce, mapped back to symbols.
    residual = list(residual_conjuncts) + unpushable
    for column, column_domain in layout.unenforced_predicate.domains.items():
        symbol = column_to_symbol.get(column)
        if symbol is None:
            continue
        rebuilt = domain_to_predicate(symbol.name, column_domain, symbol.type)
        if rebuilt is not None:
            residual.append(rebuilt)
    predicate_out = ir.combine_conjuncts(residual)
    if predicate_out is None:
        return new_scan
    return plan.FilterNode(new_scan, predicate_out)


def _symbol_by_name(scan: plan.TableScanNode, name: str):
    for symbol in scan.outputs:
        if symbol.name == name:
            return symbol
    return None
