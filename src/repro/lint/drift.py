"""REP-DRIFT — protocol/observability constants must match their docs.

Three synchronized pairs, each checked in both directions:

* ``E_*`` error-code constants in ``repro/serve/protocol.py`` ↔ the
  *Error codes* table in ``docs/serving.md``;
* ``OPERATIONS`` + ``WORKER_OPERATIONS`` op names ↔ inline-code mentions
  in ``docs/serving.md`` (code → docs direction only: ops are prose-
  documented in several places, not one table);
* metric-instrument names registered anywhere under ``src/repro`` ↔ the
  *instrument* table in ``docs/observability.md``.

The doc side is parsed mechanically: a markdown table is any run of
``|``-prefixed lines; inline-code tokens are every `` `token` `` span.
Instrument rows may carry label templates (``name{model=M}``) — labels are
stripped before comparison.
"""

from __future__ import annotations

import ast
import re

from repro.lint.core import (
    Checker,
    Finding,
    LintContext,
    module_str_constants,
    register,
)

PROTOCOL_PATH = "src/repro/serve/protocol.py"
SERVING_DOC = "docs/serving.md"
OBSERVABILITY_DOC = "docs/observability.md"

_INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


def inline_code_tokens(text: str) -> set[str]:
    return set(_INLINE_CODE_RE.findall(text))


def markdown_tables(text: str) -> list[tuple[list[str], list[tuple[int, list[str]]]]]:
    """All tables of a document as ``(header_cells, [(line, row_cells)])``.

    A table is a contiguous run of lines starting with ``|``; the first row
    is the header, ``---`` separator rows are dropped, cells are stripped.
    """
    tables = []
    current: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if all(re.fullmatch(r":?-{2,}:?", c or "--") for c in cells):
                continue
            current.append((lineno, cells))
        elif current:
            tables.append((current[0][1], current[1:]))
            current = []
    if current:
        tables.append((current[0][1], current[1:]))
    return tables


def _strip_code(cell: str) -> str | None:
    match = _INLINE_CODE_RE.search(cell)
    return match.group(1) if match else None


def find_table(
    text: str, header_word: str
) -> list[tuple[int, list[str]]] | None:
    """First table whose header row mentions ``header_word``."""
    for header, rows in markdown_tables(text):
        if any(header_word in cell.lower() for cell in header):
            return rows
    return None


def protocol_constants(
    ctx: LintContext,
) -> tuple[dict[str, tuple[str, int]], dict[str, int]]:
    """``E_*`` codes (name → (value, line)) and op names (op → line)."""
    codes: dict[str, tuple[str, int]] = {}
    ops: dict[str, int] = {}
    tree = ctx.py_file(PROTOCOL_PATH).tree
    if tree is None:
        return codes, ops
    for node in ast.iter_child_nodes(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if (
            target.id.startswith("E_")
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            codes[target.id] = (node.value.value, node.lineno)
        elif target.id in ("OPERATIONS", "WORKER_OPERATIONS") and isinstance(
            node.value, (ast.Tuple, ast.List)
        ):
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    ops[element.value] = element.lineno
    return codes, ops


def registered_metrics(ctx: LintContext) -> dict[str, tuple[str, int]]:
    """Instrument names created via ``.counter/.gauge/.histogram(name)``
    anywhere under ``src/repro`` (name → (file, line)).  A ``Name`` first
    argument is resolved through same-file module-level string constants."""
    metrics: dict[str, tuple[str, int]] = {}
    for pyfile in ctx.py_files():
        if not pyfile.relpath.startswith("src/repro/"):
            continue
        tree = pyfile.tree
        if tree is None:
            continue
        constants = module_str_constants(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and node.args
            ):
                continue
            if isinstance(node.func.value, ast.Name) and node.func.value.id in (
                "np",
                "numpy",
            ):
                continue  # np.histogram(...) is not an instrument
            arg = node.args[0]
            name = None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.Name):
                name = constants.get(arg.id)
            if name is not None and name not in metrics:
                metrics[name] = (pyfile.relpath, node.lineno)
    return metrics


@register
class DriftChecker(Checker):
    code = "REP-DRIFT"
    name = "protocol-docs-drift"
    description = (
        "wire error codes, protocol ops, and metric instruments must appear "
        "in docs/serving.md / docs/observability.md — and documented codes/"
        "instruments must exist in code"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        if ctx.has_file(PROTOCOL_PATH):
            findings.extend(self._check_protocol(ctx))
        findings.extend(self._check_metrics(ctx))
        return findings

    def _check_protocol(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        codes, ops = protocol_constants(ctx)
        if not ctx.has_file(SERVING_DOC):
            if codes or ops:
                findings.append(
                    Finding(
                        PROTOCOL_PATH,
                        1,
                        self.code,
                        f"wire protocol has no spec document ({SERVING_DOC} "
                        "is missing)",
                    )
                )
            return findings
        doc = ctx.md_text(SERVING_DOC)
        tokens = inline_code_tokens(doc)
        for name, (value, line) in sorted(codes.items()):
            if value not in tokens:
                findings.append(
                    Finding(
                        PROTOCOL_PATH,
                        line,
                        self.code,
                        f"error code {name} = {value!r} is not documented "
                        f"in {SERVING_DOC}",
                    )
                )
        for op, line in sorted(ops.items()):
            if op not in tokens:
                findings.append(
                    Finding(
                        PROTOCOL_PATH,
                        line,
                        self.code,
                        f"protocol op {op!r} is not documented in {SERVING_DOC}",
                    )
                )
        # Reverse direction: every row of the error-code table must name a
        # code that actually exists on the wire.
        values = {value for value, _ in codes.values()}
        rows = find_table(doc, "code") or []
        for line, cells in rows:
            documented = _strip_code(cells[0]) if cells else None
            if documented is not None and documented not in values:
                findings.append(
                    Finding(
                        SERVING_DOC,
                        line,
                        self.code,
                        f"documented error code {documented!r} does not "
                        f"exist in {PROTOCOL_PATH}",
                    )
                )
        return findings

    def _check_metrics(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        metrics = registered_metrics(ctx)
        if not metrics:
            return findings
        if not ctx.has_file(OBSERVABILITY_DOC):
            file, line = sorted(metrics.values())[0]
            findings.append(
                Finding(
                    file,
                    line,
                    self.code,
                    f"metric instruments exist but {OBSERVABILITY_DOC} "
                    "is missing",
                )
            )
            return findings
        doc = ctx.md_text(OBSERVABILITY_DOC)
        tokens = inline_code_tokens(doc)
        bare = {token.split("{", 1)[0] for token in tokens}
        for name, (file, line) in sorted(metrics.items()):
            if name not in bare:
                findings.append(
                    Finding(
                        file,
                        line,
                        self.code,
                        f"metric instrument {name!r} is not documented in "
                        f"{OBSERVABILITY_DOC}",
                    )
                )
        rows = find_table(doc, "instrument") or []
        for line, cells in rows:
            token = _strip_code(cells[0]) if cells else None
            if token is None:
                continue
            documented = token.split("{", 1)[0]
            if documented not in metrics:
                findings.append(
                    Finding(
                        OBSERVABILITY_DOC,
                        line,
                        self.code,
                        f"documented instrument {documented!r} is not "
                        "registered anywhere under src/repro",
                    )
                )
        return findings
