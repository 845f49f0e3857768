"""Per-file AST checkers: REP-DET, REP-EXC, REP-GRAD, REP-NET.

Each checker encodes one invariant from ``docs/architecture.md`` as a
mechanical rule over the AST.  The rules are deliberately *syntactic* —
they catch the bug class cheaply and rely on the pragma mechanism
(``# lint: disable=CODE(reason)``) for the rare justified exception, so a
reviewer sees the justification next to the code it excuses.
"""

from __future__ import annotations

import ast

from repro.lint.core import (
    Checker,
    Finding,
    LintContext,
    PyFile,
    dotted_chain,
    register,
)

# ----------------------------------------------------------------------
# REP-DET — determinism
# ----------------------------------------------------------------------

#: ``np.random.<fn>`` calls that create/handle explicit generator objects —
#: everything else on ``np.random`` is the legacy global stream.
NP_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Modules whose outputs feed content-addressed cache keys or
#: ``RunResult.signature()`` — a wall-clock read here is a determinism bug
#: unless explicitly justified (timing *meta* excluded from signatures).
WALLCLOCK_SCOPES = ("src/repro/sim/", "src/repro/data/", "src/repro/experiments/")

_TIME_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


@register
class DeterminismChecker(Checker):
    code = "REP-DET"
    name = "determinism"
    description = (
        "no module-level RNG (np.random.* / stdlib random) anywhere in "
        "src; no wall-clock reads in signature-relevant modules (sim, data, "
        "experiments)"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for pyfile in ctx.py_files():
            if not pyfile.relpath.startswith("src/"):
                continue
            tree = pyfile.tree
            if tree is None:
                continue
            clock_scoped = pyfile.relpath.startswith(WALLCLOCK_SCOPES)
            datetime_names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    if node.module == "random":
                        findings.append(
                            Finding(
                                pyfile.relpath,
                                node.lineno,
                                self.code,
                                "stdlib random imported — take an explicit "
                                "np.random.Generator instead",
                            )
                        )
                    if node.module == "datetime":
                        datetime_names.update(
                            alias.asname or alias.name for alias in node.names
                        )
                    if (
                        node.module == "time"
                        and clock_scoped
                        and any(a.name in _TIME_FNS for a in node.names)
                    ):
                        findings.append(
                            Finding(
                                pyfile.relpath,
                                node.lineno,
                                self.code,
                                "wall-clock function imported in a "
                                "signature-relevant module",
                            )
                        )
                if not isinstance(node, ast.Call):
                    continue
                chain = dotted_chain(node.func)
                if chain is None:
                    continue
                if (
                    len(chain) == 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                    and chain[2] not in NP_RANDOM_ALLOWED
                ):
                    findings.append(
                        Finding(
                            pyfile.relpath,
                            node.lineno,
                            self.code,
                            f"module-level numpy RNG np.random.{chain[2]}() — "
                            "pass an explicit Generator "
                            "(repro.utils.seeding.new_rng)",
                        )
                    )
                if (
                    len(chain) == 2
                    and chain[0] == "random"
                    and chain[1] != "Random"
                ):
                    findings.append(
                        Finding(
                            pyfile.relpath,
                            node.lineno,
                            self.code,
                            f"global stdlib RNG random.{chain[1]}() — pass "
                            "an explicit Generator (repro.utils.seeding.new_rng)",
                        )
                    )
                if clock_scoped and (
                    (len(chain) == 2 and chain[0] == "time" and chain[1] in _TIME_FNS)
                    or (
                        len(chain) >= 2
                        and chain[-1] in _DATETIME_FNS
                        and (chain[0] == "datetime" or chain[0] in datetime_names)
                    )
                ):
                    findings.append(
                        Finding(
                            pyfile.relpath,
                            node.lineno,
                            self.code,
                            f"wall-clock read {'.'.join(chain)}() in a "
                            "signature-relevant module — results/cache keys "
                            "must be pure functions of (seed, config)",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# REP-EXC — exception hygiene (the PR 7 silent-swallow bug class)
# ----------------------------------------------------------------------

_BROAD_NAMES = frozenset({"Exception", "BaseException"})
_LOGGING_ATTRS = frozenset(
    {"log", "info", "warning", "error", "exception", "critical", "debug"}
)
_COUNTER_ATTRS = frozenset({"inc"})


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    nodes = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for node in nodes:
        chain = dotted_chain(node)
        if chain and chain[-1] in _BROAD_NAMES:
            return True
    return False


def _handles_error(handler: ast.ExceptHandler) -> bool:
    """True when the handler body re-raises, logs, counts, or records the
    bound exception — i.e. the failure is *not* silently swallowed."""
    for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            return True  # counter bump, e.g. ``self.errors += 1``
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in (_LOGGING_ATTRS | _COUNTER_ATTRS)
        ):
            return True
        if (
            handler.name is not None
            and isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return True  # exception recorded/propagated by hand
    return False


@register
class ExceptionHygieneChecker(Checker):
    code = "REP-EXC"
    name = "exception-hygiene"
    description = (
        "a bare/Exception/BaseException handler must re-raise, log via "
        "repro.obs.log, bump a counter, or record the bound exception — "
        "never swallow silently"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for pyfile in ctx.py_files():
            tree = pyfile.tree
            if tree is None:
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if _is_broad(node) and not _handles_error(node):
                    caught = (
                        "bare except"
                        if node.type is None
                        else f"except {ast.unparse(node.type)}"
                    )
                    findings.append(
                        Finding(
                            pyfile.relpath,
                            node.lineno,
                            self.code,
                            f"{caught} swallows the error silently — "
                            "re-raise, log a structured event "
                            "(repro.obs.log), bump a counter, or record "
                            "the exception",
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# REP-GRAD — no-grad serving
# ----------------------------------------------------------------------

SERVE_SCOPE = "src/repro/serve/"
_TRAINING_MODULES = frozenset({"repro.nn.optim", "repro.core.trainer"})
_OPTIMIZER_NAMES = frozenset({"Optimizer", "SGD", "Adam"})
_GRAD_ATTRS = frozenset({"backward", "zero_grad"})


@register
class NoGradServingChecker(Checker):
    code = "REP-GRAD"
    name = "no-grad-serving"
    description = (
        "repro.serve never trains: no .backward()/.zero_grad() calls, no "
        "requires_grad=True, no imports of repro.nn.optim or "
        "repro.core.trainer"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for pyfile in ctx.py_files():
            if not pyfile.relpath.startswith(SERVE_SCOPE):
                continue
            tree = pyfile.tree
            if tree is None:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name in _TRAINING_MODULES:
                            findings.append(
                                self._finding(
                                    pyfile, node, f"imports {alias.name}"
                                )
                            )
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    if node.module in _TRAINING_MODULES:
                        findings.append(
                            self._finding(pyfile, node, f"imports {node.module}")
                        )
                    elif node.module in ("repro.nn", "repro.core"):
                        trainers = sorted(
                            a.name
                            for a in node.names
                            if a.name in _OPTIMIZER_NAMES | {"Trainer"}
                        )
                        if trainers:
                            findings.append(
                                self._finding(
                                    pyfile,
                                    node,
                                    f"imports optimizer/trainer names "
                                    f"{', '.join(trainers)}",
                                )
                            )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _GRAD_ATTRS
                ):
                    findings.append(
                        self._finding(pyfile, node, f"calls .{node.func.attr}()")
                    )
                elif isinstance(node, ast.keyword) and node.arg == "requires_grad":
                    if (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is True
                    ):
                        findings.append(
                            self._finding(
                                pyfile, node.value, "passes requires_grad=True"
                            )
                        )
                elif (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is True
                    and any(
                        isinstance(t, ast.Attribute) and t.attr == "requires_grad"
                        for t in node.targets
                    )
                ):
                    findings.append(
                        self._finding(pyfile, node, "sets .requires_grad = True")
                    )
        return findings

    def _finding(self, pyfile: PyFile, node: ast.AST, what: str) -> Finding:
        return Finding(
            pyfile.relpath,
            getattr(node, "lineno", 1),
            self.code,
            f"serving module {what} — inference must stay no-grad "
            "(docs/architecture.md §3)",
        )


# ----------------------------------------------------------------------
# REP-NET — hardcoded network literals
# ----------------------------------------------------------------------

NET_SCOPES = ("src/", "tests/", "benchmarks/", "examples/", "tools/")
_HOST_LITERALS = frozenset({"localhost", "0.0.0.0", "127.0.0.1"})


def _is_host_literal(value: object) -> bool:
    if not isinstance(value, str):
        return False
    if value in _HOST_LITERALS:
        return True
    parts = value.split(".")
    return len(parts) == 4 and all(p.isdigit() and int(p) <= 255 for p in parts)


def _port_constant_name(name: str) -> bool:
    return name == "PORT" or name.endswith("_PORT")


@register
class NetworkLiteralsChecker(Checker):
    code = "REP-NET"
    name = "network-literals"
    description = (
        "no hardcoded nonzero TCP ports: bind port 0 and discover the "
        "ephemeral port, or name the value in a module-level *_PORT "
        "constant under src/"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for pyfile in ctx.py_files():
            if not pyfile.relpath.startswith(NET_SCOPES):
                continue
            tree = pyfile.tree
            if tree is None:
                continue
            allowed_lines = set()
            if pyfile.relpath.startswith("src/"):
                for node in ast.iter_child_nodes(tree):
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and _port_constant_name(node.targets[0].id)
                    ):
                        allowed_lines.add(node.lineno)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Tuple)
                    and len(node.elts) == 2
                    and isinstance(node.elts[0], ast.Constant)
                    and _is_host_literal(node.elts[0].value)
                    and self._bad_port(node.elts[1])
                ):
                    findings.append(
                        self._finding(pyfile, node, node.elts[1].value)
                    )
                elif isinstance(node, ast.keyword) and node.arg == "port":
                    if self._bad_port(node.value):
                        findings.append(
                            self._finding(pyfile, node.value, node.value.value)
                        )
                elif isinstance(node, ast.Call):
                    # argparse: add_argument("--port", ..., default=<literal>)
                    if any(
                        isinstance(a, ast.Constant) and a.value == "--port"
                        for a in node.args
                    ):
                        for kw in node.keywords:
                            if kw.arg == "default" and self._bad_port(kw.value):
                                findings.append(
                                    self._finding(pyfile, kw.value, kw.value.value)
                                )
                elif (
                    isinstance(node, ast.Assign)
                    and node.lineno not in allowed_lines
                    and self._bad_port(node.value)
                    and any(
                        isinstance(t, ast.Name)
                        and (
                            t.id.lower() == "port"
                            or t.id.lower().endswith("_port")
                        )
                        for t in node.targets
                    )
                ):
                    findings.append(
                        self._finding(pyfile, node, node.value.value)
                    )
        return findings

    @staticmethod
    def _bad_port(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and 0 < node.value <= 65535
        )

    def _finding(self, pyfile: PyFile, node: ast.AST, port: object) -> Finding:
        return Finding(
            pyfile.relpath,
            getattr(node, "lineno", 1),
            self.code,
            f"hardcoded TCP port {port} — bind port 0 and discover the "
            "ephemeral port (tests/benchmarks), or hoist it into a "
            "module-level *_PORT constant (src)",
        )
