"""Every checker catches its seeded violations — and stays silent on the
paired clean fixture.

The fixtures under ``tests/lint/fixtures/<case>/{violating,clean}`` are
mini-repos (laid out with real ``src/repro/...`` paths, because several
checkers scope by path); the repo-wide lint run excludes them, so they can
violate every invariant on purpose.  Deleting any satellite fix/pragma in
the real tree is equivalent to one of these violating fixtures — this file
is the proof that the lint job would fail.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint(case: str, kind: str, select: set[str] | None = None):
    return run_lint(str(FIXTURES / case / kind), select=select)


#: case → (checker code, expected (file, line) anchors in the violating
#: fixture).  Lines pin the findings to the seeded violations exactly.
EXPECTED = {
    "det": (
        "REP-DET",
        [
            ("src/repro/experiments/bad_import.py", 1),  # from random import
            ("src/repro/experiments/bad_import.py", 2),  # from time import
            ("src/repro/sim/bad.py", 9),  # np.random.rand
            ("src/repro/sim/bad.py", 10),  # random.shuffle
            ("src/repro/sim/bad.py", 11),  # time.time in sim
            ("src/repro/utils/seeding.py", 8),  # random.seed: no module is exempt
            ("src/repro/utils/seeding.py", 9),  # np.random.seed
        ],
    ),
    "exc": (
        "REP-EXC",
        [
            ("src/repro/serve/bad.py", 4),  # except Exception: pass
            ("src/repro/serve/bad.py", 11),  # bare except: return None
            ("src/repro/serve/bad.py", 19),  # except BaseException: (no use)
        ],
    ),
    "grad": (
        "REP-GRAD",
        [
            ("src/repro/serve/bad.py", 1),  # import repro.nn.optim
            ("src/repro/serve/bad.py", 2),  # from repro.core.trainer import
            ("src/repro/serve/bad.py", 3),  # from repro.nn import Adam
            ("src/repro/serve/bad.py", 7),  # .backward()
            ("src/repro/serve/bad.py", 9),  # .zero_grad()
            ("src/repro/serve/bad.py", 10),  # .requires_grad = True
            ("src/repro/serve/bad.py", 11),  # requires_grad=True kwarg
        ],
    ),
    "cyc": (
        "REP-CYC",
        [
            ("src/repro/alpha.py", 1),  # alpha -> beta -> alpha
        ],
    ),
    "net": (
        "REP-NET",
        [
            ("src/repro/serve/cli.py", 2),  # add_argument --port default=9999
            ("src/repro/serve/cli.py", 6),  # port = 8501 (not a constant)
            ("tests/test_conn.py", 5),  # ("127.0.0.1", 9000)
            ("tests/test_conn.py", 9),  # port=8080 kwarg
            ("tests/test_conn.py", 12),  # PROXY_PORT = 4000 in tests
        ],
    ),
    "drift": (
        "REP-DRIFT",
        [
            ("docs/observability.md", 5),  # documented instrument missing
            ("docs/serving.md", 10),  # documented error code missing
            ("src/repro/obs/metrics_use.py", 2),  # undocumented instrument
            ("src/repro/serve/protocol.py", 2),  # undocumented E_MYSTERY
            ("src/repro/serve/protocol.py", 4),  # undocumented mystery_op
        ],
    ),
    "doc": (
        "REP-DOC",
        [
            ("docs/a.md", 3),  # broken anchor
            ("docs/a.md", 3),  # broken link
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_violating_fixture_is_caught(case):
    code, anchors = EXPECTED[case]
    findings = lint(case, "violating")
    assert findings, f"{case}/violating produced no findings"
    assert all(f.code == code for f in findings)
    assert [(f.file, f.line) for f in findings] == sorted(anchors)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_clean_fixture_passes(case):
    assert lint(case, "clean") == []


def test_select_restricts_to_one_checker():
    # The grad fixture also has no REP-DET violations; selecting REP-DET
    # must return nothing even though REP-GRAD would fire.
    assert lint("grad", "violating", select={"REP-DET"}) == []
    findings = lint("grad", "violating", select={"REP-GRAD"})
    assert findings and all(f.code == "REP-GRAD" for f in findings)


def test_cycle_message_names_the_cycle():
    (finding,) = lint("cyc", "violating")
    assert finding.message == (
        "import cycle: repro.alpha -> repro.beta -> repro.alpha"
    )


def test_package_reexport_is_not_a_cycle():
    # ``from repro.pkg import two`` inside repro/pkg/one.py resolves to the
    # sibling submodule, not the package __init__ — the re-export pattern
    # used all over src/repro must never read as a cycle.
    assert lint("cyc", "clean", select={"REP-CYC"}) == []


def test_seeding_module_is_not_exempt_from_det():
    # det/violating seeds both global RNGs inside src/repro/utils/seeding.py;
    # REP-DET exempts no module, so the seeding helpers are held to it too.
    findings = lint("det", "violating", select={"REP-DET"})
    seeding = [
        (f.line, f.message.split(" — ")[0])
        for f in findings
        if f.file == "src/repro/utils/seeding.py"
    ]
    assert seeding == [
        (8, "global stdlib RNG random.seed()"),
        (9, "module-level numpy RNG np.random.seed()"),
    ]


def test_training_outside_serve_is_exempt_from_grad():
    # grad/clean has .backward() + Adam in src/repro/core/ — fine there.
    assert lint("grad", "clean", select={"REP-GRAD"}) == []
