"""REP-DOC — intra-repo markdown links and anchors must resolve.

Runs with every ``python -m repro.lint`` (CI's ``lint`` job, and tier-1's
``tests/lint/test_repo_clean.py``); ``--select REP-DOC`` runs it alone.
Scans every ``*.md`` file for inline links/images and reports a finding when a
relative target does not exist, or a ``#fragment`` matches no heading of
the target document (GitHub-style slugs).  External schemes are skipped —
the linter must never touch the network.
"""

from __future__ import annotations

import os
import re

from repro.lint.core import Checker, Finding, LintContext, register

# Inline markdown link/image: [text](target) — target up to the first
# unescaped closing paren; titles ("...") after the url are tolerated.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(\s*<?([^)<>\s]+)>?(?:\s+\"[^\"]*\")?\s*\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_CODE_FENCE_RE = re.compile(r"^(```|~~~)")
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line: lowercase, formatting
    markers dropped, spaces to hyphens, punctuation removed."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def extract_anchors(text: str) -> set[str]:
    """All heading anchors of one markdown document, with GitHub's ``-1``
    duplicate suffixes."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in text.splitlines():
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def extract_links(text: str) -> list[tuple[int, str]]:
    """``(line_number, target)`` for every inline link outside code."""
    links: list[tuple[int, str]] = []
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if _CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        stripped = re.sub(r"`[^`]*`", "", line)
        for match in _LINK_RE.finditer(stripped):
            links.append((number, match.group(1)))
    return links


@register
class DocsLinksChecker(Checker):
    code = "REP-DOC"
    name = "docs-links"
    description = (
        "every intra-repo markdown link target must exist and every "
        "#fragment must match a heading of the target document"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        anchor_cache: dict[str, set[str]] = {}

        def anchors_of(relpath: str) -> set[str]:
            if relpath not in anchor_cache:
                anchor_cache[relpath] = extract_anchors(ctx.md_text(relpath))
            return anchor_cache[relpath]

        for relpath in ctx.md_paths:
            for line, target in extract_links(ctx.md_text(relpath)):
                if target.startswith(_SKIP_SCHEMES):
                    continue
                file_part, _, fragment = target.partition("#")
                if file_part:
                    resolved = os.path.normpath(
                        os.path.join(os.path.dirname(relpath), file_part)
                    ).replace(os.sep, "/")
                    if not ctx.has_file(resolved):
                        findings.append(
                            Finding(
                                relpath,
                                line,
                                self.code,
                                f"broken link -> {target}",
                            )
                        )
                        continue
                else:
                    resolved = relpath
                if fragment and resolved.lower().endswith(".md"):
                    if fragment.lower() not in anchors_of(resolved):
                        findings.append(
                            Finding(
                                relpath,
                                line,
                                self.code,
                                f"broken anchor -> {target} (no heading "
                                f"'#{fragment}' in {resolved})",
                            )
                        )
        return findings
