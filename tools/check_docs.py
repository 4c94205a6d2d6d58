#!/usr/bin/env python3
"""Documentation hygiene checker.

Verifies, across every git-tracked file (or, where git cannot list them,
as in an exported copy of the tree, every file under it except `.git` and
the build trees `.gitignore` names):

1. `DESIGN.md §N` references (the form source comments use) point at a
   real `§N` section heading in DESIGN.md;
2. relative markdown links in *.md files point at files that exist;
3. `#anchor` fragments in those links match a heading of the target
   markdown file (GitHub heading-slug rules).

A `DESIGN.md §N` quoted inside an inline code span of a markdown file is
text about the form, not a citation, and is not checked.

Run from the repository root (CI docs job and the `docs_check` ctest do).
Exits non-zero listing every dangling reference found.
"""

import os
import re
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

TEXT_SUFFIXES = {".md", ".hpp", ".cpp", ".py", ".yml", ".yaml", ".txt",
                 ".cmake", ".sh"}
SECTION_REF = re.compile(r"DESIGN\.md\s*§(\d+)")
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*$", re.MULTILINE)
INLINE_CODE = re.compile(r"`[^`\n]*`")


def ignored_dirs():
    """Directory patterns `.gitignore` names (`build/`, `build-*/`, ...)."""
    try:
        lines = Path(".gitignore").read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return []
    return [line.strip().strip("/") for line in lines
            if line.strip().endswith("/") and not line.startswith(("#", "!"))]


def walked_files():
    skip = [".git"] + ignored_dirs()
    out = []
    for root, dirs, files in os.walk("."):
        dirs[:] = sorted(d for d in dirs
                         if not any(fnmatch(d, pat) for pat in skip))
        out += [Path(root, f) for f in sorted(files)]
    return out


def tracked_files():
    try:
        out = subprocess.run(["git", "ls-files"], check=True,
                             capture_output=True, text=True).stdout
        paths = [Path(p) for p in out.splitlines()]
    except (OSError, subprocess.CalledProcessError):
        paths = []
    if not paths:  # not a git checkout (or git is missing)
        paths = walked_files()
    return [p for p in paths
            if p.suffix in TEXT_SUFFIXES or p.name == "CMakeLists.txt"]


def github_slug(heading, seen):
    """GitHub's heading→anchor rule: lowercase, drop everything but
    alphanumerics/spaces/hyphens/underscores, spaces to hyphens,
    -N suffixes for duplicates."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug, flags=re.UNICODE)
    slug = slug.replace(" ", "-")
    # GitHub treats non-ASCII word characters as keepable, but our docs
    # are ASCII once § and punctuation are stripped.
    slug = re.sub(r"[^a-z0-9\-_]", "", slug)
    if slug in seen:
        seen[slug] += 1
        return f"{slug}-{seen[slug]}"
    seen[slug] = 0
    return slug


def anchors_of(md_path, cache={}):
    if md_path not in cache:
        seen = {}
        text = md_path.read_text(encoding="utf-8")
        # Strip fenced code blocks so commented-out headings don't count.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        cache[md_path] = {github_slug(m.group(2), seen)
                          for m in HEADING.finditer(text)}
    return cache[md_path]


def design_sections():
    design = Path("DESIGN.md")
    if not design.is_file():
        return design, set()
    secs = set()
    for m in HEADING.finditer(design.read_text(encoding="utf-8")):
        sm = re.match(r"§(\d+)\b", m.group(2))
        if sm:
            secs.add(sm.group(1))
    return design, secs


def main():
    errors = []
    design, sections = design_sections()

    for path in tracked_files():
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, FileNotFoundError):
            continue

        # 1. DESIGN.md §N references, in any tracked file.
        cited = INLINE_CODE.sub("", text) if path.suffix == ".md" else text
        for m in SECTION_REF.finditer(cited):
            if not design.is_file():
                errors.append(f"{path}: cites DESIGN.md §{m.group(1)} "
                              "but DESIGN.md does not exist")
            elif m.group(1) not in sections:
                errors.append(f"{path}: cites DESIGN.md §{m.group(1)} "
                              f"but DESIGN.md has no §{m.group(1)} heading")

        # 2./3. Markdown links in markdown files.
        if path.suffix != ".md":
            continue
        body = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for m in MD_LINK.finditer(body):
            target = m.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            if target.startswith("#"):
                if target[1:] not in anchors_of(path):
                    errors.append(f"{path}: dangling anchor '{target}'")
                continue
            file_part, _, anchor = target.partition("#")
            dest = (path.parent / file_part).resolve()
            if not dest.exists():
                errors.append(f"{path}: broken link '{target}' "
                              f"(no such file {file_part})")
                continue
            try:
                dest.relative_to(Path.cwd().resolve())
            except ValueError:
                errors.append(f"{path}: link '{target}' escapes the "
                              "repository (invalid on GitHub)")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in anchors_of(dest):
                    errors.append(f"{path}: dangling anchor '{target}'")

    if errors:
        print(f"docs check: {len(errors)} problem(s)")
        for e in errors:
            print("  " + e)
        return 1
    print("docs check: all markdown links, anchors and DESIGN.md section "
          "references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
