#!/usr/bin/env python3
"""Link-check the user docs so build commands and pointer maps can't rot.

Two checks over README.md and docs/*.md (or any .md files passed on the
command line):

1. Every relative markdown link [text](path) must resolve to an existing
   file or directory (resolved against the containing file's directory;
   http(s)/mailto links and pure #anchors are skipped, a #fragment on a
   file link is stripped).
2. Every `backtick` span that looks like a repo path — starts with a
   known top-level directory (src/, tests/, bench/, tools/, examples/,
   docs/, .github/) or names a root file like CMakeLists.txt /
   BENCH_pr10.json — must exist from the repo root. This is what catches
   prose like "see src/engine/graph/executor.cc" going stale after a
   rename.

And one check over the C++ and Python sources under src/, tests/, bench/,
examples/ and tools/ (or any other files passed on the command line):

3. Every `*.md` path a source line names — in a comment or a user-facing
   string — must exist, resolved from the repo root or else from the
   source file's directory. This is what catches a header pointing at a
   design document that was never written or has since moved.

Exit code 0 when everything resolves, 1 with a per-finding report
otherwise. CI runs this in the docs job.
"""

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")

# A backtick span is treated as a repo path when it matches one of these.
PATH_PREFIXES = ("src/", "tests/", "bench/", "tools/", "examples/",
                 "docs/", ".github/")
ROOT_FILE_RE = re.compile(
    r"^[A-Za-z0-9_.-]+\.(md|json|txt|py|yml|yaml)$")

# A markdown path named in a source file, e.g. docs/architecture.md.
MD_REF_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)(?![\w-])")
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
SOURCE_EXTS = (".h", ".cc", ".cpp", ".py")


def check_file(md_path):
    failures = []
    base_dir = os.path.dirname(os.path.abspath(md_path))
    with open(md_path, encoding="utf-8") as f:
        lines = f.readlines()

    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(base_dir, target))
            if not os.path.exists(resolved):
                failures.append(
                    f"{md_path}:{lineno}: dead link target '{target}'")
        if in_fence:
            # Fenced code blocks hold commands with output redirections and
            # placeholder paths; only inline code is path-checked.
            continue
        for match in CODE_RE.finditer(line):
            token = match.group(1).strip()
            looks_like_path = token.startswith(PATH_PREFIXES) or \
                ROOT_FILE_RE.match(token)
            if not looks_like_path:
                continue
            # Commands/globs/placeholders, not concrete paths.
            if any(ch in token for ch in " <>*$|'\"{}"):
                continue
            resolved = os.path.normpath(os.path.join(REPO_ROOT, token))
            if not os.path.exists(resolved):
                failures.append(
                    f"{md_path}:{lineno}: dead path reference `{token}`")
    return failures


def check_source_file(path):
    failures = []
    base_dir = os.path.dirname(os.path.abspath(path))
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            for match in MD_REF_RE.finditer(line):
                ref = match.group(1)
                if not any(os.path.exists(os.path.normpath(os.path.join(d, ref)))
                           for d in (REPO_ROOT, base_dir)):
                    failures.append(
                        f"{path}:{lineno}: dead document reference '{ref}'")
    return failures


def source_files():
    files = []
    for top in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, top)):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith(SOURCE_EXTS)]
    return sorted(files)


def main():
    files = sys.argv[1:]
    if not files:
        files = [os.path.join(REPO_ROOT, "README.md")]
        files += sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
        files += source_files()
    failures = []
    for path in files:
        if not os.path.exists(path):
            failures.append(f"{path}: file not found")
            continue
        if path.endswith(".md"):
            failures.extend(check_file(path))
        else:
            failures.extend(check_source_file(path))
    if failures:
        for failure in failures:
            print(failure)
        print(f"FAIL: {len(failures)} dead reference(s)")
        return 1
    print(f"OK: {len(files)} file(s) link-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
