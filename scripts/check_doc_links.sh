#!/usr/bin/env bash
# Fails if README.md, docs/*.md or a skill's SKILL.md under .claude/skills/
# reference repo paths that do not exist.
#
# Three kinds of references are checked:
#   1. Relative markdown link targets: [text](path) — external URLs and
#      pure fragments are skipped.
#   2. Backticked repo paths rooted at a known top-level directory, e.g.
#      `crates/sim/src/event.rs` or `tests/determinism.rs`.
#   3. Anchors into markdown files: [text](FILE.md#heading) and
#      [text](#heading) must name a real heading of the target file.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
note() {
    echo "check_doc_links: $1" >&2
    fail=1
}

# Squash a heading or link fragment to a comparable slug: lowercase,
# alphanumerics only. Cruder than GitHub's real slugger (which keeps
# hyphens and unicode), but applied identically to both sides it can
# only miss collisions, not report false danglers... as long as it
# stays case- and punctuation-insensitive on ASCII, which is exactly
# the class of typo (renamed heading, reworded section) it exists to
# catch.
squash() {
    printf '%s' "$1" | tr '[:upper:]' '[:lower:]' | tr -cd 'a-z0-9'
}

# All squashed heading slugs of a markdown file, one per line.
heading_slugs() {
    grep -E '^#{1,6} ' "$1" | sed -E 's/^#{1,6} +//' | while IFS= read -r h; do
        squash "$h"
        echo
    done
}

check_anchor() {
    local doc="$1" target="$2" file="$3" fragment="$4"
    local slug
    slug=$(squash "$fragment")
    [ -n "$slug" ] || return 0
    # grep without -q reads its whole input: -q would exit at the first
    # match, SIGPIPE heading_slugs, and trip pipefail on a *successful*
    # lookup.
    if ! heading_slugs "$file" | grep -x "$slug" >/dev/null; then
        note "$doc links to dangling anchor: $target (no heading in $file matches #$fragment)"
    fi
}

for doc in README.md docs/*.md .claude/skills/*/SKILL.md; do
    [ -f "$doc" ] || continue
    dir=$(dirname "$doc")

    # Markdown links, resolved relative to the referencing file.
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        \#*)
            # Same-file anchor.
            check_anchor "$doc" "$target" "$doc" "${target#\#}"
            continue
            ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        resolved=""
        if [ -e "$dir/$path" ]; then
            resolved="$dir/$path"
        elif [ -e "$path" ]; then
            resolved="$path"
        else
            note "$doc links to missing path: $target"
            continue
        fi
        # Cross-file anchor into another markdown file.
        case "$target" in
        *\#*)
            case "$resolved" in
            *.md) check_anchor "$doc" "$target" "$resolved" "${target#*\#}" ;;
            esac
            ;;
        esac
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//' | sort -u)

    # Backticked paths rooted at a real top-level directory.
    while IFS= read -r path; do
        case "$path" in
        crates/* | docs/* | shims/* | tests/* | examples/* | src/* | scripts/* | .github/*) ;;
        *) continue ;;
        esac
        if [ ! -e "$path" ]; then
            note "$doc mentions missing path: $path"
        fi
    done < <(grep -oE '`[A-Za-z0-9_./-]+`' "$doc" | tr -d '\`' | sort -u)
done

if [ "$fail" -eq 0 ]; then
    echo "check_doc_links: all referenced paths exist"
fi
exit "$fail"
