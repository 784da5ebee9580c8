#!/usr/bin/env bash
# Documentation consistency checks, run by CI's docs job and the docs_check
# ctest:
#   1. every relative markdown link in README.md and docs/*.md resolves to a
#      file or directory that exists;
#   2. every `src/...` (also docs/, tools/, bench/, tests/, scripts/,
#      oracle/, perfbench/) path README.md or docs/*.md names in backticks
#      exists on disk, so the architecture table cannot drift from the tree;
#   3. docs/PROTOCOL.md carries exactly one machine-readable conformance
#      block (the hexdump tests/test_server.cpp replays verbatim);
#   4. every seed file tools/fuzz/make_corpus.cpp writes is tracked by git,
#      so an ignore rule cannot silently shrink the corpus a fresh clone
#      replays (fuzz_regression, cli_exit_codes);
#   5. the library stays free of test support: no file under src/ includes
#      a testkit/ header, and no src/**/CMakeLists.txt names sperr_testkit.
# External (http/https/mailto) links are not fetched: CI must not depend on
# network reachability.

set -u
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

check_exists() {
  # $1 = path relative to $2; succeeds for files, dirs, and glob patterns
  # that match at least one entry.
  local target="$1" base="$2"
  case "$target" in
    *'*'*)
      compgen -G "$base/$target" > /dev/null
      return
      ;;
  esac
  [ -e "$base/$target" ]
}

# --- 1. relative markdown links ---------------------------------------------
for f in "$ROOT"/README.md "$ROOT"/docs/*.md; do
  dir="$(dirname "$f")"
  while IFS= read -r link; do
    case "$link" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    target="${link%%#*}"   # drop in-page anchors
    [ -z "$target" ] && continue
    if ! check_exists "$target" "$dir"; then
      echo "BROKEN LINK: ${f#"$ROOT"/} -> $link"
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$f" | sed 's/^\[[^]]*\](\(.*\))$/\1/')
done

# --- 2. backticked repo paths -----------------------------------------------
for f in "$ROOT"/README.md "$ROOT"/docs/*.md; do
  while IFS= read -r path; do
    path="${path%\`}"
    path="${path#\`}"
    # Tolerate `path:line` references and trailing slashes.
    path="$(printf '%s' "$path" | sed 's/:[0-9]*$//; s:/$::')"
    if ! check_exists "$path" "$ROOT"; then
      echo "MISSING PATH: ${f#"$ROOT"/} names \`$path\`"
      fail=1
    fi
  done < <(grep -o '`\(src\|docs\|tools\|bench\|tests\|scripts\|oracle\|perfbench\)/[^` ]*`' "$f")
done

# --- 3. PROTOCOL.md conformance block ----------------------------------------
proto="$ROOT/docs/PROTOCOL.md"
if [ ! -f "$proto" ]; then
  echo "MISSING: docs/PROTOCOL.md"
  fail=1
else
  begins=$(grep -c 'conformance:begin' "$proto")
  ends=$(grep -c 'conformance:end' "$proto")
  if [ "$begins" -ne 1 ] || [ "$ends" -ne 1 ]; then
    echo "CONFORMANCE BLOCK: expected exactly one begin/end marker pair" \
         "in docs/PROTOCOL.md (got $begins begin, $ends end)"
    fail=1
  elif ! sed -n '/conformance:begin/,/conformance:end/p' "$proto" \
      | grep -q '^>> ' \
      || ! sed -n '/conformance:begin/,/conformance:end/p' "$proto" \
      | grep -q '^<< '; then
    echo "CONFORMANCE BLOCK: docs/PROTOCOL.md block has no >>/<< hexdump lines"
    fail=1
  fi
fi

# --- 4. committed fuzz corpus ---------------------------------------------------
if git -C "$ROOT" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  seeds=0
  while IFS= read -r rel; do
    seeds=$((seeds + 1))
    if ! git -C "$ROOT" ls-files --error-unmatch "tools/fuzz/corpus/$rel" \
        > /dev/null 2>&1; then
      echo "UNTRACKED CORPUS FILE: tools/fuzz/corpus/$rel" \
           "(written by tools/fuzz/make_corpus.cpp)"
      fail=1
    fi
  done < <(grep -o 'root / "[a-z]*" / "[^"]*"' "$ROOT/tools/fuzz/make_corpus.cpp" \
             | sed 's|root / "\([^"]*\)" / "\([^"]*\)"|\1/\2|')
  if [ "$seeds" -eq 0 ]; then
    echo "CORPUS CHECK: no write_file(root / ...) calls found in tools/fuzz/make_corpus.cpp"
    fail=1
  fi
else
  echo "check_docs: not a git work tree, corpus tracking check skipped"
fi

# --- 5. test support stays out of the library ---------------------------------
while IFS= read -r hit; do
  echo "TESTKIT IN LIBRARY: ${hit#"$ROOT"/}"
  fail=1
done < <(grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]testkit/' "$ROOT/src";
         find "$ROOT/src" -name CMakeLists.txt -exec grep -Hn 'sperr_testkit' {} +)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
