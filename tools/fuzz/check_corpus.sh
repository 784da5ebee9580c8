#!/usr/bin/env bash
# Regenerate the fuzz seed corpus into a temporary directory and compare
# every file the generator writes, byte for byte, with the committed copy
# under tools/fuzz/corpus/. A change to a library default that moves a
# seed's bytes then fails here instead of leaving the committed seeds stale.
#
#   usage: check_corpus.sh MAKE_FUZZ_CORPUS CORPUS_DIR
set -euo pipefail

gen=${1:?path to make_fuzz_corpus}
corpus=${2:?committed corpus directory}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$gen" "$tmp" > /dev/null
fails=0
while IFS= read -r f; do
  if ! cmp "$tmp/$f" "$corpus/$f"; then
    echo "check_corpus: $f differs from the generator's output" >&2
    fails=$((fails + 1))
  fi
done < <(cd "$tmp" && find . -type f | sort)

if [ "$fails" -ne 0 ]; then
  echo "check_corpus: $fails seed(s) out of date; regenerate with" \
       "make_fuzz_corpus tools/fuzz/corpus" >&2
  exit 1
fi
echo "check_corpus: every generated seed matches the committed corpus"
