#!/usr/bin/env bash
# Asserts the sperr_cc exit-code contract (documented at the top of
# tools/sperr_cc.cpp): 0 success, 1 I/O error, 2 usage error, 3 corrupt
# input (a damaged archive, or NaN in a field to compress), 4 verify failure,
# 5 resource limit exceeded (decompression bomb or --max-output-mb).
# Also checks that `info --verify` prints one verdict line per chunk,
# that `--recover` survives a damaged archive, and that `--type f32`
# writes 4 bytes per value. Run as a ctest:
#
#   check_cli_codes.sh SPERR_CC MAKE_FIELD WORKDIR
set -u

SPERR_CC=${1:?path to sperr_cc}
MAKE_FIELD=${2:?path to make_field}
WORK=${3:?scratch directory}
mkdir -p "$WORK"

fails=0
expect() { # expect CODE DESC -- cmd...
  local want=$1 desc=$2; shift 3
  "$@" >"$WORK/out.txt" 2>"$WORK/err.txt"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc — expected exit $want, got $got" >&2
    sed 's/^/  stderr: /' "$WORK/err.txt" >&2
    fails=$((fails + 1))
  fi
}
expect_size() { # expect_size FILE BYTES DESC
  local got
  got=$(wc -c < "$1")
  if [ "$got" -ne "$2" ]; then
    echo "FAIL: $3 output is $got bytes, want $2" >&2
    fails=$((fails + 1))
  fi
}

"$MAKE_FIELD" miranda_pressure 48 48 24 "$WORK/field.raw" --type f64 >/dev/null \
  || { echo "FAIL: make_field" >&2; exit 1; }

# --- exit 0: the happy paths -------------------------------------------------
expect 0 "clean compress" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/a.sperr" \
  --dims 48 48 24 --type f64 --idx 18 --chunk 32 32 32 --no-lossless
expect 0 "clean decompress" -- "$SPERR_CC" d "$WORK/a.sperr" "$WORK/a.raw"
# a.sperr holds four 32^3-grid chunks; their coarse boxes tile the coarse field.
expect 0 "--drop on a multi-chunk container" -- "$SPERR_CC" d "$WORK/a.sperr" \
  "$WORK/a.raw" --drop 1
grep -q '24x24x12 doubles' "$WORK/out.txt" || {
  echo "FAIL: --drop 1 on 48x48x24 did not report the 24x24x12 coarse field" >&2
  fails=$((fails + 1))
}
expect 0 "clean info" -- "$SPERR_CC" info "$WORK/a.sperr"
expect 0 "clean info --verify" -- "$SPERR_CC" info "$WORK/a.sperr" --verify
nchunks=$(grep -c '^chunk ' "$WORK/out.txt")
if [ "$nchunks" -lt 4 ]; then
  echo "FAIL: info --verify printed $nchunks chunk lines, want one per chunk (>=4)" >&2
  fails=$((fails + 1))
fi
grep -q 'verify: all .* intact' "$WORK/out.txt" || {
  echo "FAIL: info --verify did not print the all-intact summary" >&2
  fails=$((fails + 1))
}

# --- exit 2: usage errors ----------------------------------------------------
expect 2 "no arguments" -- "$SPERR_CC"
expect 2 "unknown command" -- "$SPERR_CC" frobnicate
expect 2 "unknown option" -- "$SPERR_CC" d "$WORK/a.sperr" "$WORK/a.raw" --bogus
expect 2 "missing quality mode" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64
expect 2 "--drop with --recover" -- "$SPERR_CC" d "$WORK/a.sperr" "$WORK/a.raw" \
  --drop 1 --recover zero
expect 2 "bad --recover value" -- "$SPERR_CC" d "$WORK/a.sperr" "$WORK/a.raw" \
  --recover sideways
expect 2 "non-positive --q-over-t" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64 --idx 18 --q-over-t -1
# A zero chunk extent would code one-voxel chunks; a non-numeric one used to
# read as 0. Both are refused.
expect 2 "zero --chunk extents" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64 --idx 18 --chunk 0 0 0
expect 2 "non-numeric --chunk" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64 --idx 18 --chunk abc
expect 2 "non-numeric --idx" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64 --idx 18x
# A tolerance that underflows to 0 or overflows is refused; a subnormal one
# is a tolerance like any other (next section).
expect 2 "--pwe underflowing to 0" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64 --pwe 1e-400
expect 2 "--pwe overflowing" -- "$SPERR_CC" c "$WORK/field.raw" "$WORK/b.sperr" \
  --dims 48 48 24 --type f64 --pwe 1e400

# --- exit 0: a subnormal field at a subnormal --pwe --------------------------
# 16^3 f64 values with a zero exponent field (so below 2.2e-308): mantissa
# m = 2^40 * (i mod 61) + i^2, i.e. up to about 3e-310, at t = 1e-312.
esc=""
for ((i = 0; i < 4096; ++i)); do
  m=$(( (1 << 40) * (i % 61) + i * i ))
  for ((b = 0; b < 8; ++b)); do
    printf -v byte '\\x%02x' $(( (m >> (8 * b)) & 255 ))
    esc+=$byte
  done
done
# shellcheck disable=SC2059  # $esc is the field as \x escapes
printf "$esc" > "$WORK/subnormal.raw"
expect_size "$WORK/subnormal.raw" $((16 * 16 * 16 * 8)) "subnormal field"
expect 0 "subnormal --pwe on a subnormal field" -- "$SPERR_CC" c \
  "$WORK/subnormal.raw" "$WORK/subnormal.sperr" --dims 16 16 16 --type f64 \
  --pwe 1e-312 --verify
grep -q 'PWE bound HELD' "$WORK/out.txt" || {
  echo "FAIL: --pwe 1e-312 on a subnormal field did not hold the bound" >&2
  fails=$((fails + 1))
}

# --- exit 4: verify failure -------------------------------------------------
# At --pwe 1e-308 on this field every decoded value is NaN: --verify must
# call that a violated bound, not "max err 0 ... HELD". The NaN decode is an
# open codec defect (ROADMAP item 9: q = q_over_t * t overflows the
# coefficient range). When item 9 lands, compress either refuses the
# tolerance (exit 2) or decodes it correctly (exit 0), and this case must
# move to another source of a bad reconstruction; the metric itself is pinned
# by the unit test Quality.NanReconstructionFailsAnyBound.
expect 4 "--verify on a NaN reconstruction" -- "$SPERR_CC" c "$WORK/field.raw" \
  "$WORK/b.sperr" --dims 48 48 24 --type f64 --pwe 1e-308 --verify
grep -q 'PWE bound VIOLATED' "$WORK/out.txt" || {
  echo "FAIL: --verify on a NaN reconstruction did not report VIOLATED" >&2
  fails=$((fails + 1))
}

# --- exit 1: I/O errors ------------------------------------------------------
expect 1 "missing input file" -- "$SPERR_CC" d "$WORK/nonexistent.sperr" "$WORK/x.raw"
expect 1 "missing info target" -- "$SPERR_CC" info "$WORK/nonexistent.sperr"

# --- exit 3: corrupt input ---------------------------------------------------
# Overwrite a burst in the middle of the archive: with --no-lossless the chunk
# streams sit verbatim there, so this damages exactly one chunk's bytes.
cp "$WORK/a.sperr" "$WORK/bad.sperr"
size=$(wc -c < "$WORK/a.sperr")
head -c 16 /dev/zero | tr '\0' '\377' \
  | dd of="$WORK/bad.sperr" bs=1 seek=$((size / 2)) conv=notrunc 2>/dev/null

expect 3 "decompress corrupt archive" -- "$SPERR_CC" d "$WORK/bad.sperr" "$WORK/bad.raw"
expect 3 "info --verify corrupt archive" -- "$SPERR_CC" info "$WORK/bad.sperr" --verify
grep -q 'checksum BAD' "$WORK/out.txt" || {
  echo "FAIL: info --verify did not flag the damaged chunk's checksum" >&2
  fails=$((fails + 1))
}
expect 3 "garbage input" -- "$SPERR_CC" d "$WORK/field.raw" "$WORK/x.raw"
# A field to compress holding one NaN (at value 100 of a 16^3 f64 field) is
# bad input too, whichever way the tolerance is given; stderr names the index.
"$MAKE_FIELD" miranda_pressure 16 16 16 "$WORK/nan.raw" --type f64 >/dev/null \
  || { echo "FAIL: make_field (16^3)" >&2; exit 1; }
printf '\000\000\000\000\000\000\370\177' \
  | dd of="$WORK/nan.raw" bs=1 seek=800 conv=notrunc 2>/dev/null
for mode in "--pwe 1e-3" "--idx 20"; do
  # shellcheck disable=SC2086  # $mode is two words on purpose
  expect 3 "compress a field holding a NaN ($mode)" -- "$SPERR_CC" c "$WORK/nan.raw" \
    "$WORK/nan.sperr" --dims 16 16 16 --type f64 $mode
  grep -q 'index 100' "$WORK/err.txt" || {
    echo "FAIL: compress with a NaN ($mode) did not name index 100" >&2
    fails=$((fails + 1))
  }
done

# --- exit 5: resource limits -------------------------------------------------
# The committed bomb corpus: 96 bytes declaring a 32 TiB decode. Both the
# decoder and the header-only info path must refuse it with exit 5 — and
# fast (an exit-5 that took a minute would mean something was allocated).
BOMB="$(dirname "$0")/fuzz/corpus/container/bomb_dims.sperr"
if [ ! -f "$BOMB" ]; then
  echo "FAIL: bomb corpus file missing: $BOMB" >&2
  fails=$((fails + 1))
else
  expect 5 "decompress bomb container" -- "$SPERR_CC" d "$BOMB" "$WORK/bomb.raw"
  expect 5 "info bomb container" -- "$SPERR_CC" info "$BOMB"
fi
# A 2^32-chunk grid: info opens a container as the decoders do, so it
# refuses the grid before enumerating it.
expect 5 "info chunk-grid bomb" -- "$SPERR_CC" info \
  "$(dirname "$0")/fuzz/corpus/container/bomb_chunks.sperr"

# --max-output-mb binds on honest archives too: a 64^3 f64 field decodes to
# 2 MiB, so a 1 MiB ceiling refuses it and a 16 MiB ceiling admits it.
"$MAKE_FIELD" miranda_pressure 64 64 64 "$WORK/big.raw" --type f64 >/dev/null \
  || { echo "FAIL: make_field (64^3)" >&2; exit 1; }
expect 0 "compress 64^3" -- "$SPERR_CC" c "$WORK/big.raw" "$WORK/big.sperr" \
  --dims 64 64 64 --type f64 --idx 18
expect 5 "decompress past --max-output-mb" -- "$SPERR_CC" d "$WORK/big.sperr" \
  "$WORK/big_out.raw" --max-output-mb 1
expect 0 "decompress within --max-output-mb" -- "$SPERR_CC" d "$WORK/big.sperr" \
  "$WORK/big_out.raw" --max-output-mb 16
# 2^44 MiB is 2^64 bytes: a ceiling that would wrap to 0 is a usage error.
expect 2 "--max-output-mb past 2^64 bytes" -- "$SPERR_CC" d "$WORK/big.sperr" \
  "$WORK/big_out.raw" --max-output-mb 17592186044416

# --- recovery: damaged archive, zero-fill still succeeds ---------------------
expect 0 "decompress --recover zero" -- "$SPERR_CC" d "$WORK/bad.sperr" \
  "$WORK/recovered.raw" --recover zero
grep -q 'chunk(s) damaged' "$WORK/out.txt" || {
  echo "FAIL: --recover zero did not report the damaged chunk" >&2
  fails=$((fails + 1))
}
expect_size "$WORK/recovered.raw" $((48 * 48 * 24 * 8)) "--recover zero"

# --- f32 output: 4 bytes per value from every decode mode --------------------
expect 0 "decompress --type f32 --drop 1" -- "$SPERR_CC" d "$WORK/a.sperr" \
  "$WORK/coarse32.raw" --type f32 --drop 1
expect_size "$WORK/coarse32.raw" $((24 * 24 * 12 * 4)) "--type f32 --drop 1"
expect 0 "decompress --type f32 --recover zero" -- "$SPERR_CC" d "$WORK/bad.sperr" \
  "$WORK/recovered32.raw" --type f32 --recover zero
expect_size "$WORK/recovered32.raw" $((48 * 48 * 24 * 4)) "--type f32 --recover zero"

if [ "$fails" -ne 0 ]; then
  echo "check_cli_codes: $fails assertion(s) failed" >&2
  exit 1
fi
echo "check_cli_codes: all exit-code assertions held"
