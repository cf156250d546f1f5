#!/usr/bin/env bash
# Regenerates the checked-in fuzzer seed corpus under tests/corpus/.
#
#   scripts/make_corpus.sh [build-dir]      (default: build)
#
# Two kinds of seed:
#   * generated — one canonical instance plus delta/pair seeds per
#     registered family, emitted by tools/corpus_gen.cpp so the corpus
#     tracks the wire format automatically;
#   * hostile — hand-written inputs pinning parser and solve rejection
#     paths (bad magic, over-cap declarations, truncation, version and
#     kind mismatches, malformed trees, a negative cost scale, repricing
#     deltas), written here so a regeneration never loses them.
#
# The corpus is deliberately tiny: seeds exist to reach parser states,
# and the crash-regression ctest entries replay every file on every
# toolchain (see fuzz_replay_* in CMakeLists.txt).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
GEN="$BUILD/cordon_corpus_gen"
OUT="tests/corpus"

if [[ ! -x "$GEN" ]]; then
  echo "make_corpus.sh: $GEN not built (cmake --build $BUILD --target cordon_corpus_gen)" >&2
  exit 1
fi

rm -rf "$OUT"
"$GEN" "$OUT"

# --- hostile instance seeds --------------------------------------------------

# Wrong magic / wrong version / unknown kind: header rejection paths.
printf 'cordon-delta v1 lis\nvalues 1 7\nend\n' \
  > "$OUT/instance/hostile_wrong_magic.inst"
printf 'cordon-instance v9 lis\nvalues 1 7\nend\n' \
  > "$OUT/instance/hostile_bad_version.inst"
printf 'cordon-instance v1 nosuch\nvalues 1 7\nend\n' \
  > "$OUT/instance/hostile_unknown_kind.inst"

# Declared size far over kMaxDeclaredSize: the cap must reject before
# any allocation happens.
printf 'cordon-instance v1 lis\nvalues 99999999999999 1\nend\n' \
  > "$OUT/instance/hostile_overcap.inst"

# Truncations: mid-header, mid-body, missing end.
printf 'cordon-instance' > "$OUT/instance/hostile_trunc_header.inst"
printf 'cordon-instance v1 glws\nn 5' > "$OUT/instance/hostile_trunc_body.inst"
printf 'cordon-instance v1 lis\nvalues 3 1 2 3\n' \
  > "$OUT/instance/hostile_no_end.inst"

# Count/payload mismatch and non-numeric noise.
printf 'cordon-instance v1 lis\nvalues 5 1 2\nend\n' \
  > "$OUT/instance/hostile_short_payload.inst"
printf 'cordon-instance v1 lis\nvalues 2 1 banana\nend\n' \
  > "$OUT/instance/hostile_nonnumeric.inst"

# Parse-valid parent arrays that are not one rooted tree: the solve must
# reject them, not crash (out-of-range parent), hang (no root, a cycle)
# or skip nodes (two roots).
printf 'cordon-instance v1 treeglws\nparent 4294967295 0 1 900000\nd0 0\ncost affine 1 1\nend\n' \
  > "$OUT/instance/hostile_tree_parent_range.inst"
printf 'cordon-instance v1 treeglws\nparent 1 0 0\nd0 0\ncost affine 1 1\nend\n' \
  > "$OUT/instance/hostile_tree_cycle.inst"
printf 'cordon-instance v1 treeglws\nparent 4294967295 4294967295 0\nd0 0\ncost affine 1 1\nend\n' \
  > "$OUT/instance/hostile_tree_two_roots.inst"

# A negative cost scale parses but flips the Monge shape the solvers are
# told about: turning the CostSpec into a cost must reject it.
printf 'cordon-instance v1 glws\nn 200\nd0 0\ncost logarithmic 5 -3\nend\n' \
  > "$OUT/instance/hostile_negative_scale.inst"

# --- hostile delta seeds -----------------------------------------------------

# Over-cap op count: kMaxDeltaOps must fire on the declaration.
printf 'cordon-delta v1 lis 0\nvalues 99999999 1\nend\n' \
  > "$OUT/delta/hostile_overcap_ops.delta"

# Repricing appends the validator must reject (d0 / cost / k changes).
printf 'cordon-delta v1 glws 0\nn 4\nd0 2.5\ncost affine 1 1\nend\n' \
  > "$OUT/delta/hostile_reprice_d0.delta"
printf 'cordon-delta v1 kglws 0\nn 4\nk 3\ncost affine 1 1\nend\n' \
  > "$OUT/delta/hostile_reprice_k.delta"

# Kind mismatch: lis base, oat delta — apply must reject all-or-nothing.
printf 'cordon-instance v1 lis\nvalues 3 1 2\nend\n\0cordon-delta v1 oat 0\nweights 2 1 4\nend\n' \
  > "$OUT/delta/hostile_kind_mismatch.bin"

# Max base-version stamp: parses fine, only the session layer cares.
printf 'cordon-delta v1 lis 18446744073709551615\nvalues 1 7\nend\n' \
  > "$OUT/delta/hostile_version_max.delta"

# Empty and header-only inputs.
printf '' > "$OUT/delta/hostile_empty.delta"
printf 'cordon-delta v1 lis 0\n' > "$OUT/delta/hostile_header_only.delta"

echo "make_corpus.sh: corpus under $OUT:"
find "$OUT" -type f | wc -l
