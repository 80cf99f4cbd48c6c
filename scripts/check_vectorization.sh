#!/usr/bin/env bash
# Auto-vectorization gate for the exec hot loops.
#
# Compiles src/exec/kernels.cc the way the Release build does (g++ -O3)
# with -fopt-info-vec-optimized and asserts that GCC attributes at least
# MLCS_MIN_VECTORIZED_LOOPS "loop vectorized" reports to kernels.cc
# itself. The kernel loops are deliberately flat (typed buffers, no
# per-row virtual calls, branch-free bodies) so the vectorizer can take
# them; this gate catches regressions that reintroduce per-row branches
# or indirect calls. Skips loudly when g++ is unavailable — the opt-info
# format is GCC-specific.
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_VECTORIZED="${MLCS_MIN_VECTORIZED_LOOPS:-20}"
CXX_BIN="${CXX:-g++}"

if ! command -v "$CXX_BIN" >/dev/null 2>&1; then
  echo "check_vectorization: $CXX_BIN not found; SKIPPING vectorization gate"
  exit 0
fi
if ! "$CXX_BIN" --version 2>/dev/null | head -n 1 | grep -qiE 'g\+\+|gcc'; then
  echo "check_vectorization: $CXX_BIN is not GCC; SKIPPING vectorization gate"
  exit 0
fi

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

"$CXX_BIN" -std=c++20 -O3 -Wall -Wextra -fopt-info-vec-optimized \
  -I . -I src -c src/exec/kernels.cc -o "$tmp_dir/kernels.o" \
  2>"$tmp_dir/opt_info.txt" || {
  echo "check_vectorization: FAILED to compile src/exec/kernels.cc"
  cat "$tmp_dir/opt_info.txt"
  exit 1
}

count="$(grep -cE 'kernels\.cc:[0-9]+:[0-9]+: optimized: loop vectorized' \
  "$tmp_dir/opt_info.txt" || true)"

echo "check_vectorization: $count vectorized loops in src/exec/kernels.cc" \
  "(minimum $MIN_VECTORIZED)"
if [ "$count" -lt "$MIN_VECTORIZED" ]; then
  echo "check_vectorization: FAILED — the kernel hot loops stopped" \
    "auto-vectorizing; diff the loop bodies against the flat-buffer idiom"
  grep -E 'kernels\.cc' "$tmp_dir/opt_info.txt" | head -n 40 || true
  exit 1
fi

echo "check_vectorization: OK"
