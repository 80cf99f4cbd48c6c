#!/usr/bin/env bash
# Correctness gate for every change.
#
#   scripts/check.sh --quick        Release build + ctest + lint.py +
#                                   clang-tidy + thread-safety analysis
#                                   (tier-1; the default)
#   scripts/check.sh --analyze      Static analysis only, no build: lint.py
#                                   + clang -Wthread-safety over src/.
#                                   Seconds, not minutes — run it on every
#                                   locking change.
#   scripts/check.sh --bench-smoke  --quick, then every bench binary at tiny
#                                   scale; each must exit 0 and write valid
#                                   BENCH_<name>.json
#   scripts/check.sh --full         --quick + bench smoke, then ASan+UBSan
#                                   and TSan builds each running the full
#                                   test suite (tier-2)
#
# clang-tidy and the clang thread-safety pass are skipped with a notice
# when clang is not installed (the custom rules in tools/lint.py always
# run; CI provides a clang runner). Build trees: build/ (plain),
# build-asan/, build-tsan/ — all git-ignored.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="quick"
case "${1:---quick}" in
  --quick)       MODE="quick" ;;
  --analyze)     MODE="analyze" ;;
  --bench-smoke) MODE="bench-smoke" ;;
  --full)        MODE="full" ;;
  *) echo "usage: $0 [--quick|--analyze|--bench-smoke|--full]" >&2; exit 2 ;;
esac

step() { printf '\n== %s ==\n' "$*"; }

build_and_test() {
  local dir="$1"; shift
  cmake -B "$dir" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_lint() {
  python3 tools/lint.py src/ tests/
}

thread_safety_analysis() {
  # clang's -Wthread-safety checks the MLCS_GUARDED_BY / MLCS_REQUIRES /
  # MLCS_ACQUIRE annotations (common/annotations.h) for real; g++ compiles
  # them away. Syntax-only, so it needs no build tree and runs in seconds.
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; thread-safety analysis skipped" \
         "(annotations are inert under g++ — CI runs this on a clang runner)"
    return 0
  fi
  local cc_files
  mapfile -t cc_files < <(find src -name '*.cc' | sort)
  clang++ -std=c++20 -fsyntax-only -Isrc \
    -Wthread-safety -Werror=thread-safety "${cc_files[@]}"
  echo "thread-safety analysis clean (${#cc_files[@]} files)"
}

if [[ "$MODE" == "analyze" ]]; then
  step "repo lint (tools/lint.py)"
  run_lint
  step "clang thread-safety analysis (-Wthread-safety)"
  thread_safety_analysis
  step "all checks passed (analyze)"
  exit 0
fi

step "plain build + tests"
build_and_test build

step "repo lint (tools/lint.py)"
run_lint

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # The concurrency- and Status-discipline-critical directories are the
  # minimum bar; widen as runtime allows. --warnings-as-errors promotes
  # every enabled check so findings actually fail the gate (clang-tidy
  # exits 0 on plain warnings otherwise).
  clang-tidy -p build --quiet --warnings-as-errors='*' \
    src/common/*.cc src/udf/*.cc src/modelstore/*.cc
else
  echo "clang-tidy not installed; skipped (tools/lint.py covers the custom rules)"
fi

step "clang thread-safety analysis (-Wthread-safety)"
thread_safety_analysis

step "auto-vectorization gate (kernels.cc)"
bash scripts/check_vectorization.sh

assert_metrics_block() {
  # Every BENCH_<name>.json must carry the metrics-registry snapshot
  # ("mlcs_metrics", at top level for the custom harnesses or inside the
  # google-benchmark context block) with at least one series in it, and the
  # snapshot must surface histogram quantiles (.p50) rather than raw
  # bucket rows — a regression there silently degrades every dashboard
  # built on the bench JSON.
  python3 - "$1" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
block = doc.get("mlcs_metrics", doc.get("context", {}).get("mlcs_metrics"))
assert isinstance(block, dict) and block, \
    f"{sys.argv[1]}: missing or empty mlcs_metrics block"
assert any(k.endswith(".p50") for k in block), \
    f"{sys.argv[1]}: mlcs_metrics block has no .p50 quantile series"
assert not any(".le_" in k for k in block), \
    f"{sys.argv[1]}: mlcs_metrics block leaks raw .le_ bucket rows"
PYEOF
}

bench_smoke() {
  # Run every bench binary at tiny scale from a scratch directory; each
  # must exit 0 and leave a parseable BENCH_<name>.json behind (with its
  # mlcs_metrics block). Catches bit-rot in the bench layer without paying
  # full benchmark runtimes.
  local root scratch
  root="$(pwd)"
  scratch="$(mktemp -d /tmp/mlcs-bench-smoke.XXXXXX)"
  trap 'rm -rf "$scratch"' RETURN
  pushd "$scratch" >/dev/null
  # The ablations declared in bench/CMakeLists.txt, not whatever a build
  # tree still holds: a deleted bench's stale binary must not run.
  local name b
  for name in $(sed -nE 's/^(mlcs_add_bench|add_executable)\((ablation_[a-z_]+).*/\2/p' \
                  "$root"/bench/CMakeLists.txt); do
    b="$root/build/bench/$name"
    [[ -x "$b" ]] || { echo "missing bench binary: $b" >&2; return 1; }
    echo "-- $name"
    MLCS_BENCH_MIN_TIME=0.01 \
    MLCS_SERVE_BENCH_REQUESTS=400 MLCS_SERVE_BENCH_CLIENTS=2 \
    MLCS_SERVE_BENCH_STRICT=0 \
    MLCS_OBS_BENCH_QUERIES=12 MLCS_OBS_BENCH_THREADS=2 \
    MLCS_OBS_BENCH_ROWS=2000 MLCS_OBS_BENCH_REPS=2 \
    MLCS_OBS_BENCH_STRICT=0 \
    MLCS_STORAGE_ROWS=2000 MLCS_STORAGE_COLS=16 MLCS_BLOCK_ROWS=256 \
      "$b" >/dev/null
    python3 -m json.tool "BENCH_$(basename "$b").json" >/dev/null
    assert_metrics_block "BENCH_$(basename "$b").json"
  done
  echo "-- fig1_voter_classification"
  MLCS_FIG1_ROWS=2000 MLCS_FIG1_COLS=16 MLCS_FIG1_PRECINCTS=50 \
  MLCS_FIG1_TREES=2 MLCS_FIG1_REPS=1 \
    "$root"/build/bench/fig1_voter_classification >/dev/null
  python3 -m json.tool BENCH_fig1_voter_classification.json >/dev/null
  assert_metrics_block BENCH_fig1_voter_classification.json
  popd >/dev/null
}

if [[ "$MODE" == "bench-smoke" || "$MODE" == "full" ]]; then
  step "bench smoke (tiny scale, JSON validated)"
  bench_smoke
fi

if [[ "$MODE" == "full" ]]; then
  step "ASan + UBSan build + tests"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
    build_and_test build-asan -DMLCS_SANITIZE=address

  step "TSan build + tests (includes sanitizer_stress_test)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}" \
    build_and_test build-tsan -DMLCS_SANITIZE=thread
fi

step "all checks passed (${MODE})"
