#ifndef MLCS_BENCH_BENCH_MAIN_H_
#define MLCS_BENCH_BENCH_MAIN_H_

// Shared main() for the google-benchmark ablation binaries. Replaces
// BENCHMARK_MAIN() so every bench:
//
//  - writes machine-readable results to BENCH_<name>.json in the working
//    directory (google-benchmark's own JSONReporter format) alongside the
//    usual human-readable console table, and
//  - honors MLCS_BENCH_MIN_TIME (seconds, e.g. "0.01"), letting
//    scripts/check.sh --bench-smoke run every binary at tiny scale without
//    per-binary flag plumbing, and
//  - records the effective thread-pool size ("mlcs_threads" in the JSON
//    context block), so a result file always says what parallelism it was
//    measured at (MLCS_THREADS env or hardware_concurrency), and
//  - records an "mlcs_metrics" block with the full metrics-registry snapshot (plan
//    cache, thread pool, serving, scan bytes, encode counters), so
//    results carry the counters behind their timings.
//
// Usage, at the bottom of the bench .cc file:
//   MLCS_BENCH_MAIN(ablation_protocols)

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "json_util.h"
#include "sql/database.h"

namespace mlcs::bench {

/// Splices the metrics-registry snapshot (as an "mlcs_metrics" object)
/// into an already-written benchmark JSON file's context block — counters
/// are only final after RunSpecifiedBenchmarks returns, past the point
/// where AddCustomContext can help. Best-effort: a file without a context
/// block is left untouched.
inline void InjectMetricsBlock(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string doc = buf.str();
  in.close();
  size_t ctx = doc.find("\"context\": {");
  if (ctx == std::string::npos) return;
  size_t brace = doc.find('{', ctx);
  JsonWriter metrics;
  metrics.BeginObject();
  WriteMetricsBlock(&metrics);
  metrics.EndObject();
  std::string block = metrics.str();
  // Strip the wrapper braces, keeping `"mlcs_metrics": {...}`.
  block = block.substr(1, block.size() - 2);
  doc.insert(brace + 1, "\n    " + block + ",");
  std::ofstream out(path);
  if (out) out << doc;
}

inline int RunBenchmarks(const char* bench_name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Inject env/default flags unless the caller passed their own.
  bool has_min_time = false;
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    std::string a(argv[i]);
    if (a.rfind("--benchmark_min_time", 0) == 0) has_min_time = true;
    if (a.rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string min_time_flag;
  const char* env_min_time = std::getenv("MLCS_BENCH_MIN_TIME");
  if (env_min_time != nullptr && !has_min_time) {
    min_time_flag = std::string("--benchmark_min_time=") + env_min_time;
    args.push_back(min_time_flag.data());
  }
  std::string json_path = std::string("BENCH_") + bench_name + ".json";
  std::string out_flag = "--benchmark_out=" + json_path;
  std::string out_format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(out_format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::AddCustomContext("mlcs_threads",
                              std::to_string(ThreadPool::DefaultThreadCount()));
  size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) {
    InjectMetricsBlock(json_path);
    std::cout << "wrote " << json_path << "\n";
  }
  return ran == 0 ? 1 : 0;
}

}  // namespace mlcs::bench

#define MLCS_BENCH_MAIN(name)                                       \
  int main(int argc, char** argv) {                                 \
    return ::mlcs::bench::RunBenchmarks(#name, argc, argv);         \
  }

#endif  // MLCS_BENCH_BENCH_MAIN_H_
