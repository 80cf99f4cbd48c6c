/// mlcs_bench: the repository benchmark harness (README.md beside this file
/// explains the workloads and metrics). One process runs one workload:
///
///   mlcs_bench --workload=<fig1-rf|transfer|serve-live> --seed=<u64>
///              [--seconds=<s>] [--traced] [--smoke]
///
/// Untraced (the end-to-end pass) it sets the workload up three times
/// (setup_s is their median), runs one warm-up operation, then timed
/// operations until --seconds have passed. Untraced means the product's
/// defaults: the always-on flight recorder keeps recording query spans,
/// obs::SetTracingEnabled stays off.
///
/// --traced (the per-layer pass) sets up once, then alternates untraced and
/// traced operations over --seconds, reads the spans and counters the engine
/// recorded during the traced ones, and finally replays the pipeline's steps
/// through the public functions of each layer (io, client, dataframe, ml,
/// pickle, modelstore), timing every call from outside.
///
/// Every operation is counted, and one that fails or whose output check
/// fails counts in error_rate. Metrics print as `name value unit` lines and
/// go, with quartiles, the seed, the scale, MLCS_THREADS and the
/// metrics-registry snapshot, to BENCH_mlcs_<workload>.json in the working
/// directory. Staged input files live in a mkdtemp directory under the
/// working directory, removed at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bufpool/buffer_pool.h"
#include "client/client.h"
#include "client/inference_client.h"
#include "client/server.h"
#include "client/sqlite_like.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataframe/dataframe.h"
#include "exec/kernels.h"
#include "exec/sort.h"
#include "io/csv.h"
#include "io/h5b.h"
#include "io/npy.h"
#include "ml/matrix.h"
#include "ml/pickle.h"
#include "ml/random_forest.h"
#include "modelstore/model_cache.h"
#include "modelstore/model_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_stats.h"
#include "pipeline/voter_pipeline.h"
#include "serve/inference_server.h"
#include "sql/database.h"

namespace {

using namespace mlcs;
using Clock = std::chrono::steady_clock;
/// Metric name → value, for one operation or one replay.
using LayerValues = std::map<std::string, double>;

constexpr int kSetupRepeats = 3;
/// The traced pass replays the layers' calls this often and reports medians.
constexpr int kReplays = 3;
/// Traced-mode flight-recorder budget: large enough that a traced serving
/// window keeps every batch trace (the 4 MiB default evicts them).
constexpr const char* kTracedRecorderBytes = "268435456";

// -- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 20;
  bool seconds_given = false;
  bool traced = false;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* key) -> const char* {
      size_t n = std::strlen(key);
      if (arg.compare(0, n, key) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value_of("--workload")) {
      out->workload = v;
    } else if (const char* v = value_of("--seed")) {
      char* end = nullptr;
      out->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (const char* v = value_of("--seconds")) {
      char* end = nullptr;
      out->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(out->seconds > 0)) return false;
      out->seconds_given = true;
    } else if (arg == "--traced") {
      out->traced = true;
    } else if (arg == "--smoke") {
      out->smoke = true;
    } else {
      return false;
    }
  }
  if (!out->seconds_given && out->smoke) out->seconds = 1;
  return out->workload == "fig1-rf" || out->workload == "transfer" ||
         out->workload == "serve-live";
}

/// Dataset and model shape of a workload.
struct Scale {
  size_t voters = 0;
  size_t columns = 0;
  size_t precincts = 0;
  int trees = 0;
  int depth = 0;
  /// Bound on the aggregated precinct dem-share error (MAE), checked where
  /// the forest and the test rows per precinct make it meaningful: the
  /// 8-tree forest at full scale measured 0.075-0.093 over 12 seeds. The
  /// transfer workload's single shallow tree (0.10-0.37) and the smoke
  /// scale (~20 test rows per precinct, 0.10-0.19) are checked only for
  /// identical predictions across channels.
  double max_mae = std::numeric_limits<double>::infinity();
};

Scale ScaleFor(const Options& opt) {
  // fig1-rf and serve-live share the Figure-1 forest (8 trees, depth 10).
  // transfer fits 1 tree of depth 4 so load+wrangle dominates every
  // external bar, as it does at the paper's 7.5M rows.
  bool transfer = opt.workload == "transfer";
  Scale s;
  if (opt.smoke) {
    s = {2000, 16, 50, 2, transfer ? 4 : 10};
  } else if (transfer) {
    s = {100000, 96, 2751, 1, 4};
  } else {
    s = {250000, 96, 2751, 8, 10, 0.12};
  }
  return s;
}

pipeline::PipelineConfig ConfigFor(const Scale& scale, uint64_t seed) {
  pipeline::PipelineConfig config;
  config.data.num_voters = scale.voters;
  config.data.num_columns = scale.columns;
  config.data.num_precincts = scale.precincts;
  config.data.seed = seed;
  config.n_estimators = scale.trees;
  config.max_depth = scale.depth;
  config.train_fraction = 0.5;
  config.seed = seed;
  return config;
}

// -- statistics --------------------------------------------------------------

/// Linear-interpolation quantile of unsorted samples (0 when empty).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Nearest-rank percentile — for latency tails, where interpolating
/// between two samples would report a latency no request had.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// -- report and outcome -----------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  // empty for single-valued metrics
};

class Report {
 public:
  void Add(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value, {}});
  }
  /// Median of `samples`; the JSON also carries quartiles and the count.
  void AddSamples(std::string name, std::string unit,
                  std::vector<double> samples) {
    double median = Median(samples);
    metrics_.push_back(
        {std::move(name), std::move(unit), median, std::move(samples)});
  }
  void Warn(std::string message) {
    std::fprintf(stderr, "warning: %s\n", message.c_str());
    warnings_.push_back(std::move(message));
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> warnings_;
};

/// Operations attempted and failed; an operation is a channel run, a served
/// request or a model publish, and it fails on a non-OK status or a failed
/// output check. Not thread-safe: serving threads keep their own and merge.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few messages

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void Record(const Status& st, const std::string& what) {
    Record(st.ok(), st.ok() ? what : what + ": " + st.ToString());
  }
  void Merge(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 10) failures.push_back(f);
    }
  }
};

/// The unit of a per-layer metric, from its name's suffix (`_s` seconds,
/// `_bytes`, `_ratio`, ...); a bare name such as `bufpool.hits` is a count.
std::string UnitOf(const std::string& name) {
  auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  static const std::pair<const char*, const char*> kSuffixes[] = {
      {"_ms", "ms"},          {"_us", "us"},      {"_s", "s"},
      {"_bytes", "bytes"},    {"_ratio", "ratio"}, {"_pct", "%"},
      {"_per_batch", "ratio"}, {".rps", "1/s"},
  };
  for (const auto& [suffix, unit] : kSuffixes) {
    if (ends_with(suffix)) return unit;
  }
  if (name.find(".coverage_") != std::string::npos) return "ratio";
  return "count";
}

/// Emits the per-layer values a workload measured. Keys that start with
/// '~' are intermediate values and never emitted. A layer the workload
/// leaves idle has no values here; run.py reports its metrics as 0.
void AddLayerMetrics(const LayerValues& values, Report* report) {
  for (const auto& [name, value] : values) {
    if (name[0] != '~') report->Add(name, UnitOf(name), value);
  }
}

/// Per-key median over the values of several operations (a key missing
/// from an operation counts as 0 there).
LayerValues MedianPerKey(const std::vector<LayerValues>& ops) {
  std::map<std::string, std::vector<double>> columns;
  for (const LayerValues& op : ops) {
    for (const auto& [k, v] : op) columns[k];
  }
  for (const LayerValues& op : ops) {
    for (auto& [k, col] : columns) {
      auto it = op.find(k);
      col.push_back(it == op.end() ? 0.0 : it->second);
    }
  }
  LayerValues out;
  for (const auto& [k, col] : columns) out[k] = Median(col);
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// -- engine observation ----------------------------------------------------

/// Counter and gauge values of the global metrics registry.
std::map<std::string, double> TakeCounters() {
  std::map<std::string, double> out;
  for (const obs::MetricSample& s :
       obs::MetricsRegistry::Global().Snapshot()) {
    if (s.kind == "counter") out[s.name] = s.value;
  }
  return out;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

/// Bucket counts of one wait site (summed over duplicate claims).
struct WaitBuckets {
  std::vector<uint64_t> counts =
      std::vector<uint64_t>(obs::WaitSite::kNumBounds + 1, 0);
  uint64_t total = 0;
};

WaitBuckets ReadWaitSite(obs::WaitKind kind, const char* name) {
  WaitBuckets out;
  for (const obs::WaitSite* site : obs::WaitStats::Global().Sites()) {
    if (site->kind() != kind || std::strcmp(site->name(), name) != 0) {
      continue;
    }
    for (size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] += site->BucketCount(i);
    }
    out.total += site->Count();
  }
  return out;
}

/// p99 (µs) of the waits a site recorded between two readings.
double WaitP99Us(const WaitBuckets& before, const WaitBuckets& after) {
  std::vector<uint64_t> delta(after.counts.size());
  uint64_t total = 0;
  for (size_t i = 0; i < delta.size(); ++i) {
    delta[i] = after.counts[i] - before.counts[i];
    total += delta[i];
  }
  return obs::EstimateQuantiles(obs::WaitSite::BoundsUs(),
                                obs::WaitSite::kNumBounds, delta.data(),
                                total)
      .p99;
}

/// The counters and wait sites the per-layer metrics difference.
struct EngineReading {
  std::map<std::string, double> counters;
  WaitBuckets bufpool_load;
  WaitBuckets pool_dispatch;
};

EngineReading ReadEngine() {
  EngineReading r;
  r.counters = TakeCounters();
  r.bufpool_load = ReadWaitSite(obs::WaitKind::kBufpool, "load");
  r.pool_dispatch = ReadWaitSite(obs::WaitKind::kPool, "dispatch");
  return r;
}

/// Per-layer values from the counter and wait-site deltas between two
/// readings, divided by `per` (operations, or seconds of serving).
LayerValues EngineDeltas(const EngineReading& a, const EngineReading& b,
                         double per) {
  auto d = [&](const char* name) {
    return Delta(a.counters, b.counters, name);
  };
  LayerValues v;
  double hits = d("mlcs.bufpool.hits");
  double misses = d("mlcs.bufpool.misses");
  v["bufpool.hits"] = hits / per;
  v["bufpool.misses"] = misses / per;
  v["bufpool.hit_ratio"] = Ratio(hits, hits + misses);
  v["bufpool.read_bytes"] = d("mlcs.bufpool.bytes_read") / per;
  v["bufpool.evictions"] = d("mlcs.bufpool.evictions") / per;
  v["bufpool.pin_io_p99_us"] = WaitP99Us(a.bufpool_load, b.bufpool_load);
  double plan_hits = d("mlcs.plan_cache.hits");
  v["sql.plan_cache_hit_ratio"] =
      Ratio(plan_hits, plan_hits + d("mlcs.plan_cache.misses"));
  v["exec.scan_bytes"] = d("mlcs.scan.bytes_touched") / per;
  double cache_hits = d("mlcs.model_cache.hits");
  double cache_misses = d("mlcs.model_cache.misses");
  v["modelstore.cache_hit_ratio"] =
      Ratio(cache_hits, cache_hits + cache_misses);
  v["modelstore.cache_misses"] = cache_misses / per;
  v["serve.rejected"] = d("mlcs.serve.rejected_overload") / per;
  v["serve.requests_per_batch"] = Ratio(d("mlcs.serve.batched_requests"),
                                        d("mlcs.serve.batches_executed"));
  v["threadpool.tasks"] = d("mlcs.threadpool.tasks_completed") / per;
  v["threadpool.dispatch_wait_p99_us"] =
      WaitP99Us(a.pool_dispatch, b.pool_dispatch);
  v["~recorder.evicted"] = d("mlcs.trace.evicted_traces");
  return v;
}

/// Which Figure-1 stage a recorded query belongs to, from its SQL text.
std::string StageOfQuery(const std::string& sql) {
  if (sql.find("train_voter_rf") != std::string::npos) return "train";
  if (sql.find("voter_predictions") != std::string::npos) return "predict";
  return "other";
}

/// The exec metric an operator span counts toward, from its label.
std::string ExecMetricOfLabel(const std::string& label) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"SCAN", "exec.scan_s"},
      {"FILTER", "exec.filter_s"},
      {"HAVING", "exec.filter_s"},
      {"HASH JOIN", "exec.join_s"},
      {"LEFT JOIN", "exec.join_s"},
      {"PROJECT", "exec.project_s"},
      {"AGGREGATE", "exec.aggregate_s"},
      {"TABLE FUNCTION", "exec.table_function_s"},
  };
  for (const auto& [prefix, metric] : kPrefixes) {
    if (label.rfind(prefix, 0) == 0) return metric;
  }
  return "exec.other_s";
}

double Seconds(std::chrono::nanoseconds d) {
  return std::chrono::duration<double>(d).count();
}

/// Sums the spans the flight recorder holds into per-layer self time.
/// Query traces feed `sql.*`, `exec.*` and `udf.*` and, per Figure-1 stage,
/// `~self.<stage>`: the self time of every span but the root and the UDF
/// calls (whose inside the replay times layer by layer). Serving traces
/// feed `serve.predict_s` (mean span) and `serve.queue_wait_p99_us`.
LayerValues SummarizeRecordedSpans() {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  std::map<uint64_t, std::string> stage_of;
  std::map<uint64_t, bool> serving;
  for (const obs::RecordedTrace& t : recorder.RecentTraces(SIZE_MAX)) {
    stage_of[t.trace_id] = StageOfQuery(t.query_text);
    serving[t.trace_id] = t.root_name == "serve.batch";
  }
  std::vector<obs::TraceSpan> spans = recorder.Query(0);
  // Child durations per (trace, parent span), for self time.
  std::map<std::pair<uint64_t, uint32_t>, double> child_seconds;
  for (const obs::TraceSpan& s : spans) {
    if (s.parent_id != 0) {
      child_seconds[{s.trace_id, s.parent_id}] += Seconds(s.duration);
    }
  }
  LayerValues v;
  std::vector<double> admission_us;
  std::vector<double> predict_s;
  for (const obs::TraceSpan& s : spans) {
    if (s.parent_id == 0) continue;  // the root: the query or batch itself
    double total = Seconds(s.duration);
    double self = std::max(0.0, total - child_seconds[{s.trace_id, s.span_id}]);
    if (serving[s.trace_id]) {
      if (s.name == "serve.admission") admission_us.push_back(total * 1e6);
      if (s.name == "serve.predict") predict_s.push_back(total);
      continue;
    }
    if (s.name.rfind("udf:", 0) == 0) {
      // Every UDF call counts; the two Figure-1 model UDFs are timed.
      v["udf.calls"] += 1;
      if (s.name == "udf:train_voter_rf" || s.name == "udf:predict_voter_rf") {
        v["udf." + s.name.substr(4) + "_s"] += total;
      }
      continue;
    }
    if (s.name == "sql.parse" || s.name == "sql.plan" ||
        s.name == "sql.optimize") {
      v[s.name + "_s"] += self;
    } else if (s.name != "model_cache.load") {
      // Whenever operators ran, the catch-all reports too, if only 0.
      v.try_emplace("exec.other_s", 0.0);
      v[ExecMetricOfLabel(s.name)] += self;
    }
    v["~self." + stage_of[s.trace_id]] += self;
  }
  if (!predict_s.empty()) {
    double sum = 0;
    for (double p : predict_s) sum += p;
    v["serve.predict_s"] = sum / static_cast<double>(predict_s.size());
  }
  if (!admission_us.empty()) {
    v["serve.queue_wait_p99_us"] = Percentile(admission_us, 0.99);
  }
  return v;
}

// -- output checks -----------------------------------------------------------

Result<TablePtr> SortedPredictions(const pipeline::PipelineResult& r) {
  if (r.precinct_predictions == nullptr) {
    return Status::Internal(r.method + " returned no predictions");
  }
  return exec::SortTable(*r.precinct_predictions, {{"precinct_id", false}});
}

/// A channel's predictions must equal the reference bit for bit and stay
/// within `max_mae` of the true precinct shares.
void CheckChannel(const pipeline::PipelineResult& r, const TablePtr& reference,
                  double max_mae, Outcome* outcome) {
  auto sorted = SortedPredictions(r);
  if (!sorted.ok()) {
    outcome->Record(sorted.status(), r.method);
    return;
  }
  bool same = reference == nullptr || reference->Equals(*sorted.ValueOrDie());
  char mae[64];
  std::snprintf(mae, sizeof(mae), "%.4f", r.precinct_share_mae);
  outcome->Record(same && r.precinct_share_mae <= max_mae,
                  r.method + (same ? "" : ": predictions differ from the "
                                          "in-database channel") +
                      " (mae " + mae + ")");
}

// -- replay of the pipeline's steps through each layer's public calls -------

/// Feature columns of a wrangled voter table: all but the id, the label
/// and the split mask, in table order (the order the pipeline uses).
std::vector<std::string> FeatureNames(const Schema& wrangled) {
  std::vector<std::string> names;
  for (size_t i = 0; i < wrangled.num_fields(); ++i) {
    const std::string& n = wrangled.field(i).name;
    if (n != "voter_id" && n != "label" && n != "is_train") names.push_back(n);
  }
  return names;
}

struct Split {
  dataframe::DataFrame train;
  dataframe::DataFrame test;
};

Result<Split> SplitWrangled(const dataframe::DataFrame& wrangled) {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr mask, wrangled.Column("is_train"));
  MLCS_ASSIGN_OR_RETURN(ColumnPtr not_mask,
                        exec::UnaryKernel(exec::UnOpKind::kNot, *mask));
  Split s;
  MLCS_ASSIGN_OR_RETURN(s.train, wrangled.Filter(*mask));
  MLCS_ASSIGN_OR_RETURN(s.test, wrangled.Filter(*not_mask));
  return s;
}

Result<std::vector<ColumnPtr>> Columns(const dataframe::DataFrame& df,
                                       const std::vector<std::string>& names) {
  std::vector<ColumnPtr> out;
  for (const std::string& n : names) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr c, df.Column(n));
    out.push_back(std::move(c));
  }
  return out;
}

ml::RandomForestOptions ForestOptions(const pipeline::PipelineConfig& config,
                                      uint64_t seed) {
  ml::RandomForestOptions opt;
  opt.n_estimators = config.n_estimators;
  opt.max_depth = config.max_depth;
  opt.seed = seed;
  return opt;
}

/// Per-precinct aggregate of test-row predictions, as every channel builds it.
Result<TablePtr> AggregateByPrecinct(const dataframe::DataFrame& test,
                                     ml::Labels pred) {
  dataframe::DataFrame pred_df(test.table());
  MLCS_RETURN_IF_ERROR(
      pred_df.AddColumn("pred", Column::FromInt32(std::move(pred))));
  MLCS_ASSIGN_OR_RETURN(
      dataframe::DataFrame aggregated,
      pred_df.GroupBy({"precinct_id"},
                      {{exec::AggOp::kSum, "pred", "pred_dem"},
                       {exec::AggOp::kCountStar, "", "n"}}));
  return exec::SortTable(*aggregated.table(), {{"precinct_id", false}});
}

template <typename Fn>
auto Timed(double* seconds, Fn&& fn) {
  WallTimer t;
  auto result = fn();
  *seconds += t.ElapsedSeconds();
  return result;
}

/// Replays the in-database channel's train and predict stages outside the
/// engine: the same matrix builds, fit, pickle round trip and predict the
/// UDFs perform, each timed, on the split WranglingSql() produces. The
/// aggregated predictions must equal the in-database channel's
/// (`reference`). `traced` holds the traced operations' medians, from
/// which the stage coverage ratios are formed.
void ReplayInDatabase(Database* db, const pipeline::PipelineConfig& config,
                      const TablePtr& reference, const LayerValues& traced,
                      LayerValues* v, Outcome* outcome) {
  auto run = [&]() -> Status {
    MLCS_RETURN_IF_ERROR(pipeline::RegisterVoterUdfs(db));
    MLCS_ASSIGN_OR_RETURN(TablePtr wrangled,
                          db->Query(pipeline::WranglingSql(config)));
    std::vector<std::string> features = FeatureNames(wrangled->schema());
    MLCS_ASSIGN_OR_RETURN(Split split,
                          SplitWrangled(dataframe::DataFrame(wrangled)));
    MLCS_ASSIGN_OR_RETURN(std::vector<ColumnPtr> train_cols,
                          Columns(split.train, features));
    MLCS_ASSIGN_OR_RETURN(std::vector<ColumnPtr> test_cols,
                          Columns(split.test, features));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr label, split.train.Column("label"));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr labels, label->CastTo(TypeId::kInt32));
    if (labels->is_encoded()) labels = labels->Decode();

    double matrix_train = 0, fit = 0, dumps = 0, loads = 0, matrix_test = 0,
           predict = 0;
    MLCS_ASSIGN_OR_RETURN(ml::Matrix x, Timed(&matrix_train, [&] {
      return ml::Matrix::FromColumns(train_cols);
    }));
    ml::RandomForest forest(ForestOptions(config, config.seed));
    MLCS_RETURN_IF_ERROR(
        Timed(&fit, [&] { return forest.Fit(x, labels->i32_data()); }));
    std::string blob = Timed(&dumps, [&] { return ml::pickle::Dumps(forest); });
    MLCS_ASSIGN_OR_RETURN(ml::ModelPtr model, Timed(&loads, [&] {
      return ml::pickle::Loads(blob);
    }));
    MLCS_ASSIGN_OR_RETURN(ml::Matrix x_test, Timed(&matrix_test, [&] {
      return ml::Matrix::FromColumns(test_cols);
    }));
    MLCS_ASSIGN_OR_RETURN(ml::Labels pred, Timed(&predict, [&] {
      return model->Predict(x_test);
    }));

    (*v)["ml.matrix_s"] = matrix_train + matrix_test;
    (*v)["ml.fit_s"] = fit;
    (*v)["ml.predict_s"] = predict;
    (*v)["pickle.dumps_s"] = dumps;
    (*v)["pickle.loads_s"] = loads;
    (*v)["pickle.model_bytes"] = static_cast<double>(blob.size());
    auto at = [&](const char* k) {
      auto it = traced.find(k);
      return it == traced.end() ? 0.0 : it->second;
    };
    (*v)["pipeline.coverage_train"] =
        Ratio(at("~self.train") + matrix_train + fit + dumps,
              at("pipeline.train_s"));
    (*v)["pipeline.coverage_predict"] =
        Ratio(at("~self.predict") + loads + matrix_test + predict,
              at("pipeline.predict_s"));

    MLCS_ASSIGN_OR_RETURN(TablePtr aggregated,
                          AggregateByPrecinct(split.test, std::move(pred)));
    if (reference != nullptr && !reference->Equals(*aggregated)) {
      return Status::Internal(
          "replayed predictions differ from the in-database channel");
    }
    return Status::OK();
  };
  outcome->Record(run(), "in-database replay");
}

// -- batch workloads: fig1-rf and transfer ----------------------------------

/// One timed operation of a batch workload: its latency and the values it
/// measured itself (pipeline stages, per-channel bars, LoadFrom time).
struct OpSample {
  double seconds = 0;
  LayerValues values;
};

class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// Builds the workload's inputs from scratch, replacing earlier ones.
  virtual Status Setup() = 0;
  /// One operation. Its channel runs and output checks land in `outcome`;
  /// a non-OK status means it could not run at all, which the caller
  /// counts as one failed operation.
  virtual Status RunOnce(OpSample* out, Outcome* outcome) = 0;
  /// Times the layers' public calls once (traced pass only); `traced`
  /// holds the traced operations' medians, for the coverage ratios.
  virtual void Replay(const LayerValues& traced, LayerValues* v,
                      Outcome* outcome) = 0;
  /// Detail metrics of the end-to-end pass, from the timed operations.
  virtual void AddDetails(const std::vector<OpSample>& ops,
                          Report* report) = 0;
};

std::vector<double> Samples(const std::vector<OpSample>& ops,
                           const std::string& key) {
  std::vector<double> out;
  for (const OpSample& op : ops) {
    auto it = op.values.find(key);
    if (it != op.values.end()) out.push_back(it->second);
  }
  return out;
}

/// The in-database bar's stages, as the pipeline timed them.
void AddInDbStages(const pipeline::PipelineResult& r, LayerValues* v) {
  (*v)["pipeline.wrangle_s"] = r.load_wrangle_seconds;
  (*v)["pipeline.train_s"] = r.train_seconds;
  (*v)["pipeline.predict_s"] = r.predict_seconds;
  (*v)["pipeline.bar_s"] = r.total_seconds;
}

/// fig1-rf: the in-database channel over the in-memory catalog.
///
/// The bar's cost depends on the data: one seed's dataset measured ~10%
/// slower than another's, run after run. So the end-to-end pass loads
/// kDatasets datasets (seeds kDatasets*seed + i, for data and training
/// alike) and cycles through them, and a run's median covers all of them.
/// The traced pass uses only the first, so its layer times and coverage
/// ratios describe one dataset and one forest.
class Fig1Workload : public BatchWorkload {
 public:
  static constexpr uint64_t kDatasets = 3;

  Fig1Workload(const pipeline::PipelineConfig& config, double max_mae,
               bool traced)
      : max_mae_(max_mae) {
    for (uint64_t i = 0; i < (traced ? 1 : kDatasets); ++i) {
      Variant v;
      v.config = config;
      v.config.seed = v.config.data.seed = config.seed * kDatasets + i;
      variants_.push_back(std::move(v));
    }
  }

  Status Setup() override {
    for (Variant& v : variants_) {
      v.db.reset();
      v.db = std::make_unique<Database>();
      MLCS_RETURN_IF_ERROR(pipeline::LoadVoterData(v.db.get(), v.config));
    }
    return Status::OK();
  }

  Status RunOnce(OpSample* out, Outcome* outcome) override {
    Variant& v = variants_[runs_++ % variants_.size()];
    auto r = pipeline::RunInDatabase(v.db.get(), v.config);
    if (!r.ok()) return r.status();
    const pipeline::PipelineResult& res = r.ValueOrDie();
    if (v.reference == nullptr) {
      auto sorted = SortedPredictions(res);
      if (sorted.ok()) v.reference = sorted.ValueOrDie();
    }
    CheckChannel(res, v.reference, max_mae_, outcome);
    out->seconds = res.total_seconds;
    AddInDbStages(res, &out->values);
    return Status::OK();
  }

  void Replay(const LayerValues& traced, LayerValues* v,
              Outcome* outcome) override {
    const Variant& first = variants_[0];
    ReplayInDatabase(first.db.get(), first.config, first.reference, traced,
                     v, outcome);
  }

  void AddDetails(const std::vector<OpSample>& ops, Report* report) override {
    report->AddSamples("bar_s", "s", Samples(ops, "pipeline.bar_s"));
    report->AddSamples("wrangle_s", "s", Samples(ops, "pipeline.wrangle_s"));
    report->AddSamples("train_s", "s", Samples(ops, "pipeline.train_s"));
    report->AddSamples("predict_s", "s", Samples(ops, "pipeline.predict_s"));
  }

 private:
  struct Variant {
    pipeline::PipelineConfig config;
    std::unique_ptr<Database> db;
    TablePtr reference;  // sorted predictions of its first run
  };
  std::vector<Variant> variants_;
  const double max_mae_;
  size_t runs_ = 0;
};

/// A scratch directory under the working directory, removed on destruction.
class StagingDir {
 public:
  StagingDir() {
    char tmpl[] = "mlcs_bench_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) {
      path_ = std::filesystem::absolute(tmpl).string();
    }
  }
  ~StagingDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  StagingDir(const StagingDir&) = delete;
  StagingDir& operator=(const StagingDir&) = delete;

  bool ok() const { return !path_.empty(); }
  std::string operator/(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

const client::WireProtocol kProtocols[] = {client::WireProtocol::kPgText,
                                           client::WireProtocol::kMyBinary,
                                           client::WireProtocol::kColumnar};
const char* const kProtocolMetric[] = {"pg_text", "my_binary", "columnar"};

/// transfer: all eight Figure-1 channels per pass against block files and
/// staged CSV / npy / h5b inputs, with a buffer pool smaller than the
/// voters table so every scan misses and evicts.
class TransferWorkload : public BatchWorkload {
 public:
  TransferWorkload(pipeline::PipelineConfig config, double max_mae,
                   const StagingDir* dir)
      : config_(std::move(config)), max_mae_(max_mae), dir_(*dir) {}

  Status Setup() override {
    MLCS_ASSIGN_OR_RETURN(TablePtr voters, io::GenerateVoters(config_.data));
    MLCS_ASSIGN_OR_RETURN(TablePtr precincts,
                          io::GeneratePrecincts(config_.data));
    voter_schema_ = voters->schema();
    precinct_schema_ = precincts->schema();
    for (const char* sub : {"voters_npy", "precincts_npy"}) {
      std::filesystem::create_directories(dir_ / sub);
    }
    MLCS_RETURN_IF_ERROR(io::WriteCsv(*voters, dir_ / "voters.csv"));
    MLCS_RETURN_IF_ERROR(io::WriteCsv(*precincts, dir_ / "precincts.csv"));
    MLCS_RETURN_IF_ERROR(io::SaveTableAsNpyDir(*voters, dir_ / "voters_npy"));
    MLCS_RETURN_IF_ERROR(
        io::SaveTableAsNpyDir(*precincts, dir_ / "precincts_npy"));
    MLCS_RETURN_IF_ERROR(io::WriteH5b(*voters, dir_ / "voters.h5b"));
    MLCS_RETURN_IF_ERROR(io::WriteH5b(*precincts, dir_ / "precincts.h5b"));
    Database db;
    MLCS_RETURN_IF_ERROR(db.catalog().CreateTable("voters", voters));
    MLCS_RETURN_IF_ERROR(db.catalog().CreateTable("precincts", precincts));
    MLCS_RETURN_IF_ERROR(db.SaveTo(dir_ / "db"));
    // Half the voters table's block files: scans cannot stay resident.
    bufpool::BufferPool::Global().set_byte_budget(
        std::max<uint64_t>(DirectoryBytes(dir_ / "db/voters") / 2, 1));
    return Status::OK();
  }

  Status RunOnce(OpSample* out, Outcome* outcome) override {
    WallTimer load_from;
    Database db;
    MLCS_RETURN_IF_ERROR(db.LoadFrom(dir_ / "db"));
    out->values["bufpool.load_from_s"] = load_from.ElapsedSeconds();
    MLCS_RETURN_IF_ERROR(pipeline::RegisterVoterUdfs(&db));
    client::TableServer server(&db);
    MLCS_RETURN_IF_ERROR(server.Start(0));

    // The socket channels and the row cursor scan the disk-backed tables
    // through the buffer pool; the in-database channel, which runs next,
    // promotes them to resident.
    std::vector<Result<pipeline::PipelineResult>> runs;
    for (client::WireProtocol p : kProtocols) {
      runs.push_back(
          pipeline::RunFromSocket("127.0.0.1", server.port(), p, config_));
    }
    runs.push_back(pipeline::RunSqliteLike(&db, config_));
    server.Stop();
    runs.push_back(pipeline::RunInDatabase(&db, config_));
    runs.push_back(pipeline::RunFromNpyDir(dir_ / "voters_npy",
                                           dir_ / "precincts_npy", config_));
    runs.push_back(pipeline::RunFromH5b(dir_ / "voters.h5b",
                                        dir_ / "precincts.h5b", config_));
    runs.push_back(pipeline::RunFromCsv(dir_ / "voters.csv",
                                        dir_ / "precincts.csv", config_));
    constexpr size_t kInDb = 4;

    if (runs[kInDb].ok() && reference_ == nullptr) {
      auto sorted = SortedPredictions(runs[kInDb].ValueOrDie());
      if (sorted.ok()) reference_ = sorted.ValueOrDie();
    }
    double bars = 0, wrangles = 0, external_loads = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i].ok()) {
        outcome->Record(runs[i].status(), "transfer channel " +
                                              std::to_string(i));
        continue;
      }
      const pipeline::PipelineResult& r = runs[i].ValueOrDie();
      CheckChannel(r, reference_, max_mae_, outcome);
      bars += r.total_seconds;
      wrangles += r.load_wrangle_seconds;
      if (i != kInDb) external_loads += r.load_wrangle_seconds;
      out->values["~bar." + r.method] = r.total_seconds;
      out->values["~wrangle." + r.method] = r.load_wrangle_seconds;
      if (i == kInDb) AddInDbStages(r, &out->values);
    }
    out->seconds = bars;
    out->values["pipeline.wrangle_sum_s"] = wrangles;
    out->values["pipeline.bars_sum_s"] = bars;
    out->values["~external_load_s"] = external_loads;
    return Status::OK();
  }

  void Replay(const LayerValues& traced, LayerValues* v,
              Outcome* outcome) override {
    ReplayExternal(v, outcome);
    Database db;
    Status st = db.LoadFrom(dir_ / "db");
    outcome->Record(st, "replay attach");
    if (!st.ok()) return;
    ReplayClient(&db, v, outcome);
    ReplayInDatabase(&db, config_, reference_, traced, v, outcome);
    double client = 0;
    for (const char* k : {"client.pg_text_query_s", "client.my_binary_query_s",
                          "client.columnar_query_s", "client.row_cursor_s"}) {
      client += (*v)[k];
    }
    // The three file channels each load, merge, label and filter; the
    // four database channels each fetch the server-side wrangle.
    double files = (*v)["io.csv_read_s"] + (*v)["io.npy_read_s"] +
                   (*v)["io.h5b_read_s"] +
                   3 * ((*v)["dataframe.merge_s"] + (*v)["~label_s"] +
                        (*v)["dataframe.filter_s"]);
    auto it = traced.find("~external_load_s");
    (*v)["pipeline.coverage_load"] =
        Ratio(files + client, it == traced.end() ? 0.0 : it->second);
  }

  void AddDetails(const std::vector<OpSample>& ops, Report* report) override {
    report->AddSamples("bar_s", "s", Samples(ops, "pipeline.bar_s"));
    report->AddSamples("wrangle_sum_s", "s",
                       Samples(ops, "pipeline.wrangle_sum_s"));
    report->AddSamples("bars_sum_s", "s", Samples(ops, "pipeline.bars_sum_s"));
    if (ops.empty()) return;
    for (const auto& [key, value] : ops.front().values) {
      if (key.rfind("~bar.", 0) == 0) {
        std::string method = key.substr(5);
        report->AddSamples("channel." + method + ".bar_s", "s",
                           Samples(ops, key));
        report->AddSamples("channel." + method + ".wrangle_s", "s",
                           Samples(ops, "~wrangle." + method));
      }
    }
  }

 private:
  /// The file channels' load and wrangle, step by step, then their tail;
  /// the result must equal the in-database channel's predictions.
  void ReplayExternal(LayerValues* v, Outcome* outcome) {
    auto run = [&]() -> Status {
      double csv = 0, npy = 0, h5b = 0, merge = 0, label_s = 0, filter = 0,
             to_matrix = 0, groupby = 0;
      MLCS_ASSIGN_OR_RETURN(TablePtr cv, Timed(&csv, [&] {
        return io::ReadCsv(dir_ / "voters.csv", voter_schema_);
      }));
      MLCS_ASSIGN_OR_RETURN(TablePtr cp, Timed(&csv, [&] {
        return io::ReadCsv(dir_ / "precincts.csv", precinct_schema_);
      }));
      MLCS_ASSIGN_OR_RETURN(TablePtr voters, Timed(&npy, [&] {
        return io::LoadTableFromNpyDir(dir_ / "voters_npy");
      }));
      MLCS_ASSIGN_OR_RETURN(TablePtr precincts, Timed(&npy, [&] {
        return io::LoadTableFromNpyDir(dir_ / "precincts_npy");
      }));
      MLCS_ASSIGN_OR_RETURN(TablePtr hv, Timed(&h5b, [&] {
        return io::ReadH5b(dir_ / "voters.h5b");
      }));
      MLCS_ASSIGN_OR_RETURN(TablePtr hp, Timed(&h5b, [&] {
        return io::ReadH5b(dir_ / "precincts.h5b");
      }));
      if (!cv->Equals(*voters) || !hv->Equals(*voters) ||
          !cp->Equals(*precincts) || !hp->Equals(*precincts)) {
        return Status::Internal("csv / npy / h5b inputs read back differently");
      }

      dataframe::DataFrame vdf(voters);
      MLCS_ASSIGN_OR_RETURN(dataframe::DataFrame joined, Timed(&merge, [&] {
        return vdf.Merge(dataframe::DataFrame(precincts), {"precinct_id"});
      }));
      auto add_label_and_mask = [&]() -> Status {
        MLCS_ASSIGN_OR_RETURN(ColumnPtr id, joined.Column("voter_id"));
        MLCS_ASSIGN_OR_RETURN(ColumnPtr dem, joined.Column("dem_votes"));
        MLCS_ASSIGN_OR_RETURN(ColumnPtr rep, joined.Column("rep_votes"));
        MLCS_RETURN_IF_ERROR(joined.AddColumn(
            "label", pipeline::GenerateLabelColumn(*id, *dem, *rep,
                                                   config_.seed)));
        return joined.AddColumn(
            "is_train", pipeline::SplitMaskColumn(*id, config_.seed,
                                                  config_.train_fraction));
      };
      MLCS_RETURN_IF_ERROR(Timed(&label_s, add_label_and_mask));
      MLCS_ASSIGN_OR_RETURN(Split split, Timed(&filter, [&] {
        return SplitWrangled(joined);
      }));
      std::vector<std::string> features = FeatureNames(voters->schema());
      MLCS_ASSIGN_OR_RETURN(ml::Matrix x, Timed(&to_matrix, [&] {
        return split.train.ToMatrix(features);
      }));
      MLCS_ASSIGN_OR_RETURN(ml::Labels y, split.train.LabelColumn("label"));
      ml::RandomForest forest(ForestOptions(config_, config_.seed));
      MLCS_RETURN_IF_ERROR(forest.Fit(x, y));
      MLCS_ASSIGN_OR_RETURN(ml::Matrix x_test, Timed(&to_matrix, [&] {
        return split.test.ToMatrix(features);
      }));
      MLCS_ASSIGN_OR_RETURN(ml::Labels pred, forest.Predict(x_test));
      MLCS_ASSIGN_OR_RETURN(TablePtr aggregated, Timed(&groupby, [&] {
        return AggregateByPrecinct(split.test, std::move(pred));
      }));
      (*v)["io.csv_read_s"] = csv;
      (*v)["io.npy_read_s"] = npy;
      (*v)["io.h5b_read_s"] = h5b;
      (*v)["dataframe.merge_s"] = merge;
      (*v)["~label_s"] = label_s;
      (*v)["dataframe.filter_s"] = filter;
      (*v)["dataframe.to_matrix_s"] = to_matrix;
      (*v)["dataframe.groupby_s"] = groupby;
      if (reference_ != nullptr && !reference_->Equals(*aggregated)) {
        return Status::Internal(
            "replayed file-channel predictions differ from the channels'");
      }
      return Status::OK();
    };
    outcome->Record(run(), "file-channel replay");
  }

  /// The database channels' fetch of the server-side wrangle: each wire
  /// protocol over a socket, then the in-process row cursor.
  void ReplayClient(Database* db, LayerValues* v, Outcome* outcome) {
    auto run = [&]() -> Status {
      MLCS_RETURN_IF_ERROR(pipeline::RegisterVoterUdfs(db));
      client::TableServer server(db);
      MLCS_RETURN_IF_ERROR(server.Start(0));
      std::string sql = pipeline::WranglingSql(config_);
      client::TableClient tcp;
      MLCS_RETURN_IF_ERROR(tcp.Connect("127.0.0.1", server.port()));
      TablePtr first;
      for (size_t i = 0; i < std::size(kProtocols); ++i) {
        double s = 0;
        MLCS_ASSIGN_OR_RETURN(TablePtr t, Timed(&s, [&] {
          return tcp.Query(sql, kProtocols[i]);
        }));
        std::string m = std::string("client.") + kProtocolMetric[i];
        (*v)[m + "_query_s"] = s;
        (*v)[m + "_bytes"] = static_cast<double>(tcp.last_response_bytes());
        if (first == nullptr) first = t;
        if (!first->Equals(*t)) {
          return Status::Internal(std::string(kProtocolMetric[i]) +
                                  " result differs from pg_text's");
        }
      }
      tcp.Disconnect();
      server.Stop();
      double s = 0;
      MLCS_ASSIGN_OR_RETURN(TablePtr rows, Timed(&s, [&] {
        return client::FetchAllRowAtATime(db, sql);
      }));
      (*v)["client.row_cursor_s"] = s;
      if (!first->Equals(*rows)) {
        return Status::Internal("row-cursor result differs from pg_text's");
      }
      return Status::OK();
    };
    outcome->Record(run(), "client replay");
  }

  const pipeline::PipelineConfig config_;
  const double max_mae_;
  const StagingDir& dir_;
  Schema voter_schema_;
  Schema precinct_schema_;
  TablePtr reference_;
};

/// Runs a batch workload's end-to-end or per-layer pass.
void RunBatch(BatchWorkload* w, const Options& opt, Report* report,
              Outcome* outcome) {
  // A failed setup, or an operation that could not run at all, counts as
  // one failed operation.
  auto ok = [&](const Status& st, const char* what) {
    if (!st.ok()) outcome->Record(st, what);
    return st.ok();
  };
  std::vector<double> setups;
  for (int i = 0; i < (opt.traced ? 1 : kSetupRepeats); ++i) {
    WallTimer t;
    if (!ok(w->Setup(), "setup")) return;
    setups.push_back(t.ElapsedSeconds());
  }
  OpSample warm;
  if (!ok(w->RunOnce(&warm, outcome), "warm-up")) return;

  // Untraced-only, or alternating untraced / traced, until the time is up
  // and each kind has run at least once.
  std::vector<OpSample> plain;
  std::vector<OpSample> traced;
  std::vector<LayerValues> traced_layers;
  WallTimer clock;
  size_t runs = 0;
  while (clock.ElapsedSeconds() < opt.seconds || runs < (opt.traced ? 2 : 1)) {
    bool traced_turn = opt.traced && runs % 2 == 1;
    ++runs;
    OpSample s;
    if (!traced_turn) {
      if (ok(w->RunOnce(&s, outcome), "timed operation")) {
        plain.push_back(std::move(s));
      }
      continue;
    }
    obs::FlightRecorder::Global().Clear();
    EngineReading before = ReadEngine();
    obs::SetTracingEnabled(true);
    Status st = w->RunOnce(&s, outcome);
    obs::SetTracingEnabled(false);
    if (!ok(st, "traced operation")) continue;
    LayerValues layers = EngineDeltas(before, ReadEngine(), 1.0);
    for (const auto& [k, val] : SummarizeRecordedSpans()) layers[k] += val;
    for (const auto& [k, val] : s.values) layers[k] = val;
    traced_layers.push_back(std::move(layers));
    traced.push_back(std::move(s));
  }
  double elapsed = clock.ElapsedSeconds();
  // With no successful operation there is nothing to report: the run
  // fails rather than reporting a latency of 0.
  if (plain.empty() || (opt.traced && traced.empty())) {
    outcome->Record(false, "no timed operation succeeded");
    return;
  }

  if (!opt.traced) {
    std::vector<double> latencies_ms;
    for (const OpSample& s : plain) latencies_ms.push_back(s.seconds * 1e3);
    report->AddSamples("setup_s", "s", setups);
    report->AddSamples("latency_ms", "ms", latencies_ms);
    report->Add("throughput", "1/s",
                static_cast<double>(plain.size()) / elapsed);
    w->AddDetails(plain, report);
    return;
  }
  LayerValues traced_medians = MedianPerKey(traced_layers);
  LayerValues out = traced_medians;
  std::vector<LayerValues> plain_values;
  std::vector<double> plain_s, traced_s;
  for (const OpSample& s : plain) {
    plain_values.push_back(s.values);
    plain_s.push_back(s.seconds);
  }
  for (const OpSample& s : traced) traced_s.push_back(s.seconds);
  // Stage times come from the untraced operations of this run.
  for (const auto& [k, val] : MedianPerKey(plain_values)) {
    if (k.rfind("pipeline.", 0) == 0) out[k] = val;
  }
  out["obs.trace_overhead_pct"] =
      (Ratio(Median(traced_s), Median(plain_s)) - 1) * 100;
  std::vector<LayerValues> replays(kReplays);
  for (LayerValues& r : replays) w->Replay(traced_medians, &r, outcome);
  for (const auto& [k, val] : MedianPerKey(replays)) out[k] = val;
  for (const char* k : {"pipeline.coverage_train", "pipeline.coverage_predict",
                        "pipeline.coverage_load"}) {
    auto it = out.find(k);
    if (it != out.end() && (it->second < 0.9 || it->second > 1.05)) {
      report->Warn(std::string(k) + " = " + std::to_string(it->second) +
                   " is outside 0.9-1.05");
    }
  }
  if (traced_medians["~recorder.evicted"] > 0) {
    report->Warn("the flight recorder evicted traces; span sums are partial");
  }
  AddLayerMetrics(out, report);
}

// -- serve-live --------------------------------------------------------------

constexpr const char* kModelName = "voter_rf";
constexpr size_t kServeClients = 3;
constexpr size_t kServeWindow = 8;          // outstanding requests per client
constexpr size_t kPoolRows = 16384;         // test rows requests draw from
constexpr auto kPublishEvery = std::chrono::milliseconds(250);
constexpr double kServeWarmupSeconds = 1.0;
/// Longest untraced / traced window; a short run (--smoke) gets four.
constexpr double kTraceWindowSeconds = 1.0;

/// The served forest in two versions, the server and the request rows
/// with each version's local predictions. Members are destroyed in reverse
/// order, so the server stops before the store, cache and database it uses.
struct ServeFixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<modelstore::ModelStore> store;
  /// One entry, so each publish of the other version misses once.
  std::unique_ptr<modelstore::ModelCache> cache;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<ml::RandomForest> versions[2];
  ml::Matrix pool;
  ml::Labels expected[2];
  int64_t trained_rows = 0;
  std::vector<double> fit_seconds;
};

Status SetupServe(const pipeline::PipelineConfig& config, ServeFixture* f) {
  f->db = std::make_unique<Database>();
  MLCS_RETURN_IF_ERROR(pipeline::LoadVoterData(f->db.get(), config));
  MLCS_RETURN_IF_ERROR(pipeline::RegisterVoterUdfs(f->db.get()));
  MLCS_ASSIGN_OR_RETURN(TablePtr wrangled,
                        f->db->Query(pipeline::WranglingSql(config)));
  std::vector<std::string> features = FeatureNames(wrangled->schema());
  MLCS_ASSIGN_OR_RETURN(Split split,
                        SplitWrangled(dataframe::DataFrame(wrangled)));
  MLCS_ASSIGN_OR_RETURN(ml::Matrix x, split.train.ToMatrix(features));
  MLCS_ASSIGN_OR_RETURN(ml::Labels y, split.train.LabelColumn("label"));
  f->trained_rows = static_cast<int64_t>(x.rows());
  for (int v = 0; v < 2; ++v) {
    f->versions[v] = std::make_unique<ml::RandomForest>(
        ForestOptions(config, config.seed + static_cast<uint64_t>(v)));
    WallTimer t;
    MLCS_RETURN_IF_ERROR(f->versions[v]->Fit(x, y));
    f->fit_seconds.push_back(t.ElapsedSeconds());
  }
  MLCS_ASSIGN_OR_RETURN(f->pool,
                        split.test.Head(kPoolRows).ToMatrix(features));
  for (int v = 0; v < 2; ++v) {
    MLCS_ASSIGN_OR_RETURN(f->expected[v], f->versions[v]->Predict(f->pool));
  }
  f->store = std::make_unique<modelstore::ModelStore>(f->db.get());
  MLCS_RETURN_IF_ERROR(f->store->Init());
  MLCS_RETURN_IF_ERROR(f->store->SaveModel(kModelName, *f->versions[0], 0.0,
                                           f->trained_rows));
  f->cache = std::make_unique<modelstore::ModelCache>(1);
  serve::InferenceServerOptions options;
  options.model_cache = f->cache.get();
  f->server = std::make_unique<serve::InferenceServer>(f->db.get(),
                                                       f->store.get(), options);
  return f->server->Start(0);
}

struct Completion {
  double at_s = 0;  // completion time since the serving start
  double latency_ms = 0;
};

/// One closed-loop client: keeps kServeWindow single-row requests
/// outstanding until `stop`, then drains. Each response must carry the
/// label one of the two published versions predicts for that row.
void ServeClient(const ServeFixture* f, uint64_t seed, Clock::time_point start,
                 Clock::time_point stop, std::vector<Completion>* done,
                 Outcome* outcome) {
  client::InferenceClient c;
  Status st = c.Connect("127.0.0.1", f->server->port());
  if (!st.ok()) {
    outcome->Record(st, "connect");
    return;
  }
  struct InFlight {
    Clock::time_point sent;
    size_t row;
  };
  std::unordered_map<uint64_t, InFlight> inflight;
  Rng rng(seed);
  const size_t cols = f->pool.cols();
  ml::Matrix x(1, cols);
  while (true) {
    while (Clock::now() < stop && inflight.size() < kServeWindow) {
      size_t row = rng.NextBounded(f->pool.rows());
      for (size_t col = 0; col < cols; ++col) {
        x.Set(0, col, f->pool.At(row, col));
      }
      auto id = c.Send(kModelName, x);
      if (!id.ok()) {
        outcome->Record(id.status(), "send");
        return;
      }
      inflight.emplace(id.ValueOrDie(), InFlight{Clock::now(), row});
    }
    if (inflight.empty()) return;
    auto response = c.Receive();
    Clock::time_point now = Clock::now();
    if (!response.ok()) {
      for (size_t i = 0; i < inflight.size(); ++i) {
        outcome->Record(response.status(), "receive");
      }
      return;
    }
    const serve::PredictResponse& r = response.ValueOrDie();
    auto it = inflight.find(r.request_id);
    if (it == inflight.end()) {
      outcome->Record(false, "response for an unknown request id");
      continue;
    }
    size_t row = it->second.row;
    bool ok = r.code == serve::ServeCode::kOk && r.labels.size() == 1 &&
              (r.labels[0] == f->expected[0][row] ||
               r.labels[0] == f->expected[1][row]);
    outcome->Record(ok, std::string("request: ") +
                            serve::ServeCodeToString(r.code) +
                            (ok ? "" : " (or a label neither version "
                                       "predicts)"));
    done->push_back(
        {std::chrono::duration<double>(now - start).count(),
         std::chrono::duration<double, std::milli>(now - it->second.sent)
             .count()});
    inflight.erase(it);
  }
}

/// Serves until `stop` with the clients and the publisher thread, calling
/// `on_tick` on the main thread every ~10 ms (trace-window switching).
template <typename Tick>
void Serve(ServeFixture* f, uint64_t seed, Clock::time_point start,
           Clock::time_point stop, std::vector<Completion>* done,
           std::vector<double>* save_s, Outcome* outcome, Tick&& on_tick) {
  std::vector<std::vector<Completion>> per_client(kServeClients);
  std::vector<Outcome> outcomes(kServeClients + 1);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kServeClients; ++i) {
    threads.emplace_back(ServeClient, f, seed * 1000003 + i, start, stop,
                         &per_client[i], &outcomes[i]);
  }
  // The publisher republishes the other version every kPublishEvery.
  std::thread publisher([&] {
    int version = 0;
    Clock::time_point next = start + kPublishEvery;
    while (next < stop) {
      std::this_thread::sleep_until(next);
      next += kPublishEvery;
      version ^= 1;
      WallTimer t;
      Status st = f->store->SaveModel(kModelName, *f->versions[version], 0.0,
                                      f->trained_rows);
      save_s->push_back(t.ElapsedSeconds());
      outcomes[kServeClients].Record(st, "publish");
    }
  });
  while (Clock::now() < stop) {
    on_tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  publisher.join();
  for (size_t i = 0; i < kServeClients; ++i) {
    done->insert(done->end(), per_client[i].begin(), per_client[i].end());
  }
  for (const Outcome& o : outcomes) outcome->Merge(o);
}

/// Latencies (ms) of the completions inside [from, to) seconds.
std::vector<double> LatenciesBetween(const std::vector<Completion>& done,
                                     double from, double to) {
  std::vector<double> out;
  for (const Completion& c : done) {
    if (c.at_s >= from && c.at_s < to) out.push_back(c.latency_ms);
  }
  return out;
}

/// The serving path's layer calls, timed from outside after serving ends.
void ReplayServe(const ServeFixture& f, double requests_per_batch,
                 LayerValues* v, Outcome* outcome) {
  auto run = [&]() -> Status {
    constexpr int kCalls = 50;
    std::vector<double> dumps, loads, blob_s, predict;
    std::string blob;
    for (int i = 0; i < 5; ++i) {
      WallTimer t;
      blob = ml::pickle::Dumps(*f.versions[0]);
      dumps.push_back(t.ElapsedSeconds());
      t.Restart();
      MLCS_RETURN_IF_ERROR(ml::pickle::Loads(blob).status());
      loads.push_back(t.ElapsedSeconds());
    }
    for (int i = 0; i < kCalls; ++i) {
      WallTimer t;
      MLCS_RETURN_IF_ERROR(f.store->LoadModelBlob(kModelName).status());
      blob_s.push_back(t.ElapsedSeconds());
    }
    size_t rows = std::clamp<size_t>(
        static_cast<size_t>(std::lround(requests_per_batch)), 1,
        f.pool.rows());
    std::vector<uint32_t> idx(rows);
    for (size_t i = 0; i < rows; ++i) idx[i] = static_cast<uint32_t>(i);
    ml::Matrix batch = f.pool.SelectRows(idx);
    for (int i = 0; i < kCalls; ++i) {
      WallTimer t;
      MLCS_ASSIGN_OR_RETURN(ml::Labels pred, f.versions[0]->Predict(batch));
      predict.push_back(t.ElapsedSeconds());
      for (size_t r = 0; r < rows; ++r) {
        if (pred[r] != f.expected[0][r]) {
          return Status::Internal("batch predict differs from the pool's");
        }
      }
    }
    (*v)["pickle.dumps_s"] = Median(dumps);
    (*v)["pickle.loads_s"] = Median(loads);
    (*v)["pickle.model_bytes"] = static_cast<double>(blob.size());
    (*v)["modelstore.load_blob_s"] = Median(blob_s);
    (*v)["ml.predict_s"] = Median(predict);
    (*v)["ml.fit_s"] = Median(f.fit_seconds);
    return Status::OK();
  };
  outcome->Record(run(), "serving replay");
}

void RunServeLive(const pipeline::PipelineConfig& config, const Options& opt,
                  Report* report, Outcome* outcome) {
  std::vector<double> setups;
  std::unique_ptr<ServeFixture> f;
  for (int i = 0; i < (opt.traced ? 1 : kSetupRepeats); ++i) {
    f.reset();
    f = std::make_unique<ServeFixture>();
    WallTimer t;
    Status st = SetupServe(config, f.get());
    if (!st.ok()) {
      outcome->Record(st, "setup");
      return;
    }
    setups.push_back(t.ElapsedSeconds());
  }
  Clock::time_point start = Clock::now();
  double end_s = kServeWarmupSeconds + opt.seconds;
  Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(end_s));
  std::vector<Completion> done;
  std::vector<double> save_s;

  if (!opt.traced) {
    Serve(f.get(), opt.seed, start, stop, &done, &save_s, outcome, [] {});
    std::vector<double> lat =
        LatenciesBetween(done, kServeWarmupSeconds, end_s);
    if (lat.empty()) {
      outcome->Record(false, "no request completed");
      return;
    }
    report->AddSamples("setup_s", "s", setups);
    report->Add("latency_ms", "ms", Median(lat));
    report->Add("throughput", "1/s",
                static_cast<double>(lat.size()) / opt.seconds);
    report->Add("p99_ms", "ms", Percentile(lat, 0.99));
    report->Add("requests", "count", static_cast<double>(lat.size()));
    report->AddSamples("publish_s", "s", save_s);
    return;
  }

  // Traced: after the warm-up, windows alternate untraced / traced.
  struct Window {
    double from = 0, to = 0;
    bool traced = false;
    LayerValues layers;
  };
  std::vector<Window> windows;
  EngineReading reading;
  auto open_window = [&](double at_s) {
    Window w;
    w.from = at_s;
    w.traced = !windows.empty() && !windows.back().traced;
    windows.push_back(w);
    obs::FlightRecorder::Global().Clear();
    reading = ReadEngine();
    obs::SetTracingEnabled(w.traced);
  };
  auto close_window = [&](double at_s) {
    Window& w = windows.back();
    obs::SetTracingEnabled(false);
    w.to = at_s;
    w.layers = EngineDeltas(reading, ReadEngine(), w.to - w.from);
    for (const auto& [k, val] : SummarizeRecordedSpans()) w.layers[k] += val;
  };
  Serve(f.get(), opt.seed, start, stop, &done, &save_s, outcome, [&] {
    double now_s = std::chrono::duration<double>(Clock::now() - start).count();
    if (now_s < kServeWarmupSeconds) return;
    if (windows.empty()) {
      open_window(now_s);
    } else if (now_s - windows.back().from >=
               std::min(kTraceWindowSeconds, opt.seconds / 4)) {
      close_window(now_s);
      open_window(now_s);
    }
  });
  if (!windows.empty()) {
    close_window(std::min(
        end_s, std::chrono::duration<double>(Clock::now() - start).count()));
  }

  std::vector<double> plain_lat, traced_lat;
  double plain_time = 0, traced_time = 0;
  std::vector<LayerValues> traced_layers;
  for (const Window& w : windows) {
    std::vector<double> lat = LatenciesBetween(done, w.from, w.to);
    auto& into = w.traced ? traced_lat : plain_lat;
    into.insert(into.end(), lat.begin(), lat.end());
    (w.traced ? traced_time : plain_time) += w.to - w.from;
    if (w.traced) traced_layers.push_back(w.layers);
  }
  if (plain_lat.empty() || traced_lat.empty()) {
    outcome->Record(false, "no request completed in a serving window");
    return;
  }
  LayerValues out = MedianPerKey(traced_layers);
  double plain_rps = Ratio(static_cast<double>(plain_lat.size()), plain_time);
  double traced_rps =
      Ratio(static_cast<double>(traced_lat.size()), traced_time);
  out["serve.p50_ms"] = Median(plain_lat);
  out["serve.p99_ms"] = Percentile(plain_lat, 0.99);
  out["serve.rps"] = plain_rps;
  out["obs.trace_overhead_pct"] = (Ratio(plain_rps, traced_rps) - 1) * 100;
  out["modelstore.save_s"] = Median(save_s);
  ReplayServe(*f, out["serve.requests_per_batch"], &out, outcome);
  if (out["~recorder.evicted"] > 0) {
    report->Warn("the flight recorder evicted traces; span sums are partial");
  }
  AddLayerMetrics(out, report);
}

// -- output ------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// A number with every digit it has; JSON has no NaN or infinity.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(v[i]);
  }
  return out + "]";
}

const char* JsonBool(bool b) { return b ? "true" : "false"; }

bool WriteJson(const Options& opt, const Scale& scale, const Report& report,
               const Outcome& outcome) {
  std::ostringstream j;
  j << "{\"benchmark\": \"mlcs_bench\", \"workload\": "
    << JsonString(opt.workload) << ", \"seed\": " << opt.seed
    << ", \"traced\": " << JsonBool(opt.traced)
    << ", \"smoke\": " << JsonBool(opt.smoke)
    << ", \"seconds\": " << JsonNumber(opt.seconds)
    << ", \"mlcs_threads\": " << ThreadPool::DefaultThreadCount()
    << ",\n \"scale\": {\"voters\": " << scale.voters
    << ", \"columns\": " << scale.columns
    << ", \"precincts\": " << scale.precincts
    << ", \"n_estimators\": " << scale.trees
    << ", \"max_depth\": " << scale.depth << ", \"train_fraction\": 0.5}"
    << ",\n \"attempted\": " << outcome.attempted
    << ", \"failed\": " << outcome.failed << ", \"correct\": "
    << JsonBool(outcome.failed == 0 && outcome.attempted > 0)
    << ",\n \"failures\": " << JsonStrings(outcome.failures)
    << ",\n \"warnings\": " << JsonStrings(report.warnings())
    << ",\n \"metrics\": {";
  const char* sep = "\n  ";
  for (const Metric& m : report.metrics()) {
    j << sep << JsonString(m.name) << ": {\"value\": " << JsonNumber(m.value)
      << ", \"unit\": " << JsonString(m.unit);
    if (!m.samples.empty()) {
      j << ", \"q1\": " << JsonNumber(Quantile(m.samples, 0.25))
        << ", \"q3\": " << JsonNumber(Quantile(m.samples, 0.75))
        << ", \"n\": " << m.samples.size();
    }
    j << "}";
    sep = ",\n  ";
  }
  // The registry snapshot, so a result file records the cache, pool and
  // serving counters behind its timings.
  j << "},\n \"mlcs_metrics\": {";
  sep = "\n  ";
  for (const obs::MetricSample& s :
       obs::MetricsRegistry::Global().Snapshot()) {
    j << sep << JsonString(s.name) << ": " << JsonNumber(s.value);
    sep = ",\n  ";
  }
  j << "}}\n";
  std::ofstream f("BENCH_mlcs_" + opt.workload + ".json");
  f << j.str();
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: mlcs_bench --workload=<fig1-rf|transfer|serve-live> "
                 "--seed=<u64> [--seconds=<s>] [--traced] [--smoke]\n");
    return 2;
  }
  // Pin the engine's thread pool to the cores the harness may use (at most
  // 4), unless the caller already chose; read before any pool exists.
  unsigned cores = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  setenv("MLCS_THREADS", std::to_string(cores).c_str(), /*overwrite=*/0);
  if (opt.traced) {
    setenv("MLCS_FLIGHT_RECORDER_BYTES", kTracedRecorderBytes, 1);
  }

  Scale scale = ScaleFor(opt);
  pipeline::PipelineConfig config = ConfigFor(scale, opt.seed);
  StagingDir dir;
  if (!dir.ok()) {
    std::fprintf(stderr, "cannot create a staging directory\n");
    return 1;
  }
  std::printf("mlcs_bench %s seed=%llu %s%s: %zu voters x %zu columns, "
              "%zu precincts, %d trees of depth %d, %zu threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.traced ? "traced" : "untraced", opt.smoke ? " smoke" : "",
              scale.voters, scale.columns, scale.precincts, scale.trees,
              scale.depth, ThreadPool::DefaultThreadCount());
  std::fflush(stdout);

  Report report;
  Outcome outcome;
  if (opt.workload == "serve-live") {
    RunServeLive(config, opt, &report, &outcome);
  } else if (opt.workload == "fig1-rf") {
    Fig1Workload w(config, scale.max_mae, opt.traced);
    RunBatch(&w, opt, &report, &outcome);
  } else {
    TransferWorkload w(config, scale.max_mae, &dir);
    RunBatch(&w, opt, &report, &outcome);
  }
  if (!opt.traced) {
    report.Add("peak_rss_mb", "MB", PeakRssMb());
    report.Add("error_rate", "ratio",
               Ratio(static_cast<double>(outcome.failed),
                     static_cast<double>(outcome.attempted)));
  }
  for (const Metric& m : report.metrics()) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  if (!WriteJson(opt, scale, report, outcome)) {
    std::fprintf(stderr, "cannot write BENCH_mlcs_%s.json\n",
                 opt.workload.c_str());
    return 1;
  }
  return 0;
}
