/// Figure 1 reproduction — "Voter Classification Benchmark".
///
/// Runs the complete voter-classification pipeline once per data channel
/// and prints one row per bar of the paper's Figure 1: total pipeline time
/// plus the load/initial-wrangling share (the paper's gray sub-bar).
///
/// Scale knobs (defaults keep the suite CI-sized; the paper's full scale
/// is rows=7500000):
///   MLCS_FIG1_ROWS       voters            (default 100000)
///   MLCS_FIG1_COLS       voter columns     (default 96, as in the paper)
///   MLCS_FIG1_PRECINCTS  precincts         (default 2751, as in the paper)
///   MLCS_FIG1_TREES      n_estimators      (default 8)
///   MLCS_FIG1_REPS       timed repetitions after one untimed warm-up
///                        per channel; the table shows the median-total
///                        rep, the BENCH json every rep with its
///                        quartiles (default 3)
///
/// Under each row, every rep's wall total is printed beside the process
/// CPU seconds it used (getrusage(RUSAGE_SELF), all threads); the json
/// records those as `stages.cpu_seconds`. A rep whose wall time grows
/// while its CPU time does not waited for the host's vCPUs. A rep whose
/// CPU ÷ wall is under 1.5 at 4 threads (0.375 × threads) is marked `!`
/// and listed in the json's `low_cpu_reps`: a parallel bar (in-database
/// reps run at 3.1–3.5) that low ran mostly on one vCPU. Channels whose
/// wrangle is serial sit under the mark in every rep.
///
/// Before the first channel, every pool thread spins in ~50 ms rounds
/// until a round's process CPU ÷ wall reaches 0.8 × threads, or for at
/// most 5 s with a warning: on a shared VM a fresh process, above all one
/// started after a minute of idle host, otherwise runs its first ~1 s of
/// parallel work on about one vCPU. The json's `spin_up` records the time
/// it took and the last round's ratio.
///
/// Expected shape (paper §4): the in-database channel is fastest with an
/// order-of-magnitude lower wrangling share; binary files (npy, h5b) load
/// fast but stay slower overall; CSV is comparable to socket transfer;
/// the socket channels are the slowest.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "client/server.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "io/csv.h"
#include "io/h5b.h"
#include "io/npy.h"
#include "json_util.h"
#include "pipeline/voter_pipeline.h"
#include "sql/database.h"

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

size_t g_reps = 1;

/// Linear-interpolation quantile of unsorted samples.
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The spin-up before the first channel: its seconds and the CPU ÷ wall
/// of its last round.
struct SpinUp {
  double seconds = 0;
  double cpu_per_wall = 0;
};
SpinUp g_spin_up;

/// A rep's CPU ÷ wall below this ran mostly on one vCPU: 1.5 at 4 threads.
double LowCpuPerWall() {
  return 0.375 * static_cast<double>(mlcs::ThreadPool::Global().num_threads());
}

/// Every timed rep of one channel, in run order; `median` is the
/// median-total one (the lower middle for an even count), the row the
/// table prints.
struct Channel {
  std::vector<mlcs::pipeline::PipelineResult> reps;
  /// Process CPU seconds (user + system) of each rep.
  std::vector<double> cpu_seconds;
  size_t median = 0;

  std::vector<double> Totals() const {
    std::vector<double> totals;
    for (const auto& rep : reps) totals.push_back(rep.total_seconds);
    return totals;
  }
  bool LowCpu(size_t rep) const {
    return cpu_seconds[rep] < LowCpuPerWall() * reps[rep].total_seconds;
  }
};
std::vector<Channel> g_channels;

/// Prints one channel's table row.
void PrintRow(const Channel& channel) {
  const mlcs::pipeline::PipelineResult& r = channel.reps[channel.median];
  std::vector<double> totals = channel.Totals();
  std::printf("%-28s %12.3f %10.3f %11.3f %11.3f %6.3f-%-6.3f %9.3f %8.4f\n",
              r.method.c_str(), r.load_wrangle_seconds, r.train_seconds,
              r.predict_seconds, r.total_seconds, Quantile(totals, 0.25),
              Quantile(totals, 0.75), Quantile(totals, 0.0),
              r.precinct_share_mae);
  std::printf("  reps wall/cpu(s):");
  for (size_t i = 0; i < channel.reps.size(); ++i) {
    std::printf(" %.3f/%.3f%s", channel.reps[i].total_seconds,
                channel.cpu_seconds[i], channel.LowCpu(i) ? "!" : "");
  }
  std::printf("\n");
  std::fflush(stdout);
}

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Spins every pool thread in ~50 ms rounds until one round's process
/// CPU ÷ wall reaches 0.8 × threads, or for at most 5 s.
SpinUp SpinUpPool() {
  using Clock = std::chrono::steady_clock;
  mlcs::MorselPolicy policy;
  size_t threads = policy.threads();
  mlcs::WallTimer total;
  SpinUp out;
  while (true) {
    double cpu_before = ProcessCpuSeconds();
    mlcs::WallTimer round;
    Clock::time_point end = Clock::now() + std::chrono::milliseconds(50);
    mlcs::Status st = mlcs::ParallelItems(policy, threads, [end](size_t) {
      while (Clock::now() < end) {
      }
      return mlcs::Status::OK();
    });
    (void)st;  // the spin never fails
    out.cpu_per_wall = (ProcessCpuSeconds() - cpu_before) /
                       round.ElapsedSeconds();
    out.seconds = total.ElapsedSeconds();
    if (out.cpu_per_wall >= 0.8 * static_cast<double>(threads)) break;
    if (out.seconds >= 5) {
      std::fprintf(stderr,
                   "warning: pool spin-up stopped after %.1f s at CPU/wall "
                   "%.2f, below 0.8 x %zu threads\n",
                   out.seconds, out.cpu_per_wall, threads);
      break;
    }
  }
  return out;
}

/// Runs a channel once untimed, so no channel pays the first run after
/// staging or after the previous channel, then g_reps times keeping every
/// rep. The table shows the median-total rep with the total's quartiles
/// and its min; the BENCH json records every rep.
template <typename Fn>
mlcs::Status Repeated(Fn&& run) {
  MLCS_RETURN_IF_ERROR(run().status());  // warm-up
  Channel channel;
  for (size_t i = 0; i < std::max<size_t>(g_reps, 1); ++i) {
    double cpu_before = ProcessCpuSeconds();
    mlcs::Result<mlcs::pipeline::PipelineResult> next = run();
    if (!next.ok()) return next.status();
    channel.cpu_seconds.push_back(ProcessCpuSeconds() - cpu_before);
    channel.reps.push_back(std::move(next).ValueOrDie());
  }
  std::vector<size_t> order(channel.reps.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return channel.reps[a].total_seconds < channel.reps[b].total_seconds;
  });
  channel.median = order[(order.size() - 1) / 2];
  PrintRow(channel);
  g_channels.push_back(std::move(channel));
  return mlcs::Status::OK();
}

/// First line a shell command prints ("" when none).
std::string FirstLine(const char* command) {
  FILE* pipe = popen(command, "r");
  if (pipe == nullptr) return "";
  char buf[256];
  std::string line = fgets(buf, sizeof(buf), pipe) != nullptr ? buf : "";
  pclose(pipe);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// The checkout the run measured: HEAD's hash, "-dirty" when tracked
/// files differ from it.
std::string CommitOfWorkingDirectory() {
  std::string commit = FirstLine("git rev-parse --short=12 HEAD 2>/dev/null");
  if (commit.empty()) return "unknown";
  if (!FirstLine("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    commit += "-dirty";
  }
  return commit;
}

/// One stage's seconds over every rep: min, quartiles and max.
void WriteStage(mlcs::bench::JsonWriter* json, const char* name,
                const std::vector<double>& reps) {
  json->Key(name);
  json->BeginObject();
  json->Field("min", Quantile(reps, 0.0));
  json->Field("q1", Quantile(reps, 0.25));
  json->Field("median", Quantile(reps, 0.5));
  json->Field("q3", Quantile(reps, 0.75));
  json->Field("max", Quantile(reps, 1.0));
  json->Key("reps");
  json->BeginArray();
  for (double v : reps) json->Value(v);
  json->EndArray();
  json->EndObject();
}

/// Machine-readable twin of the printed table, same schema for every
/// bench binary: BENCH_<name>.json in the working directory. Each
/// channel's top-level stage fields are its table row (the median-total
/// rep); `stages` holds every timed rep's stage times and process CPU
/// seconds with their quartiles.
bool WriteJson(const mlcs::pipeline::PipelineConfig& config) {
  mlcs::bench::JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", "fig1_voter_classification");
  json.Field("commit", CommitOfWorkingDirectory());
  char host[256] = {};
  json.Field("host",
             gethostname(host, sizeof(host) - 1) == 0 ? host : "unknown");
  json.Field("mlcs_threads",
             static_cast<uint64_t>(mlcs::ThreadPool::DefaultThreadCount()));
  mlcs::bench::WriteMetricsBlock(&json);
  json.Key("spin_up");
  json.BeginObject();
  json.Field("seconds", g_spin_up.seconds);
  json.Field("cpu_per_wall", g_spin_up.cpu_per_wall);
  json.EndObject();
  json.Key("workload");
  json.BeginObject();
  json.Field("rows", config.data.num_voters);
  json.Field("cols", config.data.num_columns);
  json.Field("precincts", config.data.num_precincts);
  json.Field("n_estimators", config.n_estimators);
  json.Field("reps", g_reps);
  json.Field("warm_up_reps", static_cast<size_t>(1));
  json.EndObject();
  json.Key("channels");
  json.BeginArray();
  for (const Channel& channel : g_channels) {
    const mlcs::pipeline::PipelineResult& r = channel.reps[channel.median];
    json.BeginObject();
    json.Field("method", r.method);
    json.Field("load_wrangle_seconds", r.load_wrangle_seconds);
    json.Field("train_seconds", r.train_seconds);
    json.Field("predict_seconds", r.predict_seconds);
    json.Field("total_seconds", r.total_seconds);
    json.Field("precinct_share_mae", r.precinct_share_mae);
    std::vector<double> wrangle, train, predict;
    for (const auto& rep : channel.reps) {
      wrangle.push_back(rep.load_wrangle_seconds);
      train.push_back(rep.train_seconds);
      predict.push_back(rep.predict_seconds);
    }
    json.Key("stages");
    json.BeginObject();
    WriteStage(&json, "load_wrangle_seconds", wrangle);
    WriteStage(&json, "train_seconds", train);
    WriteStage(&json, "predict_seconds", predict);
    WriteStage(&json, "total_seconds", channel.Totals());
    WriteStage(&json, "cpu_seconds", channel.cpu_seconds);
    json.EndObject();
    json.Key("low_cpu_reps");
    json.BeginArray();
    for (size_t i = 0; i < channel.reps.size(); ++i) {
      if (channel.LowCpu(i)) json.Value(static_cast<uint64_t>(i));
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.WriteTo("BENCH_fig1_voter_classification.json");
}

/// Median of one stage over the reps of the channel named `method`
/// (0 when it did not run).
double MedianOf(const std::string& method,
                double mlcs::pipeline::PipelineResult::*stage) {
  for (const Channel& channel : g_channels) {
    if (channel.reps[0].method != method) continue;
    std::vector<double> values;
    for (const auto& rep : channel.reps) values.push_back(rep.*stage);
    return Quantile(values, 0.5);
  }
  return 0;
}

/// The paper's §4 shape claims, each judged on this run's medians.
void PrintShapeChecks() {
  using mlcs::pipeline::PipelineResult;
  const std::string in_db = "mlcs (in-database UDF)";
  auto total = [](const std::string& m) {
    return MedianOf(m, &PipelineResult::total_seconds);
  };
  auto wrangle = [](const std::string& m) {
    return MedianOf(m, &PipelineResult::load_wrangle_seconds);
  };
  auto mark = [](bool holds) { return holds ? "✓" : "✗"; };
  std::printf("\nshape check (paper §4), on median totals and wrangles:\n");

  std::string runner_up;
  for (const Channel& channel : g_channels) {
    const std::string& m = channel.reps[0].method;
    if (m != in_db && (runner_up.empty() || total(m) < total(runner_up))) {
      runner_up = m;
    }
  }
  std::printf("  %s in-database total fastest: %.3f s, next %s %.3f s\n",
              mark(total(in_db) < total(runner_up)), total(in_db),
              runner_up.c_str(), total(runner_up));

  double least = 0;
  const char* least_channel = "";
  for (const char* m :
       {"socket pg-text", "socket mysql-binary", "socket columnar"}) {
    double ratio = wrangle(m) / wrangle(in_db);
    if (least == 0 || ratio < least) {
      least = ratio;
      least_channel = m;
    }
  }
  std::printf("  %s in-database wrangle an order of magnitude below every "
              "socket channel's: %.1fx at the least (%s)\n",
              mark(least >= 10), least, least_channel);

  double binary = std::max(wrangle("numpy-binary"), wrangle("hdf5-like"));
  double text = std::min({wrangle("csv"), wrangle("socket pg-text"),
                          wrangle("socket mysql-binary")});
  std::printf("  %s binary files load faster than csv and the row sockets "
              "(%.3f vs %.3f s), in-database faster still (%.3f s)\n",
              mark(binary < text && wrangle(in_db) < binary), binary, text,
              wrangle(in_db));

  double pg = wrangle("csv") / wrangle("socket pg-text");
  double my = wrangle("csv") / wrangle("socket mysql-binary");
  auto comparable = [](double ratio) { return ratio >= 0.5 && ratio <= 2; };
  std::printf("  %s csv wrangle comparable to the row sockets' (within 2x): "
              "%.2fx pg-text, %.2fx mysql-binary\n",
              mark(comparable(pg) && comparable(my)), pg, my);
}

bool Check(const mlcs::Status& st, const char* what) {
  if (st.ok()) return true;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  return false;
}

}  // namespace

int main() {
  using namespace mlcs;
  pipeline::PipelineConfig config;
  config.data.num_voters = EnvSize("MLCS_FIG1_ROWS", 100000);
  config.data.num_columns = EnvSize("MLCS_FIG1_COLS", 96);
  config.data.num_precincts = EnvSize("MLCS_FIG1_PRECINCTS", 2751);
  config.n_estimators = static_cast<int>(EnvSize("MLCS_FIG1_TREES", 8));
  g_reps = EnvSize("MLCS_FIG1_REPS", 3);

  std::printf("== Figure 1: Voter Classification Benchmark ==\n");
  std::printf("dataset: %zu voters x %zu columns, %zu precincts; "
              "random forest n_estimators=%d\n\n",
              config.data.num_voters, config.data.num_columns,
              config.data.num_precincts, config.n_estimators);

  // Stage the external inputs (write time is not part of any bar — the
  // paper's files pre-exist on disk).
  std::string dir = "/tmp/mlcs_fig1";
  mkdir(dir.c_str(), 0755);
  std::string voters_npy = dir + "/voters_npy";
  std::string precincts_npy = dir + "/precincts_npy";
  mkdir(voters_npy.c_str(), 0755);
  mkdir(precincts_npy.c_str(), 0755);

  auto voters = io::GenerateVoters(config.data);
  auto precincts = io::GeneratePrecincts(config.data);
  if (!voters.ok() || !precincts.ok()) {
    std::fprintf(stderr, "data generation failed\n");
    return 1;
  }
  WallTimer stage_timer;
  if (!Check(io::WriteCsv(*voters.ValueOrDie(), dir + "/voters.csv"),
             "stage csv") ||
      !Check(io::WriteCsv(*precincts.ValueOrDie(), dir + "/precincts.csv"),
             "stage csv") ||
      !Check(io::SaveTableAsNpyDir(*voters.ValueOrDie(), voters_npy),
             "stage npy") ||
      !Check(io::SaveTableAsNpyDir(*precincts.ValueOrDie(), precincts_npy),
             "stage npy") ||
      !Check(io::WriteH5b(*voters.ValueOrDie(), dir + "/voters.h5b"),
             "stage h5b") ||
      !Check(io::WriteH5b(*precincts.ValueOrDie(), dir + "/precincts.h5b"),
             "stage h5b")) {
    return 1;
  }
  std::printf("staged file inputs in %s (%.2fs, not counted)\n\n",
              dir.c_str(), stage_timer.ElapsedSeconds());

  // In-database (MonetDB/Python analogue), the first parallel work: the
  // pool spins up right before it.
  {
    Database db;
    if (!Check(pipeline::LoadVoterData(&db, config), "load")) return 1;
    g_spin_up = SpinUpPool();
    std::printf("pool spin-up: %.2f s, last round at CPU/wall %.2f\n\n",
                g_spin_up.seconds, g_spin_up.cpu_per_wall);
    std::printf("%-28s %12s %10s %11s %11s %13s %9s %8s\n", "method",
                "wrangle(s)", "train(s)", "predict(s)", "total(s)",
                "total q1-q3", "min(s)", "mae");
    if (!Check(Repeated([&] { return pipeline::RunInDatabase(&db, config); }),
               "in-database")) {
      return 1;
    }
  }
  // Binary files.
  if (!Check(Repeated([&] {
               return pipeline::RunFromNpyDir(voters_npy, precincts_npy,
                                              config);
             }),
             "npy") ||
      !Check(Repeated([&] {
               return pipeline::RunFromH5b(dir + "/voters.h5b",
                                           dir + "/precincts.h5b", config);
             }),
             "h5b")) {
    return 1;
  }
  // CSV text.
  if (!Check(Repeated([&] {
               return pipeline::RunFromCsv(dir + "/voters.csv",
                                           dir + "/precincts.csv", config);
             }),
             "csv")) {
    return 1;
  }
  // Socket channels (PostgreSQL-like text, MySQL-like binary).
  {
    Database server_db;
    if (!Check(pipeline::LoadVoterData(&server_db, config), "server load") ||
        !Check(pipeline::RegisterVoterUdfs(&server_db), "server udfs")) {
      return 1;
    }
    client::TableServer server(&server_db);
    if (!Check(server.Start(0), "server start")) return 1;
    for (auto protocol :
         {client::WireProtocol::kPgText, client::WireProtocol::kMyBinary,
          client::WireProtocol::kColumnar}) {
      if (!Check(Repeated([&] {
                   return pipeline::RunFromSocket("127.0.0.1", server.port(),
                                                  protocol, config);
                 }),
                 "socket")) {
        return 1;
      }
    }
    server.Stop();
  }
  // SQLite-like in-process row-at-a-time.
  {
    Database db;
    if (!Check(pipeline::LoadVoterData(&db, config), "load") ||
        !Check(Repeated([&] { return pipeline::RunSqliteLike(&db, config); }),
               "sqlite-like")) {
      return 1;
    }
  }

  PrintShapeChecks();
  if (!WriteJson(config)) {
    std::fprintf(stderr, "failed to write BENCH json\n");
    return 1;
  }
  std::printf("wrote BENCH_fig1_voter_classification.json\n");
  return 0;
}
