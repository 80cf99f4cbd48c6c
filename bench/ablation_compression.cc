/// Ablation abl-compress: what compressed execution buys on the paper's
/// voter table served from block files. The table is saved twice — once
/// with the encoding policy on (dictionary blocks) and once forced
/// plain — then reopened stored-backed and queried through the buffer
/// pool. One grid axis everywhere: `encoding:0` scans the plain copy with
/// the knob off (SetEncodingEnabled(false)), `encoding:1` scans the
/// encoded copy operating on codes end-to-end. Expectations
/// (EXPERIMENTS.md, abl-compress):
///
///   scan bytes touched     — reported (`scan_bytes_per_iter`): an
///                            encoded scan moves codes plus each block's
///                            copy of the dictionary.
///   filter                 — reported: equality filters on dictionary
///                            columns compare per entry, then mask a
///                            code band.
///   group-by               — low-cardinality group-bys on dictionary
///                            columns run ≥2x faster operating on codes.
///   on-disk footprint      — the encoded directory is ≤0.5x the plain one
///                            (`disk_bytes` counter on the scan grid).
///
/// Results land in BENCH_ablation_compression.json; the mlcs.encode.*
/// series in its metrics block carry code-path hits and decode-fallback
/// counts, and the context block records the encoding knob. Scale knobs:
/// MLCS_STORAGE_ROWS / _COLS (defaults 50000 / 32), block size via
/// MLCS_BLOCK_ROWS (default 4096).
#include <benchmark/benchmark.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_main.h"
#include "bufpool/buffer_pool.h"
#include "io/voter_gen.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "storage/encoding.h"

namespace {

using namespace mlcs;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

/// Recursive: SaveTo writes a manifest plus one block-file subdirectory
/// per table.
uint64_t DirSizeBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (struct dirent* e = ::readdir(d)) {
    std::string name(e->d_name);
    if (name == "." || name == "..") continue;
    std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) continue;
    if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    } else if (S_ISDIR(st.st_mode)) {
      total += DirSizeBytes(path);
    }
  }
  ::closedir(d);
  return total;
}

/// The two stored copies of the voter table plus a database per copy.
/// Saved once; every benchmark below picks its arm by grid arg.
struct StoredCopies {
  Database plain_db;
  Database encoded_db;
  uint64_t plain_disk_bytes = 0;
  uint64_t encoded_disk_bytes = 0;
};

StoredCopies& Copies() {
  static StoredCopies* copies = [] {
    std::string base =
        "/tmp/mlcs_abl_compress_" + std::to_string(::getpid());
    std::string plain_dir = base + "_plain";
    std::string enc_dir = base + "_enc";
    {
      Database writer;
      io::VoterDataOptions opt;
      opt.num_voters = EnvSize("MLCS_STORAGE_ROWS", 50000);
      opt.num_columns = EnvSize("MLCS_STORAGE_COLS", 32);
      auto gen = io::GenerateVoters(opt);
      if (!gen.ok()) std::abort();
      TablePtr voters = gen.ValueOrDie();
      // Cluster by precinct, like real voter-file extracts (sorted by
      // county/precinct). The encoder turns the precinct column and the
      // demographic columns into dictionaries.
      {
        auto pre = voters->ColumnByName("precinct_id");
        if (!pre.ok()) std::abort();
        const auto& p = pre.ValueOrDie()->i32_data();
        std::vector<uint32_t> order(voters->num_rows());
        for (size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<uint32_t>(i);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) { return p[a] < p[b]; });
        voters = voters->TakeRows(order);
      }
      if (!writer.catalog().CreateTable("voters", voters).ok())
        std::abort();
      SetEncodingEnabled(false);  // SaveTo's EncodeTable becomes a no-op
      if (!writer.SaveTo(plain_dir).ok()) std::abort();
      SetEncodingEnabled(true);
      if (!writer.SaveTo(enc_dir).ok()) std::abort();
    }
    auto* c = new StoredCopies();
    if (!c->plain_db.LoadFrom(plain_dir).ok()) std::abort();
    if (!c->encoded_db.LoadFrom(enc_dir).ok()) std::abort();
    c->plain_disk_bytes = DirSizeBytes(plain_dir);
    c->encoded_disk_bytes = DirSizeBytes(enc_dir);
    return c;
  }();
  return *copies;
}

/// Selects the benchmark arm: plain blocks with the knob off, or encoded
/// blocks operating on codes. Restore the knob after the timed loop.
Database& ArmDb(int64_t encoding) {
  StoredCopies& c = Copies();
  SetEncodingEnabled(encoding == 1);
  return encoding == 1 ? c.encoded_db : c.plain_db;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

void ReportPerIter(benchmark::State& state, const char* label,
                   uint64_t delta) {
  state.counters[label] = benchmark::Counter(
      static_cast<double>(delta) / static_cast<double>(state.iterations()));
}

/// Full warm-pool scan over the precinct-clustered column: bytes
/// materialized per iteration is the headline (the dictionary column hands
/// 2-byte codes plus its block's dictionary to the executor, not 4-byte
/// values). Also carries the on-disk footprint of each arm as
/// `disk_bytes`.
void BM_ScanBytesGrid(benchmark::State& state) {
  Database& db = ArmDb(state.range(0));
  uint64_t bytes0 = CounterValue("mlcs.scan.bytes_touched");
  for (auto _ : state) {
    auto r = db.Query("SELECT COUNT(*) FROM voters WHERE precinct_id >= 0");
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  SetEncodingEnabled(true);
  if (state.iterations() == 0) return;
  ReportPerIter(state, "scan_bytes_per_iter",
                CounterValue("mlcs.scan.bytes_touched") - bytes0);
  state.counters["disk_bytes"] = benchmark::Counter(static_cast<double>(
      state.range(0) == 1 ? Copies().encoded_disk_bytes
                          : Copies().plain_disk_bytes));
}

/// Equality filters on dictionary-shaped columns: the encoded arm runs
/// each predicate per dictionary entry and expands the tiny result through
/// the codes; the plain arm promotes and compares all 50k rows per
/// conjunct.
void BM_DictFilterGrid(benchmark::State& state) {
  Database& db = ArmDb(state.range(0));
  const std::string sql =
      "SELECT COUNT(*) FROM voters WHERE age = 40 AND gender = 1";
  for (auto _ : state) {
    auto r = db.Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  SetEncodingEnabled(true);
}

/// Low-cardinality group-by with aggregates: the encoded arm groups
/// through the code→group table instead of hashing each row.
void BM_DictGroupByGrid(benchmark::State& state) {
  Database& db = ArmDb(state.range(0));
  const std::string sql =
      "SELECT age, COUNT(*) AS c, SUM(precinct_id) AS s FROM voters "
      "GROUP BY age";
  for (auto _ : state) {
    auto r = db.Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  SetEncodingEnabled(true);
}

/// Join keyed on the dictionary-shaped precinct column against the
/// precinct dimension table — hash-join builds and probes on codes where
/// the dictionaries allow it.
void BM_DictJoinGrid(benchmark::State& state) {
  StoredCopies& c = Copies();
  Database& db = ArmDb(state.range(0));
  // The precinct table is tiny; resident on both arms is fine.
  if (!db.catalog().HasTable("precincts")) {
    io::VoterDataOptions opt;
    auto precincts = io::GeneratePrecincts(opt);
    if (!precincts.ok()) std::abort();
    if (!db.catalog().CreateTable("precincts", precincts.ValueOrDie()).ok())
      std::abort();
  }
  (void)c;
  const std::string sql =
      "SELECT COUNT(*) FROM voters JOIN precincts "
      "ON precinct_id = precinct_id WHERE dem_votes > rep_votes";
  for (auto _ : state) {
    auto r = db.Query(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(r);
  }
  SetEncodingEnabled(true);
}

BENCHMARK(BM_ScanBytesGrid)->ArgName("encoding")->Arg(0)->Arg(1);
BENCHMARK(BM_DictFilterGrid)->ArgName("encoding")->Arg(0)->Arg(1);
BENCHMARK(BM_DictGroupByGrid)->ArgName("encoding")->Arg(0)->Arg(1);
BENCHMARK(BM_DictJoinGrid)->ArgName("encoding")->Arg(0)->Arg(1);

}  // namespace

MLCS_BENCH_MAIN(ablation_compression)
