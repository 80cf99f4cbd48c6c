/// Ablation abl-proto: pure result-set transfer cost per protocol —
/// the micro-mechanics behind Figure 1's socket bars (cf. "Don't Hold My
/// Data Hostage", the paper's [15]).
///
/// A 100k-row, 8-int-column table is serialized and re-materialized
/// through each wire format, in memory and then over a loopback socket;
/// the in-process "zero-copy" row shows what the in-database path pays
/// instead (sharing column pointers).
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "client/client.h"
#include "client/protocol.h"
#include "client/server.h"
#include "client/sqlite_like.h"
#include "common/random.h"
#include "sql/database.h"

namespace {

using namespace mlcs;

TablePtr& Fixture() {
  static TablePtr table = [] {
    Schema s;
    for (int c = 0; c < 8; ++c) {
      std::string name = "c";
      name += std::to_string(c);
      s.AddField(std::move(name), TypeId::kInt32);
    }
    auto t = Table::Make(std::move(s));
    Rng rng(15);
    for (size_t c = 0; c < 8; ++c) {
      auto& data = t->column(c)->i32_data();
      data.resize(100000);
      for (auto& v : data) v = static_cast<int32_t>(rng.NextBounded(100000));
    }
    return t;
  }();
  return table;
}

void BM_TransferPgText(benchmark::State& state) {
  auto& t = Fixture();
  size_t bytes = 0;
  for (auto _ : state) {
    ByteWriter out;
    client::EncodeHeader(t->schema(), &out);
    if (!client::EncodeRows(*t, client::WireProtocol::kPgText, 0,
                            t->num_rows(), &out)
             .ok()) {
      state.SkipWithError("encode failed");
    }
    client::EncodeEnd(&out);
    bytes = out.size();
    ByteReader in(out.data());
    auto back = client::DecodeResultSet(&in, client::WireProtocol::kPgText);
    if (!back.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t->num_rows()));
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}

void BM_TransferMyBinary(benchmark::State& state) {
  auto& t = Fixture();
  size_t bytes = 0;
  for (auto _ : state) {
    ByteWriter out;
    client::EncodeHeader(t->schema(), &out);
    if (!client::EncodeRows(*t, client::WireProtocol::kMyBinary, 0,
                            t->num_rows(), &out)
             .ok()) {
      state.SkipWithError("encode failed");
    }
    client::EncodeEnd(&out);
    bytes = out.size();
    ByteReader in(out.data());
    auto back =
        client::DecodeResultSet(&in, client::WireProtocol::kMyBinary);
    if (!back.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t->num_rows()));
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}

/// The columnar block protocol: contiguous per-column runs, memcpy fast
/// path on both ends for this all-valid fixed-width table.
void BM_TransferColumnar(benchmark::State& state) {
  auto& t = Fixture();
  size_t bytes = 0;
  for (auto _ : state) {
    ByteWriter out;
    client::EncodeHeader(t->schema(), &out);
    if (!client::EncodeRows(*t, client::WireProtocol::kColumnar, 0,
                            t->num_rows(), &out)
             .ok()) {
      state.SkipWithError("encode failed");
    }
    client::EncodeEnd(&out);
    bytes = out.size();
    ByteReader in(out.data());
    auto back =
        client::DecodeResultSet(&in, client::WireProtocol::kColumnar);
    if (!back.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t->num_rows()));
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}

/// The fixture as table `t` of a database, for the rows that query it.
Database* FixtureDb() {
  static Database* db = [] {
    auto* d = new Database();
    (void)d->catalog().CreateTable("t", Fixture());
    return d;
  }();
  return db;
}

/// A real TableServer/TableClient round trip over loopback: the rows above
/// plus the query, the socket and the framing, with the server encoding a
/// frame while the client decodes the one before. The gap to the matching
/// in-memory row is what the socket adds.
void BM_LoopbackRoundTrip(benchmark::State& state,
                          client::WireProtocol protocol) {
  client::TableServer server(FixtureDb());
  client::TableClient tcp;
  if (!server.Start(0).ok() ||
      !tcp.Connect("127.0.0.1", server.port()).ok()) {
    state.SkipWithError("loopback setup failed");
    return;
  }
  for (auto _ : state) {
    auto back = tcp.Query("SELECT * FROM t", protocol);
    if (!back.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Fixture()->num_rows()));
  state.counters["wire_bytes"] =
      static_cast<double>(tcp.last_response_bytes());
}

/// SQLite-style per-cell boxing, no serialization.
void BM_TransferRowCursor(benchmark::State& state) {
  Database* db = FixtureDb();
  for (auto _ : state) {
    auto back = client::FetchAllRowAtATime(db, "SELECT * FROM t");
    if (!back.ok()) state.SkipWithError("cursor fetch failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(Fixture()->num_rows()));
}

/// What the in-database UDF path pays: nothing but pointer sharing.
void BM_TransferZeroCopyColumns(benchmark::State& state) {
  auto& t = Fixture();
  for (auto _ : state) {
    std::vector<ColumnPtr> handoff;
    handoff.reserve(t->num_columns());
    for (size_t c = 0; c < t->num_columns(); ++c) {
      handoff.push_back(t->column(c));
    }
    benchmark::DoNotOptimize(handoff);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(t->num_rows()));
}

BENCHMARK(BM_TransferPgText);
BENCHMARK(BM_TransferMyBinary);
BENCHMARK(BM_TransferColumnar);
BENCHMARK_CAPTURE(BM_LoopbackRoundTrip, pg_text, client::WireProtocol::kPgText)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LoopbackRoundTrip, mysql_binary,
                  client::WireProtocol::kMyBinary)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_LoopbackRoundTrip, columnar,
                  client::WireProtocol::kColumnar)
    ->UseRealTime();
BENCHMARK(BM_TransferRowCursor);
BENCHMARK(BM_TransferZeroCopyColumns);

}  // namespace

MLCS_BENCH_MAIN(ablation_protocols)
