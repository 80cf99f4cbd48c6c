#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "client/client.h"
#include "client/net_util.h"
#include "client/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mlcs::client {
namespace {

class ServerClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run("CREATE TABLE t (x INTEGER, s VARCHAR);"
                        "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, "
                        "NULL);")
                    .ok());
    server_ = std::make_unique<TableServer>(&db_);
    ASSERT_TRUE(server_->Start(0).ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override { server_->Stop(); }

  /// Registers `m`: `rows` rows of INTEGER, DOUBLE, VARCHAR and BOOLEAN
  /// with NULLs in every column — a result of many frames in every
  /// protocol once `rows` is in the tens of thousands.
  void AddMixedTable(size_t rows) {
    Schema schema;
    schema.AddField("x", TypeId::kInt32);
    schema.AddField("d", TypeId::kDouble);
    schema.AddField("s", TypeId::kVarchar);
    schema.AddField("b", TypeId::kBool);
    auto m = Table::Make(std::move(schema));
    for (size_t i = 0; i < rows; ++i) {
      int32_t x = static_cast<int32_t>(i);
      ASSERT_TRUE(
          m->AppendRow(
               {i % 7 == 0 ? Value::MakeNull(TypeId::kInt32) : Value::Int32(x),
                i % 11 == 0 ? Value::MakeNull(TypeId::kDouble)
                            : Value::Double(x * 0.25 - 3.0),
                i % 13 == 0 ? Value::MakeNull(TypeId::kVarchar)
                            : Value::Varchar("row " + std::to_string(i)),
                i % 5 == 0 ? Value::MakeNull(TypeId::kBool)
                           : Value::Bool(i % 2 == 0)})
              .ok());
    }
    ASSERT_TRUE(db_.catalog().CreateTable("m", std::move(m)).ok());
  }

  Database db_;
  std::unique_ptr<TableServer> server_;
};

TEST_F(ServerClientTest, QueryOverBothProtocols) {
  for (WireProtocol protocol :
       {WireProtocol::kPgText, WireProtocol::kMyBinary}) {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto t = client.Query("SELECT * FROM t ORDER BY x", protocol)
                 .ValueOrDie();
    ASSERT_EQ(t->num_rows(), 3u);
    EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Varchar("a"));
    EXPECT_TRUE(t->GetValue(2, 1).ValueOrDie().is_null());
    EXPECT_GT(client.last_response_bytes(), 0u);
  }
}

TEST_F(ServerClientTest, MultipleQueriesOnOneConnection) {
  TableClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (int i = 0; i < 5; ++i) {
    auto t = client.Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary)
                 .ValueOrDie();
    EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
  }
}

TEST_F(ServerClientTest, ServerErrorsPropagateToClient) {
  TableClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto r = client.Query("SELECT * FROM missing", WireProtocol::kPgText);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("missing"), std::string::npos);
  // The connection stays usable after an error.
  EXPECT_TRUE(client.Query("SELECT 1", WireProtocol::kPgText).ok());
}

constexpr WireProtocol kAllProtocols[] = {
    WireProtocol::kPgText, WireProtocol::kMyBinary, WireProtocol::kColumnar};

/// Each client pulls a many-frame result while the others do: the server
/// encodes on every connection's thread as the clients decode.
TEST_F(ServerClientTest, ConcurrentClients) {
  constexpr int kClients = 4;
  AddMixedTable(20000);
  TablePtr expected = db_.Query("SELECT * FROM m").ValueOrDie();
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &expected, &failures] {
      TableClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 10; ++i) {
        auto r = client.Query("SELECT SUM(x) FROM t",
                              WireProtocol::kMyBinary);
        if (!r.ok() ||
            !(r.ValueOrDie()->GetValue(0, 0).ValueOrDie() ==
              Value::Int64(6))) {
          failures.fetch_add(1);
        }
      }
      for (int i = 0; i < 2; ++i) {
        auto r = client.Query("SELECT * FROM m", kAllProtocols[(c + i) % 3]);
        if (!r.ok() || !expected->Equals(*r.ValueOrDie())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerClientTest, ManyFrameResultMatchesInProcess) {
  AddMixedTable(40000);
  TablePtr expected = db_.Query("SELECT * FROM m").ValueOrDie();
  for (WireProtocol protocol : kAllProtocols) {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto t = client.Query("SELECT * FROM m", protocol);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(expected->Equals(*t.ValueOrDie()))
        << WireProtocolToString(protocol);
  }
}

TEST_F(ServerClientTest, EmptyResultIsHeaderAndEndMarker) {
  AddMixedTable(100);
  for (WireProtocol protocol : kAllProtocols) {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto t = client.Query("SELECT * FROM m WHERE x < 0", protocol)
                 .ValueOrDie();
    EXPECT_EQ(t->num_rows(), 0u);
    EXPECT_EQ(t->num_columns(), 4u);
    EXPECT_EQ(t->schema().field(2).type, TypeId::kVarchar);
    // Still in step: the next query on the connection works.
    EXPECT_TRUE(client.Query("SELECT COUNT(*) FROM m", protocol).ok());
  }
}

/// A row larger than the frame target still goes out whole: its frame
/// grows past the target, up to the frame cap.
TEST_F(ServerClientTest, RowLargerThanFrameTargetRoundTrips) {
  Schema schema;
  schema.AddField("id", TypeId::kInt32);
  schema.AddField("payload", TypeId::kBlob);
  auto blobs = Table::Make(std::move(schema));
  std::string big(1 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);
  ASSERT_TRUE(
      blobs->AppendRow({Value::Int32(1), Value::Blob("small")}).ok());
  ASSERT_TRUE(blobs->AppendRow({Value::Int32(2), Value::Blob(big)}).ok());
  ASSERT_TRUE(blobs->AppendRow({Value::Int32(3), Value::Blob("")}).ok());
  ASSERT_TRUE(db_.catalog().CreateTable("blobs", blobs).ok());
  for (WireProtocol protocol : kAllProtocols) {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto t = client.Query("SELECT * FROM blobs", protocol);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_TRUE(blobs->Equals(*t.ValueOrDie()))
        << WireProtocolToString(protocol);
    EXPECT_GT(client.last_response_bytes(), big.size());
  }
}

/// A single row whose encoding exceeds the frame cap cannot be sent: the
/// server hangs up after the header frame, the client's Query fails and
/// closes its end, and the server goes on accepting connections.
TEST_F(ServerClientTest, RowAboveFrameCapFailsQueryAndServerSurvives) {
  Schema schema;
  schema.AddField("s", TypeId::kVarchar);
  std::vector<std::string> cells(1,
                                 std::string(net::kMaxFrameBytes + 16, 'w'));
  auto wide = std::make_shared<Table>(
      std::move(schema),
      std::vector<ColumnPtr>{Column::FromStrings(std::move(cells))});
  ASSERT_TRUE(db_.catalog().CreateTable("wide", std::move(wide)).ok());
  {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto t = client.Query("SELECT s FROM wide", WireProtocol::kMyBinary);
    EXPECT_FALSE(t.ok());
    EXPECT_FALSE(client.connected());
  }
  ASSERT_TRUE(db_.Run("DROP TABLE wide;").ok());
  TableClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port()).ok());
  auto t = next.Query("SELECT COUNT(*) FROM t", WireProtocol::kColumnar);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t.ValueOrDie()->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
}

/// last_response_bytes() counts every frame's payload and no length
/// prefix: a raw reader of the same stream sums the payloads it sees.
TEST_F(ServerClientTest, ResponseBytesSumFramePayloads) {
  AddMixedTable(40000);
  const std::string sql = "SELECT * FROM m";
  for (WireProtocol protocol : kAllProtocols) {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(client.Query(sql, protocol).ok());

    net::ClientSocket raw;
    ASSERT_TRUE(raw.Connect("127.0.0.1", server_->port()).ok());
    // The request frame by hand: u32 length, protocol byte, SQL.
    ByteWriter request;
    request.WriteU32(static_cast<uint32_t>(1 + sql.size()));
    request.WriteU8(static_cast<uint8_t>(protocol));
    request.WriteRaw(sql.data(), sql.size());
    ASSERT_TRUE(net::WriteAll(raw.fd(), request));
    size_t frames = 0;
    size_t payload_bytes = 0;
    TablePtr table;
    bool ended = false;
    while (!ended) {
      uint32_t frame_len = 0;
      ASSERT_TRUE(net::ReadExact(raw.fd(), &frame_len, sizeof(frame_len)));
      ASSERT_LE(frame_len, net::kMaxFrameBytes);
      std::vector<uint8_t> frame(frame_len);
      ASSERT_TRUE(net::ReadExact(raw.fd(), frame.data(), frame.size()));
      ++frames;
      payload_bytes += frame.size();
      ByteReader reader(frame);
      if (table == nullptr) {
        ASSERT_EQ(reader.ReadU8().ValueOrDie(), 0);
        table = Table::Make(DecodeHeader(&reader).ValueOrDie());
      } else {
        ended = DecodeMessages(&reader, protocol, table.get()).ValueOrDie();
      }
    }
    EXPECT_EQ(payload_bytes, client.last_response_bytes())
        << WireProtocolToString(protocol);
    EXPECT_GT(frames, 3u) << WireProtocolToString(protocol);
    EXPECT_EQ(table->num_rows(), 40000u);
  }
}

/// A request naming no WireProtocol is answered with an error before its
/// SQL runs, and the connection stays usable.
TEST_F(ServerClientTest, UnknownProtocolByteAnswered) {
  net::ClientSocket raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", server_->port()).ok());
  const std::string sql = "CREATE TABLE leaked (a INTEGER)";
  ByteWriter request;
  size_t start = net::BeginFrame(&request);
  request.WriteU8(0x7F);
  request.WriteRaw(sql.data(), sql.size());
  ASSERT_TRUE(net::EndFrame(&request, start).ok());
  ASSERT_TRUE(net::WriteAll(raw.fd(), request));
  std::vector<uint8_t> frame;
  ASSERT_TRUE(net::ReadFrame(raw.fd(), &frame).ok());
  ByteReader reader(frame);
  EXPECT_EQ(reader.ReadU8().ValueOrDie(), 1);
  EXPECT_NE(reader.ReadString().ValueOrDie().find("bad protocol"),
            std::string::npos);
  // A request the server refuses must not have run.
  EXPECT_FALSE(db_.catalog().GetTable("leaked").ok());

  request.Clear();
  start = net::BeginFrame(&request);
  EncodeQueryRequest(WireProtocol::kColumnar, "SELECT COUNT(*) FROM t",
                     &request);
  ASSERT_TRUE(net::EndFrame(&request, start).ok());
  ASSERT_TRUE(net::WriteAll(raw.fd(), request));
  ASSERT_TRUE(net::ReadFrame(raw.fd(), &frame).ok());
  EXPECT_EQ(frame[0], 0);  // the ok flag of a result set
}

/// Regression for the unbounded connection_threads_ growth: after many
/// sequential connections the tracked-thread count must stay O(concurrent
/// connections), not O(total connections ever accepted).
TEST_F(ServerClientTest, ConnectionThreadsAreReaped) {
  for (int i = 0; i < 32; ++i) {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(
        client.Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary)
            .ok());
    client.Disconnect();
  }
  // Each new connection reaps previously finished threads; give the last
  // disconnect a moment to land, then connect once more to trigger a reap.
  TableClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(
      client.Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary).ok());
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (server_->tracked_connection_threads() <= 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(server_->tracked_connection_threads(), 4u);
}

TEST_F(ServerClientTest, QueryWithoutConnectFails) {
  TableClient client;
  EXPECT_FALSE(client.Query("SELECT 1", WireProtocol::kPgText).ok());
}

TEST_F(ServerClientTest, ConnectToClosedPortFails) {
  TableClient client;
  // Port 1 is essentially never listening.
  EXPECT_FALSE(client.Connect("127.0.0.1", 1).ok());
}

TEST_F(ServerClientTest, StopIsIdempotent) {
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

/// The serving path replays identical SELECT text per request: after the
/// first, the server answers from the prepared-plan cache.
TEST_F(ServerClientTest, RepeatedQueriesHitPlanCache) {
  TableClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const std::string sql = "SELECT SUM(x) FROM t WHERE x > 1";
  obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("mlcs.plan_cache.hits");
  uint64_t hits_before = hits->Value();
  for (int i = 0; i < 10; ++i) {
    auto t = client.Query(sql, WireProtocol::kMyBinary).ValueOrDie();
    EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  }
  EXPECT_GE(hits->Value(), hits_before + 9);
  EXPECT_GE(db_.plan_cache_size(), 1u);
}

/// The export frame rides the same connection as queries:
/// a monitoring scrape needs no second endpoint.
TEST_F(ServerClientTest, MetricsAndTraceExportVerbs) {
  TableClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Run a traced query so the flight recorder holds something.
  obs::FlightRecorder::Global().Clear();
  ASSERT_TRUE(client.Query("SELECT SUM(x) FROM t", WireProtocol::kPgText)
                  .ok());

  auto metrics = client.FetchMetricsText();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.ValueOrDie().find("# TYPE "), std::string::npos);
  EXPECT_NE(metrics.ValueOrDie().find("mlcs_plan_cache_hits"),
            std::string::npos);

  auto trace = client.FetchChromeTrace(0);  // 0 → every retained trace
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace.ValueOrDie().find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.ValueOrDie().find("query: SELECT SUM(x) FROM t"),
            std::string::npos);

  // The connection stays usable for SQL after export frames.
  auto t = client.Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary)
               .ValueOrDie();
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
  obs::FlightRecorder::Global().Clear();
}

}  // namespace
}  // namespace mlcs::client
