#include "client/protocol.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "client/client.h"
#include "client/net_util.h"
#include "client/server.h"
#include "common/random.h"

namespace mlcs::client {
namespace {

TablePtr MixedTable() {
  Schema s;
  s.AddField("i", TypeId::kInt32);
  s.AddField("l", TypeId::kInt64);
  s.AddField("d", TypeId::kDouble);
  s.AddField("b", TypeId::kBool);
  s.AddField("v", TypeId::kVarchar);
  s.AddField("blob", TypeId::kBlob);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(-1), Value::Int64(1LL << 40),
                            Value::Double(2.5), Value::Bool(true),
                            Value::Varchar("hello"),
                            Value::Blob(std::string("\x01\x02", 2))})
                  .ok());
  EXPECT_TRUE(
      t->AppendRow({Value::MakeNull(TypeId::kInt32),
                    Value::MakeNull(TypeId::kInt64),
                    Value::MakeNull(TypeId::kDouble),
                    Value::MakeNull(TypeId::kBool),
                    Value::MakeNull(TypeId::kVarchar),
                    Value::MakeNull(TypeId::kBlob)})
          .ok());
  return t;
}

class ProtocolRoundTripTest : public ::testing::TestWithParam<WireProtocol> {
};

/// Property: encode → decode is the identity for every protocol. (Note the
/// pg-text protocol is lossless here because FormatDouble is shortest-
/// round-trip, like PostgreSQL's extra_float_digits=3.)
TEST_P(ProtocolRoundTripTest, MixedTableRoundTrips) {
  WireProtocol protocol = GetParam();
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, t->num_rows(), &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, protocol).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

TEST_P(ProtocolRoundTripTest, RandomizedNumericRoundTrip) {
  WireProtocol protocol = GetParam();
  Schema s;
  s.AddField("x", TypeId::kInt64);
  s.AddField("y", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextDouble() < 0.02) {
      ASSERT_TRUE(t->AppendRow({Value::MakeNull(TypeId::kInt64),
                                Value::MakeNull(TypeId::kDouble)})
                      .ok());
    } else {
      ASSERT_TRUE(
          t->AppendRow({Value::Int64(static_cast<int64_t>(rng.NextU64())),
                        Value::Double(rng.NextGaussian())})
              .ok());
    }
  }
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, t->num_rows(), &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, protocol).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolRoundTripTest,
                         ::testing::Values(WireProtocol::kPgText,
                                           WireProtocol::kMyBinary,
                                           WireProtocol::kColumnar));

TEST(ProtocolTest, TextIsLargerThanBinaryForWideInts) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(1234567890123456789LL)}).ok());
  }
  ByteWriter text, binary;
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kPgText, 0, 1000, &text).ok());
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kMyBinary, 0, 1000, &binary).ok());
  EXPECT_GT(text.size(), binary.size());
}

/// The columnar block drops the per-row marker and per-row NULL bitmap, so
/// for all-valid fixed-width data it beats the mysql-style binary rows.
TEST(ProtocolTest, ColumnarIsSmallerThanBinaryRows) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  s.AddField("y", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(i), Value::Double(i * 0.5)}).ok());
  }
  ByteWriter binary, columnar;
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kMyBinary, 0, 1000, &binary).ok());
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kColumnar, 0, 1000, &columnar).ok());
  EXPECT_LT(columnar.size(), binary.size());
}

TEST(ProtocolTest, ColumnarPartialRangeRoundTrips) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 1, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kColumnar).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
}

/// Two columnar blocks appended to one result set decode correctly even
/// when the first block introduces NULLs (the bulk fast path must detect
/// the column already carries a validity vector).
TEST(ProtocolTest, ColumnarMultipleBlocksWithNulls) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 1, 1, &out).ok());
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kColumnar).ValueOrDie();
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
  EXPECT_EQ(back->GetValue(1, 0).ValueOrDie(), Value::Int32(-1));
}

TEST(ProtocolTest, ColumnarTruncatedBlockRejected) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 100, &out).ok());
  ByteReader in(out.data().data(), out.size() / 2);
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kColumnar).ok());
}

/// A block header may declare an absurd row count; the decoder must reject
/// it before sizing any buffer from the wire value.
TEST(ProtocolTest, ColumnarOversizedBlockCountRejected) {
  ByteWriter out;
  out.WriteU16(1);
  out.WriteString("x");
  out.WriteU8(static_cast<uint8_t>(TypeId::kInt64));
  out.WriteU8('B');
  out.WriteU32(0xFFFFFFFFu);  // declared rows far beyond the payload
  out.WriteU8(0);             // no nulls
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kColumnar).ok());
}

TEST(ProtocolTest, PartialRangeEncoding) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kMyBinary, 1, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kMyBinary).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
}

TEST(ProtocolTest, RangeOverflowRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EXPECT_FALSE(EncodeRows(*t, WireProtocol::kPgText, 1, 5, &out).ok());
}

TEST(ProtocolTest, CorruptStreamRejected) {
  ByteWriter out;
  out.WriteU16(1);
  out.WriteString("x");
  out.WriteU8(static_cast<uint8_t>(TypeId::kInt32));
  out.WriteU8('Z');  // bogus marker
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kPgText).ok());
}

TEST(ProtocolTest, TruncatedStreamRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kPgText, 0, 2, &out).ok());
  // No end marker and half the bytes.
  ByteReader in(out.data().data(), out.size() / 2);
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kPgText).ok());
}

/// The streaming decoder: messages split over frames append to one table,
/// and only the frame carrying the end marker reports it.
TEST_P(ProtocolRoundTripTest, MessagesDecodeFrameByFrame) {
  WireProtocol protocol = GetParam();
  auto t = MixedTable();
  ByteWriter header;
  EncodeHeader(t->schema(), &header);
  ByteWriter first;
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, 1, &first).ok());
  ByteWriter last;
  ASSERT_TRUE(EncodeRows(*t, protocol, 1, 1, &last).ok());
  EncodeEnd(&last);

  ByteReader header_in(header.data());
  auto back = Table::Make(DecodeHeader(&header_in).ValueOrDie());
  ByteReader first_in(first.data());
  EXPECT_FALSE(DecodeMessages(&first_in, protocol, back.get()).ValueOrDie());
  EXPECT_EQ(back->num_rows(), 1u);
  ByteReader last_in(last.data());
  EXPECT_TRUE(DecodeMessages(&last_in, protocol, back.get()).ValueOrDie());
  EXPECT_TRUE(last_in.AtEnd());
  EXPECT_TRUE(t->Equals(*back));
}

TEST(ProtocolTest, ResultSetWithoutEndMarkerRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kMyBinary, 0, 2, &out).ok());
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kMyBinary).ok());
}

// ---------------------------------------------------------------------------
// Negative paths over a real socket: malformed frames must produce clean
// Status errors on the peer that caused them — never a hang, crash, or a
// poisoned server. Each test drives TableServer with raw bytes.
// ---------------------------------------------------------------------------

class MalformedFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run("CREATE TABLE t (x INTEGER);"
                        "INSERT INTO t VALUES (1), (2);")
                    .ok());
    server_ = std::make_unique<TableServer>(&db_);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  /// Raw client socket, no protocol smarts.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  /// The server must still serve a well-formed client after whatever abuse
  /// the test inflicted — proof one bad peer cannot poison it.
  void ExpectServerStillHealthy() {
    TableClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto r = client.Query("SELECT COUNT(*) FROM t", WireProtocol::kColumnar);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie()->GetValue(0, 0).ValueOrDie(), Value::Int64(2));
  }

  Database db_;
  std::unique_ptr<TableServer> server_;
};

TEST_F(MalformedFrameTest, TruncatedLengthPrefixDisconnect) {
  int fd = RawConnect();
  // Protocol byte plus only 2 of the 4 length bytes, then hang up.
  const uint8_t partial[] = {0, 0x10, 0x00};
  ASSERT_TRUE(net::WriteAll(fd, partial, sizeof(partial)));
  ::close(fd);
  ExpectServerStillHealthy();
}

TEST_F(MalformedFrameTest, OversizedDeclaredLengthAnswered) {
  int fd = RawConnect();
  uint8_t protocol_byte = 0;
  uint32_t absurd_len = 0xF0000000u;  // ~4 GB claimed, nothing sent
  ASSERT_TRUE(net::WriteAll(fd, &protocol_byte, 1));
  ASSERT_TRUE(net::WriteAll(fd, &absurd_len, sizeof(absurd_len)));
  // The server must answer with an error frame (not silently hang up, and
  // certainly not allocate 4 GB).
  uint64_t frame_len = 0;
  ASSERT_TRUE(net::ReadExact(fd, &frame_len, sizeof(frame_len)));
  std::vector<uint8_t> frame(frame_len);
  ASSERT_TRUE(net::ReadExact(fd, frame.data(), frame.size()));
  ByteReader reader(frame);
  EXPECT_EQ(reader.ReadU8().ValueOrDie(), 1);  // error flag
  std::string message = reader.ReadString().ValueOrDie();
  EXPECT_NE(message.find("frame cap"), std::string::npos);
  ::close(fd);
  ExpectServerStillHealthy();
}

TEST_F(MalformedFrameTest, UnknownProtocolByteAnswered) {
  int fd = RawConnect();
  uint8_t protocol_byte = 0x7F;
  std::string sql = "CREATE TABLE leaked (a INTEGER)";
  uint32_t sql_len = static_cast<uint32_t>(sql.size());
  ASSERT_TRUE(net::WriteAll(fd, &protocol_byte, 1));
  ASSERT_TRUE(net::WriteAll(fd, &sql_len, sizeof(sql_len)));
  ASSERT_TRUE(net::WriteAll(fd, sql.data(), sql.size()));
  uint64_t frame_len = 0;
  ASSERT_TRUE(net::ReadExact(fd, &frame_len, sizeof(frame_len)));
  std::vector<uint8_t> frame(frame_len);
  ASSERT_TRUE(net::ReadExact(fd, frame.data(), frame.size()));
  ByteReader reader(frame);
  EXPECT_EQ(reader.ReadU8().ValueOrDie(), 1);
  EXPECT_NE(reader.ReadString().ValueOrDie().find("bad protocol"),
            std::string::npos);
  ::close(fd);
  // A request the server refuses must not have run.
  EXPECT_FALSE(db_.catalog().GetTable("leaked").ok());
  ExpectServerStillHealthy();
}

TEST_F(MalformedFrameTest, MidFrameDisconnect) {
  int fd = RawConnect();
  uint8_t protocol_byte = 1;
  uint32_t sql_len = 1000;  // promise 1000 bytes ...
  ASSERT_TRUE(net::WriteAll(fd, &protocol_byte, 1));
  ASSERT_TRUE(net::WriteAll(fd, &sql_len, sizeof(sql_len)));
  ASSERT_TRUE(net::WriteAll(fd, "SELECT", 6));  // ... deliver 6, vanish
  ::close(fd);
  ExpectServerStillHealthy();
}

/// Regression for the unbounded connection_threads_ growth: after many
/// sequential connections the tracked-thread count must stay O(concurrent
/// connections), not O(total connections ever accepted).
TEST_F(MalformedFrameTest, ConnectionThreadsAreReaped) {
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

// ---------------------------------------------------------------------------
// The client against a hostile or broken server: a raw listening socket
// answers the first request with scripted bytes, then hangs up. Every case
// must end in a non-OK Status, never an abort or an allocation sized from
// the wire.
// ---------------------------------------------------------------------------

class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<uint8_t> reply) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, reply = std::move(reply)] {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      uint8_t verb = 0;
      uint32_t len = 0;
      if (net::ReadExact(fd, &verb, 1) &&
          net::ReadExact(fd, &len, sizeof(len))) {
        std::string request(len, '\0');
        if (net::ReadExact(fd, request.data(), request.size())) {
          bool sent = net::WriteAll(fd, reply.data(), reply.size());
          (void)sent;
        }
      }
      ::close(fd);
    });
  }
  ~ScriptedServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks an accept never answered
    thread_.join();
    ::close(listen_fd_);
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Appends one frame (u64 payload length, payload) to `wire`.
void AppendFrame(const ByteWriter& payload, ByteWriter* wire) {
  wire->WriteU64(payload.size());
  wire->WriteRaw(payload.data().data(), payload.size());
}

/// The first frame of a good response: ok flag and MixedTable's header.
ByteWriter HeaderFrame() {
  ByteWriter payload;
  payload.WriteU8(0);
  EncodeHeader(MixedTable()->schema(), &payload);
  ByteWriter wire;
  AppendFrame(payload, &wire);
  return wire;
}

Status QueryScripted(const ByteWriter& reply) {
  ScriptedServer server(reply.data());
  TableClient client;
  MLCS_RETURN_IF_ERROR(client.Connect("127.0.0.1", server.port()));
  Status status =
      client.Query("SELECT * FROM t", WireProtocol::kMyBinary).status();
  // A broken stream leaves the connection unusable, so the client drops it.
  EXPECT_FALSE(client.connected());
  return status;
}

TEST(HostileServerTest, HugeFrameLengthRejectedBeforeAllocating) {
  ByteWriter reply;
  reply.WriteU64(uint64_t{1} << 60);
  Status status = QueryScripted(reply);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("frame cap"), std::string::npos);

  // A later frame of a stream is capped the same way.
  ByteWriter stream = HeaderFrame();
  stream.WriteU64(kMaxFrameBytes + 1);
  EXPECT_FALSE(QueryScripted(stream).ok());
}

TEST(HostileServerTest, HugeExportFrameRejected) {
  ByteWriter reply;
  reply.WriteU64(uint64_t{1} << 60);
  ScriptedServer server(reply.data());
  TableClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto text = client.FetchMetricsText();
  ASSERT_FALSE(text.ok());
  EXPECT_NE(text.status().message().find("frame cap"), std::string::npos);
}

TEST(HostileServerTest, CloseMidFrameFails) {
  ByteWriter reply = HeaderFrame();
  reply.WriteU64(100);  // promise 100 payload bytes ...
  reply.WriteU8('D');   // ... deliver 1, hang up
  EXPECT_FALSE(QueryScripted(reply).ok());
}

TEST(HostileServerTest, CloseBeforeEndMarkerFails) {
  auto t = MixedTable();
  ByteWriter rows;
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kMyBinary, 0, 2, &rows).ok());
  ByteWriter reply = HeaderFrame();
  AppendFrame(rows, &reply);  // whole rows, but no end marker follows
  EXPECT_FALSE(QueryScripted(reply).ok());
}

}  // namespace
}  // namespace mlcs::client
