// The shared wire layer (client/net_util.h) under hostile input: one
// malformed-frame suite run against both socket services over real
// sockets, and a deterministic sweep of mutated encodings through every
// decoder of the formats the two services speak, and of CSV files, whose
// reader shares the pg-text cell parser.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "client/inference_client.h"
#include "client/net_util.h"
#include "client/protocol.h"
#include "client/server.h"
#include "common/random.h"
#include "io/csv.h"
#include "ml/logistic_regression.h"
#include "modelstore/model_cache.h"
#include "modelstore/model_store.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "serve/inference_server.h"
#include "serve/serve_protocol.h"
#include "sql/database.h"

namespace mlcs::client {
namespace {

// ---------------------------------------------------------------------------
// Both services behind one interface
// ---------------------------------------------------------------------------

/// A service's real client, reduced to what the suite needs.
class WireClient {
 public:
  virtual ~WireClient() = default;
  virtual Status Connect(uint16_t port) = 0;
  virtual bool connected() const = 0;
  /// One well-formed request and its whole, checked answer.
  virtual Status Call() = 0;
  virtual Result<std::string> FetchMetricsText() = 0;
  virtual Result<std::string> FetchChromeTrace(uint64_t trace_id) = 0;
};

/// A running server and what the suite needs to know of its protocol.
class WireService {
 public:
  virtual ~WireService() = default;
  virtual uint16_t port() const = 0;
  virtual std::unique_ptr<WireClient> NewClient() = 0;
  /// True when `body` is this service's error answer and mentions `needle`.
  virtual bool IsErrorAnswer(const std::vector<uint8_t>& body,
                             const std::string& needle) = 0;
  /// Whole frames that open a good answer but do not finish it; a scripted
  /// server sends them before breaking the stream.
  virtual ByteWriter AnswerOpening() = 0;
};

class TableWireClient : public WireClient {
 public:
  Status Connect(uint16_t port) override {
    return client_.Connect("127.0.0.1", port);
  }
  bool connected() const override { return client_.connected(); }
  Status Call() override {
    MLCS_ASSIGN_OR_RETURN(
        TablePtr t,
        client_.Query("SELECT COUNT(*) FROM t", WireProtocol::kColumnar));
    MLCS_ASSIGN_OR_RETURN(Value count, t->GetValue(0, 0));
    if (count != Value::Int64(2)) return Status::Internal("wrong count");
    return Status::OK();
  }
  Result<std::string> FetchMetricsText() override {
    return client_.FetchMetricsText();
  }
  Result<std::string> FetchChromeTrace(uint64_t trace_id) override {
    return client_.FetchChromeTrace(trace_id);
  }

 private:
  TableClient client_;
};

class TableService : public WireService {
 public:
  TableService() : server_(&db_) {
    EXPECT_TRUE(db_.Run("CREATE TABLE t (x INTEGER);"
                        "INSERT INTO t VALUES (1), (2);")
                    .ok());
    EXPECT_TRUE(server_.Start(0).ok());
  }
  uint16_t port() const override { return server_.port(); }
  std::unique_ptr<WireClient> NewClient() override {
    return std::make_unique<TableWireClient>();
  }
  bool IsErrorAnswer(const std::vector<uint8_t>& body,
                     const std::string& needle) override {
    ByteReader reader(body);
    auto flag = reader.ReadU8();
    auto message = reader.ReadString();
    return flag.ok() && flag.ValueOrDie() == 1 && message.ok() &&
           message.ValueOrDie().find(needle) != std::string::npos;
  }
  /// The header frame of a result set, then one frame of whole rows
  /// without the end marker.
  ByteWriter AnswerOpening() override {
    Schema schema;
    schema.AddField("x", TypeId::kInt32);
    auto t = Table::Make(std::move(schema));
    EXPECT_TRUE(t->AppendRow({Value::Int32(7)}).ok());
    ByteWriter wire;
    size_t start = net::BeginFrame(&wire);
    wire.WriteU8(0);
    EncodeHeader(t->schema(), &wire);
    EXPECT_TRUE(net::EndFrame(&wire, start).ok());
    start = net::BeginFrame(&wire);
    EXPECT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 1, &wire).ok());
    EXPECT_TRUE(net::EndFrame(&wire, start).ok());
    return wire;
  }

 private:
  Database db_;
  TableServer server_;
};

/// Two well-separated classes, so the fitted model's labels are stable.
ml::Matrix TwoClassMatrix(size_t rows, uint64_t seed) {
  Rng rng(seed);
  ml::Matrix x(rows, 2);
  for (size_t r = 0; r < rows; ++r) {
    int cls = static_cast<int>(r % 2);
    x.Set(r, 0, rng.NextGaussian() + cls * 4.0);
    x.Set(r, 1, rng.NextGaussian() - cls * 4.0);
  }
  return x;
}

class InferenceWireClient : public WireClient {
 public:
  InferenceWireClient(const ml::Matrix* query, const ml::Labels* expected)
      : query_(query), expected_(expected) {}
  Status Connect(uint16_t port) override {
    return client_.Connect("127.0.0.1", port);
  }
  bool connected() const override { return client_.connected(); }
  Status Call() override {
    MLCS_ASSIGN_OR_RETURN(std::vector<int32_t> labels,
                          client_.Predict("m", *query_));
    if (labels != *expected_) return Status::Internal("wrong labels");
    return Status::OK();
  }
  Result<std::string> FetchMetricsText() override {
    return client_.FetchMetricsText();
  }
  Result<std::string> FetchChromeTrace(uint64_t trace_id) override {
    return client_.FetchChromeTrace(trace_id);
  }

 private:
  const ml::Matrix* query_;
  const ml::Labels* expected_;
  InferenceClient client_;
};

class InferenceService : public WireService {
 public:
  InferenceService() : store_(&db_), cache_(4) {
    EXPECT_TRUE(store_.Init().ok());
    ml::Matrix train = TwoClassMatrix(64, 7);
    ml::Labels labels(64);
    for (size_t r = 0; r < 64; ++r) labels[r] = static_cast<int32_t>(r % 2);
    ml::LogisticRegression model{ml::LogisticRegressionOptions{}};
    EXPECT_TRUE(model.Fit(train, labels).ok());
    EXPECT_TRUE(store_.SaveModel("m", model, 0.99, 64).ok());
    query_ = TwoClassMatrix(12, 21);
    expected_ = model.Predict(query_).ValueOrDie();
    serve::InferenceServerOptions options;
    options.model_cache = &cache_;
    server_ = std::make_unique<serve::InferenceServer>(&db_, &store_, options);
    EXPECT_TRUE(server_->Start(0).ok());
  }
  uint16_t port() const override { return server_->port(); }
  std::unique_ptr<WireClient> NewClient() override {
    return std::make_unique<InferenceWireClient>(&query_, &expected_);
  }
  bool IsErrorAnswer(const std::vector<uint8_t>& body,
                     const std::string& needle) override {
    ByteReader reader(body);
    auto response = serve::DecodePredictResponse(&reader);
    return response.ok() &&
           response.ValueOrDie().code == serve::ServeCode::kBadRequest &&
           response.ValueOrDie().message.find(needle) != std::string::npos;
  }
  /// A predict answer is a single frame: nothing opens it.
  ByteWriter AnswerOpening() override { return ByteWriter(); }

 private:
  Database db_;
  modelstore::ModelStore store_;
  modelstore::ModelCache cache_;
  ml::Matrix query_;
  ml::Labels expected_;
  std::unique_ptr<serve::InferenceServer> server_;
};

struct ServiceCase {
  const char* name;
  std::function<std::unique_ptr<WireService>()> make;
};

// ---------------------------------------------------------------------------
// Malformed frames over real sockets. Every case ends in a clean Status on
// the peer that caused it — never a hang, a crash, an allocation sized
// from the wire or a poisoned server.
// ---------------------------------------------------------------------------

class MalformedFrameTest : public ::testing::TestWithParam<ServiceCase> {
 protected:
  void SetUp() override { service_ = GetParam().make(); }
  void TearDown() override { service_.reset(); }

  /// A raw connection with no protocol smarts.
  std::unique_ptr<net::ClientSocket> RawConnect() {
    auto raw = std::make_unique<net::ClientSocket>();
    EXPECT_TRUE(raw->Connect("127.0.0.1", service_->port()).ok());
    return raw;
  }

  /// The server must still serve a well-formed client after whatever abuse
  /// the test inflicted — proof one bad peer cannot poison it.
  void ExpectServerStillHealthy() {
    auto client = service_->NewClient();
    ASSERT_TRUE(client->Connect(service_->port()).ok());
    Status st = client->Call();
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  std::unique_ptr<WireService> service_;
};

TEST_P(MalformedFrameTest, TruncatedLengthPrefixDisconnect) {
  auto raw = RawConnect();
  const uint8_t partial[] = {0x10, 0x00};  // 2 of the 4 prefix bytes
  ASSERT_TRUE(net::WriteAll(raw->fd(), partial, sizeof(partial)));
  raw->Disconnect();
  ExpectServerStillHealthy();
}

TEST_P(MalformedFrameTest, OverCapRequestAnsweredThenClosed) {
  for (uint32_t declared : {net::kMaxFrameBytes + 1, 0xF0000000u}) {
    auto raw = RawConnect();
    ASSERT_TRUE(net::WriteAll(raw->fd(), &declared, sizeof(declared)));
    // An error answer (not a silent hang-up, and certainly no allocation
    // of the declared size), then the server hangs up.
    std::vector<uint8_t> answer;
    ASSERT_TRUE(net::ReadFrame(raw->fd(), &answer).ok());
    EXPECT_TRUE(service_->IsErrorAnswer(answer, "frame cap")) << declared;
    EXPECT_FALSE(net::ReadFrame(raw->fd(), &answer).ok());
    ExpectServerStillHealthy();
  }
}

TEST_P(MalformedFrameTest, MidFrameDisconnect) {
  auto raw = RawConnect();
  uint32_t declared = 1000;  // promise 1000 bytes ...
  ASSERT_TRUE(net::WriteAll(raw->fd(), &declared, sizeof(declared)));
  ASSERT_TRUE(net::WriteAll(raw->fd(), "SELECT", 6));  // ... deliver 6
  raw->Disconnect();
  ExpectServerStillHealthy();
}

/// An export larger than the frame cap is answered with an error frame;
/// the connection stays usable.
TEST_P(MalformedFrameTest, ExportAboveFrameCapIsAnErrorFrame) {
  obs::FlightRecorder::Global().Clear();
  uint64_t trace_id = 0;
  {
    obs::TraceContext ctx("oversized_export", /*force=*/true);
    trace_id = ctx.trace_id();
    obs::ScopedSpan span("oversized_note");
    // Each control byte escapes to six JSON bytes ("\u0001").
    span.set_note(std::string(net::kMaxFrameBytes / 6 + 1024, '\x01'));
  }
  auto client = service_->NewClient();
  ASSERT_TRUE(client->Connect(service_->port()).ok());
  auto trace = client->FetchChromeTrace(trace_id);
  obs::FlightRecorder::Global().Clear();
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.status().ToString().find("exceeds the frame cap"),
            std::string::npos)
      << trace.status().ToString();
  EXPECT_TRUE(client->connected());
  Status st = client->Call();
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// ---------------------------------------------------------------------------
// The client against a hostile or broken server: a raw listening socket
// reads one request frame, answers it with scripted bytes and hangs up.
// Every case ends in a non-OK Status and a closed client connection.
// ---------------------------------------------------------------------------

class ScriptedServer {
 public:
  explicit ScriptedServer(const ByteWriter& reply) {
    auto listener = net::ListenLoopback(0);
    EXPECT_TRUE(listener.ok());
    if (listener.ok()) listener_ = listener.ValueOrDie();
    thread_ = std::thread([this, reply = reply.data()] {
      int fd = net::Accept(listener_.fd);
      if (fd < 0) return;
      std::vector<uint8_t> request;
      if (net::ReadFrame(fd, &request).ok()) {
        bool sent = net::WriteAll(fd, reply.data(), reply.size());
        (void)sent;
      }
      ::close(fd);
    });
  }
  ~ScriptedServer() {
    ::shutdown(listener_.fd, SHUT_RDWR);  // unblocks an accept never answered
    thread_.join();
    ::close(listener_.fd);
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  uint16_t port() const { return listener_.port; }

 private:
  net::Listener listener_;
  std::thread thread_;
};

class HostileServerTest : public ::testing::TestWithParam<ServiceCase> {
 protected:
  void SetUp() override { service_ = GetParam().make(); }

  /// One Call (or export fetch) answered with `reply`; the client must be
  /// disconnected afterwards.
  Status CallScripted(const ByteWriter& reply, bool fetch_export = false) {
    ScriptedServer server(reply);
    auto client = service_->NewClient();
    MLCS_RETURN_IF_ERROR(client->Connect(server.port()));
    Status status = fetch_export ? client->FetchMetricsText().status()
                                 : client->Call();
    EXPECT_FALSE(client->connected()) << status.ToString();
    return status;
  }

  std::unique_ptr<WireService> service_;
};

TEST_P(HostileServerTest, HugeFrameLengthRejectedBeforeAllocating) {
  ByteWriter reply;
  reply.WriteU32(0xFFFFFFFFu);
  Status status = CallScripted(reply);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("frame cap"), std::string::npos);

  // A later frame of a stream is capped the same way.
  ByteWriter stream = service_->AnswerOpening();
  stream.WriteU32(net::kMaxFrameBytes + 1);
  status = CallScripted(stream);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("frame cap"), std::string::npos);
}

TEST_P(HostileServerTest, CloseMidFrameFails) {
  ByteWriter reply = service_->AnswerOpening();
  reply.WriteU32(100);  // promise 100 body bytes ...
  reply.WriteU8('D');   // ... deliver 1, hang up
  EXPECT_FALSE(CallScripted(reply).ok());
}

TEST_P(HostileServerTest, CloseBeforeAnswerEndsFails) {
  EXPECT_FALSE(CallScripted(service_->AnswerOpening()).ok());
}

TEST_P(HostileServerTest, HugeOrTruncatedExportFrameRejected) {
  ByteWriter huge;
  huge.WriteU32(0xFFFFFFFFu);
  Status status = CallScripted(huge, /*fetch_export=*/true);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("frame cap"), std::string::npos);

  ByteWriter cut;
  cut.WriteU32(100);
  cut.WriteU8(0);
  EXPECT_FALSE(CallScripted(cut, /*fetch_export=*/true).ok());
}

const ServiceCase kServices[] = {
    {"TableServer", [] { return std::make_unique<TableService>(); }},
    {"InferenceServer", [] { return std::make_unique<InferenceService>(); }},
};

std::string ServiceName(const ::testing::TestParamInfo<ServiceCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(BothServices, MalformedFrameTest,
                         ::testing::ValuesIn(kServices), ServiceName);
INSTANTIATE_TEST_SUITE_P(BothServices, HostileServerTest,
                         ::testing::ValuesIn(kServices), ServiceName);

// ---------------------------------------------------------------------------
// Deterministic hostile-input sweep. Each valid frame is cut at every
// offset, hit by 200 seeded single-bit flips, and has every 2- and 4-byte
// window overwritten with inflated lengths. Every mutant goes through the
// frame reader and, prefix skipped, straight to the body decoder. A decode
// may return a value or a non-OK Status; it must never crash, hang, or (run
// under ASan+UBSan) touch memory it does not own.
// ---------------------------------------------------------------------------

/// Decodes one frame body; the Status of the decode.
using BodyDecoder = std::function<Status(ByteReader*)>;

struct SweepCount {
  size_t decodes = 0;
  size_t rejected = 0;
};

void DecodeMutant(const std::vector<uint8_t>& bytes, const BodyDecoder& decode,
                  SweepCount* count) {
  // Through the frame reader, as a server's buffered path sees it.
  auto whole = net::BufferedFrameSize(bytes.data(), bytes.size());
  if (whole.ok() && whole.ValueOrDie() > 0) {
    ByteReader body(bytes.data() + net::kFramePrefixBytes,
                    whole.ValueOrDie() - net::kFramePrefixBytes);
    ++count->decodes;
    if (!decode(&body).ok()) ++count->rejected;
  }
  // Straight to the body decoder, so cuts and flips reach every body byte.
  if (bytes.size() >= net::kFramePrefixBytes) {
    ByteReader body(bytes.data() + net::kFramePrefixBytes,
                    bytes.size() - net::kFramePrefixBytes);
    ++count->decodes;
    if (!decode(&body).ok()) ++count->rejected;
  }
}

/// Sweeps the single whole frame `frame`. `strict`: the body decoder must
/// reject every cut short of the whole body (formats whose end is
/// implied by their content; row frames and SQL legitimately end anywhere).
void Sweep(const ByteWriter& frame, bool strict, uint64_t seed,
           const BodyDecoder& decode) {
  const std::vector<uint8_t>& valid = frame.data();
  ASSERT_GE(valid.size(), net::kFramePrefixBytes);
  {
    ByteReader body(valid.data() + net::kFramePrefixBytes,
                    valid.size() - net::kFramePrefixBytes);
    Status st = decode(&body);
    ASSERT_TRUE(st.ok()) << "the unmutated frame must decode: "
                         << st.ToString();
    ASSERT_EQ(net::BufferedFrameSize(valid.data(), valid.size()).ValueOrDie(),
              valid.size());
  }
  SweepCount count;
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    std::vector<uint8_t> mutant(valid.begin(), valid.begin() + cut);
    // A cut frame is never whole: the reader waits for more bytes.
    EXPECT_EQ(net::BufferedFrameSize(mutant.data(), mutant.size()).ValueOrDie(),
              0u)
        << "cut at " << cut;
    if (strict && cut >= net::kFramePrefixBytes) {
      ByteReader body(mutant.data() + net::kFramePrefixBytes,
                      cut - net::kFramePrefixBytes);
      EXPECT_FALSE(decode(&body).ok()) << "cut at " << cut;
    }
    DecodeMutant(mutant, decode, &count);
  }
  Rng rng(seed);
  for (int flip = 0; flip < 200; ++flip) {
    std::vector<uint8_t> mutant = valid;
    size_t bit = rng.NextBounded(mutant.size() * 8);
    mutant[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    DecodeMutant(mutant, decode, &count);
  }
  const uint32_t inflated32[] = {0xFFFFFFFFu, net::kMaxFrameBytes + 1,
                                 static_cast<uint32_t>(valid.size())};
  for (size_t at = 0; at + sizeof(uint32_t) <= valid.size(); ++at) {
    for (uint32_t v : inflated32) {
      std::vector<uint8_t> mutant = valid;
      std::memcpy(mutant.data() + at, &v, sizeof(v));
      DecodeMutant(mutant, decode, &count);
    }
    std::vector<uint8_t> mutant = valid;
    const uint16_t inflated16 = 0xFFFF;
    std::memcpy(mutant.data() + at, &inflated16, sizeof(inflated16));
    DecodeMutant(mutant, decode, &count);
  }
  EXPECT_GT(count.decodes, valid.size());
  EXPECT_GT(count.rejected, 0u);
}

/// Wraps a body built by `encode` in one frame.
ByteWriter Frame(const std::function<void(ByteWriter*)>& encode) {
  ByteWriter out;
  size_t start = net::BeginFrame(&out);
  encode(&out);
  EXPECT_TRUE(net::EndFrame(&out, start).ok());
  return out;
}

/// A small table with every type and a NULL in every column.
TablePtr SweepTable() {
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
  EXPECT_TRUE(t->AppendRow({Value::MakeNull(TypeId::kInt32),
                            Value::MakeNull(TypeId::kInt64),
                            Value::MakeNull(TypeId::kDouble),
                            Value::MakeNull(TypeId::kBool),
                            Value::MakeNull(TypeId::kVarchar),
                            Value::MakeNull(TypeId::kBlob)})
                  .ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(42), Value::Int64(-7),
                            Value::Double(-0.125), Value::Bool(false),
                            Value::Varchar(""), Value::Blob("xyz")})
                  .ok());
  return t;
}

TEST(HostileInputSweep, QueryRequestFrame) {
  ByteWriter frame = Frame([](ByteWriter* out) {
    EncodeQueryRequest(WireProtocol::kMyBinary, "SELECT x FROM t WHERE x > 1",
                       out);
  });
  Sweep(frame, /*strict=*/false, 1, [](ByteReader* in) {
    return DecodeQueryRequest(in).status();
  });
}

TEST(HostileInputSweep, ResultSetHeaderFrame) {
  TablePtr t = SweepTable();
  ByteWriter frame = Frame([&](ByteWriter* out) {
    out->WriteU8(0);
    EncodeHeader(t->schema(), out);
  });
  Sweep(frame, /*strict=*/true, 2, [](ByteReader* in) -> Status {
    MLCS_ASSIGN_OR_RETURN(uint8_t ok_flag, in->ReadU8());
    if (ok_flag != 0) return Status::ParseError("not a header frame");
    MLCS_RETURN_IF_ERROR(DecodeHeader(in).status());
    if (!in->AtEnd()) return Status::ParseError("trailing header bytes");
    return Status::OK();
  });
}

TEST(HostileInputSweep, ResultSetRowFramesOfEveryProtocol) {
  TablePtr t = SweepTable();
  uint64_t seed = 3;
  for (WireProtocol protocol : {WireProtocol::kPgText,
                                WireProtocol::kMyBinary,
                                WireProtocol::kColumnar}) {
    SCOPED_TRACE(WireProtocolToString(protocol));
    BodyDecoder decode = [&](ByteReader* in) -> Status {
      auto table = Table::Make(t->schema());
      return DecodeMessages(in, protocol, table.get()).status();
    };
    // A middle frame (rows, no end marker) and a last one (end marker).
    ByteWriter middle = Frame([&](ByteWriter* out) {
      EXPECT_TRUE(EncodeRows(*t, protocol, 0, 2, out).ok());
    });
    Sweep(middle, /*strict=*/false, seed++, decode);
    ByteWriter last = Frame([&](ByteWriter* out) {
      EXPECT_TRUE(EncodeRows(*t, protocol, 2, 1, out).ok());
      EncodeEnd(out);
    });
    Sweep(last, /*strict=*/false, seed++, decode);
  }
}

TEST(HostileInputSweep, PredictRequestInBothLayouts) {
  serve::PredictRequest request;
  request.request_id = 99;
  request.deadline_ms = 250;
  request.model_name = "voter_rf";
  request.features = TwoClassMatrix(3, 5);
  uint64_t seed = 20;
  for (serve::Layout layout :
       {serve::Layout::kRowMajor, serve::Layout::kColumnar}) {
    SCOPED_TRACE(serve::LayoutToString(layout));
    ByteWriter frame = Frame([&](ByteWriter* out) {
      serve::EncodePredictRequest(request, layout, out);
    });
    Sweep(frame, /*strict=*/true, seed++, [](ByteReader* in) {
      return serve::DecodePredictRequest(in).status();
    });
  }
}

TEST(HostileInputSweep, PredictResponseOkAndError) {
  serve::PredictResponse ok;
  ok.request_id = 5;
  ok.labels = {0, 1, 1, 0, 1};
  serve::PredictResponse error;
  error.request_id = 6;
  error.code = serve::ServeCode::kOverloaded;
  error.message = "admission queue full";
  uint64_t seed = 30;
  for (const serve::PredictResponse* response : {&ok, &error}) {
    ByteWriter frame = Frame([&](ByteWriter* out) {
      serve::EncodePredictResponse(*response, out);
    });
    Sweep(frame, /*strict=*/true, seed++, [](ByteReader* in) {
      return serve::DecodePredictResponse(in).status();
    });
  }
}

TEST(HostileInputSweep, ExportRequestAndResponse) {
  BodyDecoder decode_request = [](ByteReader* in) {
    return net::DecodeExportRequest(in).status();
  };
  Sweep(Frame([](ByteWriter* out) {
          net::EncodeExportRequest({net::ExportKind::kMetrics}, out);
        }),
        /*strict=*/true, 40, decode_request);
  Sweep(Frame([](ByteWriter* out) {
          net::EncodeExportRequest(
              {net::ExportKind::kChromeTrace, 0x0123456789ABCDEFull}, out);
        }),
        /*strict=*/true, 41, decode_request);

  // An ok export, and an error whose decode is the server's error.
  Sweep(Frame([](ByteWriter* out) {
          net::EncodeExportResponse(true, "mlcs_up 1\n", out);
        }),
        /*strict=*/true, 42, [](ByteReader* in) {
          return net::DecodeExportResponse(in).status();
        });
  Sweep(Frame([](ByteWriter* out) {
          net::EncodeExportResponse(false, "export: unknown kind", out);
        }),
        /*strict=*/true, 43, [](ByteReader* in) {
          Status st = net::DecodeExportResponse(in).status();
          // The one NetworkError this decode returns is "server error".
          return st.code() == StatusCode::kNetworkError ? Status::OK() : st;
        });
}

/// Writes `bytes` to `path`, replacing it.
void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A CSV file takes the sweep's cuts and flips: each mutant is written to a
// file and read back with the table's schema. Every read must end in a
// table or a Status.
TEST(HostileInputSweep, CsvFileCutsAndBitFlips) {
  TablePtr full = SweepTable();
  Schema schema;  // every column but the BLOB, which CSV cannot carry
  for (size_t c = 0; c + 1 < full->num_columns(); ++c) {
    schema.AddField(full->schema().field(c).name, full->schema().field(c).type);
  }
  auto t = Table::Make(schema);
  for (size_t r = 0; r < full->num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      row.push_back(full->GetValue(r, c).ValueOrDie());
    }
    ASSERT_TRUE(t->AppendRow(row).ok());
  }
  ASSERT_TRUE(t->AppendRow({Value::Int32(7), Value::Int64(8),
                            Value::Double(1e-300), Value::Bool(true),
                            Value::Varchar("a \"q\", b\nc")})
                  .ok());
  const std::string path = testing::TempDir() + "/hostile_sweep.csv";
  ASSERT_TRUE(io::WriteCsv(*t, path).ok());
  std::string valid;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) valid.append(buf, n);
    std::fclose(f);
  }
  {
    auto back = io::ReadCsv(path, schema);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie()->num_rows(), t->num_rows());
  }
  size_t rejected = 0;
  auto read_mutant = [&](const std::string& mutant) {
    WriteBytes(path, mutant);
    if (!io::ReadCsv(path, schema).ok()) ++rejected;
  };
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    read_mutant(valid.substr(0, cut));
  }
  Rng rng(50);
  for (int flip = 0; flip < 200; ++flip) {
    std::string mutant = valid;
    size_t bit = rng.NextBounded(mutant.size() * 8);
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1u << (bit % 8)));
    read_mutant(mutant);
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace mlcs::client
