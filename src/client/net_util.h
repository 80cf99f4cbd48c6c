#ifndef MLCS_CLIENT_NET_UTIL_H_
#define MLCS_CLIENT_NET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/result.h"

/// The one wire layer under both socket services (TableServer/TableClient
/// and serve::InferenceServer/InferenceClient): loopback sockets, frames,
/// the frame cap and the export frame. Every message either service sends
/// is one frame: a u32 little-endian body length, then the body.
namespace mlcs::client::net {

inline constexpr size_t kFramePrefixBytes = sizeof(uint32_t);

/// Largest frame body either side of either service accepts. A reader
/// refuses a longer declared length before allocating for it; EndFrame
/// refuses to finish a longer body.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Reads exactly `size` bytes; false on EOF/error.
[[nodiscard]] bool ReadExact(int fd, void* buffer, size_t size);

/// Writes all `size` bytes; false on error.
[[nodiscard]] bool WriteAll(int fd, const void* buffer, size_t size);
[[nodiscard]] bool WriteAll(int fd, const ByteWriter& bytes);

struct Listener {
  int fd = -1;
  uint16_t port = 0;  // the port actually bound
};

/// Binds 127.0.0.1:`port` (0 → ephemeral) and listens.
Result<Listener> ListenLoopback(uint16_t port);

/// accept() with TCP_NODELAY on the new socket; -1 (errno kept) on failure.
int Accept(int listen_fd);

/// Appends a placeholder length prefix to `out` and returns where the frame
/// starts; the caller then encodes the body in place.
size_t BeginFrame(ByteWriter* out);

/// Fills in the prefix of the frame begun at `start`. A body above
/// kMaxFrameBytes is an InvalidArgument, and is cut off again so `out`
/// ends at `start`. Frames appended to one writer leave in one write.
Status EndFrame(ByteWriter* out, size_t start);

/// Bytes of the first frame in data[0, size), prefix included, once it is
/// wholly buffered; 0 while more are needed; InvalidArgument when its
/// declared length exceeds kMaxFrameBytes.
Result<size_t> BufferedFrameSize(const uint8_t* data, size_t size);

/// Blocking read of one frame's body into `body`, reusing its capacity. A
/// declared length above the cap is InvalidArgument (nothing allocated); a
/// peer gone before or inside the frame is NetworkError.
Status ReadFrame(int fd, std::vector<uint8_t>* body);

/// The export frame (DESIGN.md §15), the same on both services. Request
/// body: 'm' (Prometheus text of the metrics registry), or 't' and a u64
/// trace id (Chrome trace_event JSON of that trace, 0 = every retained
/// one). Response body: a u8 status (0 ok, 1 error) and a length-prefixed
/// string, the export or the error.
enum class ExportKind : uint8_t { kMetrics = 'm', kChromeTrace = 't' };

struct ExportRequest {
  ExportKind kind = ExportKind::kMetrics;
  uint64_t trace_id = 0;  // kChromeTrace only
};

/// True when `body` opens with an export kind byte, which no request of
/// either service starts with.
bool IsExportRequest(const uint8_t* body, size_t size);

void EncodeExportRequest(const ExportRequest& request, ByteWriter* out);
Result<ExportRequest> DecodeExportRequest(ByteReader* in);

/// The servers' answer to the export request in `body`: renders the export
/// and appends one response frame to `out`. A malformed request, or an
/// export above the frame cap, is answered with an error.
void AppendExportAnswer(const uint8_t* body, size_t size, ByteWriter* out);

void EncodeExportResponse(bool ok, const std::string& text, ByteWriter* out);
/// The export text, or the server's error as a Status.
Result<std::string> DecodeExportResponse(ByteReader* in);

/// A client's end of a framed connection, and the base of both service
/// clients. A failed send or read (peer gone, frame cut short, declared
/// length above the cap) disconnects: the stream is out of step with the
/// server for good.
class ClientSocket {
 public:
  ClientSocket() = default;
  ~ClientSocket() { Disconnect(); }

  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  /// Connects to `host` (dotted IPv4):`port` with TCP_NODELAY.
  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// The export frame (serial use: the next frame must be the answer): the
  /// server's Prometheus text, or the Chrome trace_event JSON of one trace
  /// (0 = every retained trace). A server-side error leaves the connection
  /// open.
  Result<std::string> FetchMetricsText();
  Result<std::string> FetchChromeTrace(uint64_t trace_id);

 protected:
  /// Sends whole frames in one write.
  Status SendFrames(const ByteWriter& frames);
  Status ReadFrame(std::vector<uint8_t>* body);

 private:
  Result<std::string> FetchExport(const ExportRequest& request);

  int fd_ = -1;
};

}  // namespace mlcs::client::net

#endif  // MLCS_CLIENT_NET_UTIL_H_
