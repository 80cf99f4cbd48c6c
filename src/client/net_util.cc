#include "client/net_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/export.h"

namespace mlcs::client::net {

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// A NetworkError naming the failed call and errno.
Status SocketError(const char* call) {
  return Status::NetworkError(std::string(call) +
                              "() failed: " + std::strerror(errno));
}

/// OK when a frame body of `body_bytes` is within kMaxFrameBytes: the one
/// cap check of every frame read and written.
Status CheckFrameSize(uint64_t body_bytes) {
  if (body_bytes <= kMaxFrameBytes) return Status::OK();
  return Status::InvalidArgument("frame of " + std::to_string(body_bytes) +
                                 " bytes exceeds the frame cap");
}

}  // namespace

bool ReadExact(int fd, void* buffer, size_t size) {
  uint8_t* p = static_cast<uint8_t*>(buffer);
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n == 0) return false;  // orderly shutdown
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

bool WriteAll(int fd, const void* buffer, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(buffer);
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool WriteAll(int fd, const ByteWriter& bytes) {
  return WriteAll(fd, bytes.data().data(), bytes.size());
}

Result<Listener> ListenLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  Status failed;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0) {
    failed = SocketError("bind");
  } else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) !=
             0) {
    failed = SocketError("getsockname");
  } else if (::listen(fd, SOMAXCONN) != 0) {
    failed = SocketError("listen");
  }
  if (!failed.ok()) {
    ::close(fd);
    return failed;
  }
  return Listener{fd, ntohs(addr.sin_port)};
}

int Accept(int listen_fd) {
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) SetNoDelay(fd);
  return fd;
}

size_t BeginFrame(ByteWriter* out) {
  size_t start = out->size();
  out->WriteU32(0);
  return start;
}

Status EndFrame(ByteWriter* out, size_t start) {
  size_t body_bytes = out->size() - start - kFramePrefixBytes;
  Status st = CheckFrameSize(body_bytes);
  if (!st.ok()) {
    out->Truncate(start);
    return st;
  }
  out->PatchU32(start, static_cast<uint32_t>(body_bytes));
  return Status::OK();
}

Result<size_t> BufferedFrameSize(const uint8_t* data, size_t size) {
  if (size < kFramePrefixBytes) return size_t{0};
  uint32_t body_bytes = 0;
  std::memcpy(&body_bytes, data, sizeof(body_bytes));
  MLCS_RETURN_IF_ERROR(CheckFrameSize(body_bytes));
  size_t frame_bytes = kFramePrefixBytes + body_bytes;
  return size < frame_bytes ? 0 : frame_bytes;
}

Status ReadFrame(int fd, std::vector<uint8_t>* body) {
  uint32_t body_bytes = 0;
  if (!ReadExact(fd, &body_bytes, sizeof(body_bytes))) {
    return Status::NetworkError("connection closed while reading a frame");
  }
  MLCS_RETURN_IF_ERROR(CheckFrameSize(body_bytes));
  body->resize(body_bytes);
  if (!ReadExact(fd, body->data(), body->size())) {
    return Status::NetworkError("connection closed mid-frame");
  }
  return Status::OK();
}

bool IsExportRequest(const uint8_t* body, size_t size) {
  return size >= 1 &&
         (body[0] == static_cast<uint8_t>(ExportKind::kMetrics) ||
          body[0] == static_cast<uint8_t>(ExportKind::kChromeTrace));
}

void EncodeExportRequest(const ExportRequest& request, ByteWriter* out) {
  out->WriteU8(static_cast<uint8_t>(request.kind));
  if (request.kind == ExportKind::kChromeTrace) {
    out->WriteU64(request.trace_id);
  }
}

Result<ExportRequest> DecodeExportRequest(ByteReader* in) {
  ExportRequest request;
  MLCS_ASSIGN_OR_RETURN(uint8_t kind, in->ReadU8());
  request.kind = static_cast<ExportKind>(kind);
  if (request.kind == ExportKind::kChromeTrace) {
    MLCS_ASSIGN_OR_RETURN(request.trace_id, in->ReadU64());
  } else if (request.kind != ExportKind::kMetrics) {
    return Status::ParseError("unknown export kind byte " +
                              std::to_string(kind));
  }
  if (!in->AtEnd()) return Status::ParseError("trailing export request bytes");
  return request;
}

void AppendExportAnswer(const uint8_t* body, size_t size, ByteWriter* out) {
  ByteReader reader(body, size);
  auto request = DecodeExportRequest(&reader);
  Status st = request.status();
  size_t start = BeginFrame(out);
  if (request.ok()) {
    const ExportRequest& r = request.ValueOrDie();
    EncodeExportResponse(true,
                         r.kind == ExportKind::kMetrics
                             ? obs::PrometheusText()
                             : obs::ChromeTraceJson(r.trace_id),
                         out);
    st = EndFrame(out, start);  // over the cap, `out` ends at `start` again
    if (st.ok()) return;
    start = BeginFrame(out);
  }
  EncodeExportResponse(false, "export: " + st.message(), out);
  Status ignored = EndFrame(out, start);  // a message is far below the cap
  (void)ignored;
}

void EncodeExportResponse(bool ok, const std::string& text,
                          ByteWriter* out) {
  out->WriteU8(ok ? 0 : 1);
  out->WriteString(text);
}

Result<std::string> DecodeExportResponse(ByteReader* in) {
  MLCS_ASSIGN_OR_RETURN(uint8_t status, in->ReadU8());
  MLCS_ASSIGN_OR_RETURN(std::string text, in->ReadString());
  if (!in->AtEnd()) return Status::ParseError("trailing export bytes");
  if (status != 0) return Status::NetworkError("server error: " + text);
  return text;
}

Status ClientSocket::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return SocketError("socket");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = SocketError("connect");
    Disconnect();
    return st;
  }
  SetNoDelay(fd_);
  return Status::OK();
}

void ClientSocket::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status ClientSocket::SendFrames(const ByteWriter& frames) {
  if (fd_ < 0) return Status::NetworkError("not connected");
  if (!WriteAll(fd_, frames)) {
    Disconnect();
    return Status::NetworkError("failed to send a frame");
  }
  return Status::OK();
}

Status ClientSocket::ReadFrame(std::vector<uint8_t>* body) {
  Status st = net::ReadFrame(fd_, body);
  if (!st.ok()) Disconnect();
  return st;
}

Result<std::string> ClientSocket::FetchExport(const ExportRequest& request) {
  ByteWriter out;
  size_t start = BeginFrame(&out);
  EncodeExportRequest(request, &out);
  MLCS_RETURN_IF_ERROR(EndFrame(&out, start));
  MLCS_RETURN_IF_ERROR(SendFrames(out));
  std::vector<uint8_t> body;
  MLCS_RETURN_IF_ERROR(ReadFrame(&body));
  ByteReader reader(body);
  return DecodeExportResponse(&reader);
}

Result<std::string> ClientSocket::FetchMetricsText() {
  return FetchExport({ExportKind::kMetrics});
}

Result<std::string> ClientSocket::FetchChromeTrace(uint64_t trace_id) {
  return FetchExport({ExportKind::kChromeTrace, trace_id});
}

}  // namespace mlcs::client::net
