#include "client/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "client/net_util.h"

namespace mlcs::client {

TableClient::~TableClient() { Disconnect(); }

Status TableClient::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::NetworkError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status st = Status::NetworkError("connect() failed: " +
                                     std::string(std::strerror(errno)));
    Disconnect();
    return st;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void TableClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TableClient::SendRequest(uint8_t verb, const std::string& payload) {
  if (fd_ < 0) return Status::NetworkError("not connected");
  uint32_t payload_len = static_cast<uint32_t>(payload.size());
  if (!net::WriteAll(fd_, &verb, 1) ||
      !net::WriteAll(fd_, &payload_len, sizeof(payload_len)) ||
      !net::WriteAll(fd_, payload.data(), payload.size())) {
    Disconnect();
    return Status::NetworkError("failed to send request");
  }
  last_response_bytes_ = 0;
  return Status::OK();
}

Status TableClient::ReadFrame(std::vector<uint8_t>* frame) {
  uint64_t frame_len = 0;
  if (!net::ReadExact(fd_, &frame_len, sizeof(frame_len))) {
    Disconnect();
    return Status::NetworkError("connection closed while reading response");
  }
  if (frame_len > kMaxFrameBytes) {
    // The rest of the stream cannot be skipped safely: hang up.
    Disconnect();
    return Status::NetworkError("response frame of " +
                                std::to_string(frame_len) +
                                " bytes exceeds the frame cap");
  }
  frame->resize(frame_len);
  if (!net::ReadExact(fd_, frame->data(), frame->size())) {
    Disconnect();
    return Status::NetworkError("truncated response frame");
  }
  last_response_bytes_ += frame->size();
  return Status::OK();
}

Result<TablePtr> TableClient::Query(const std::string& sql,
                                    WireProtocol protocol) {
  MLCS_RETURN_IF_ERROR(SendRequest(static_cast<uint8_t>(protocol), sql));
  std::vector<uint8_t> frame;  // reused for every frame of the response
  MLCS_RETURN_IF_ERROR(ReadFrame(&frame));
  ByteReader reader(frame);
  MLCS_ASSIGN_OR_RETURN(uint8_t ok_flag, reader.ReadU8());
  if (ok_flag != 0) {
    MLCS_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
    return Status::NetworkError("server error: " + message);
  }
  Result<TablePtr> table = ReceiveRows(&reader, protocol, &frame);
  // Frames may remain unread behind a malformed one: the connection is out
  // of step with the server.
  if (!table.ok()) Disconnect();
  return table;
}

Result<TablePtr> TableClient::ReceiveRows(ByteReader* header,
                                          WireProtocol protocol,
                                          std::vector<uint8_t>* frame) {
  MLCS_ASSIGN_OR_RETURN(Schema schema, DecodeHeader(header));
  if (!header->AtEnd()) return Status::ParseError("trailing header bytes");
  auto table = Table::Make(std::move(schema));
  bool ended = false;
  while (!ended) {
    MLCS_RETURN_IF_ERROR(ReadFrame(frame));
    ByteReader reader(*frame);
    MLCS_ASSIGN_OR_RETURN(ended,
                          DecodeMessages(&reader, protocol, table.get()));
    if (ended && !reader.AtEnd()) {
      return Status::ParseError("bytes after the end marker");
    }
  }
  return table;
}

Result<std::string> TableClient::FetchExport(uint8_t verb,
                                             const std::string& payload) {
  MLCS_RETURN_IF_ERROR(SendRequest(verb, payload));
  std::vector<uint8_t> frame;
  MLCS_RETURN_IF_ERROR(ReadFrame(&frame));
  ByteReader reader(frame);
  MLCS_ASSIGN_OR_RETURN(uint8_t ok_flag, reader.ReadU8());
  MLCS_ASSIGN_OR_RETURN(std::string text, reader.ReadString());
  if (ok_flag != 0) return Status::NetworkError("server error: " + text);
  return text;
}

Result<std::string> TableClient::FetchMetricsText() {
  return FetchExport(kVerbPrometheus, "");
}

Result<std::string> TableClient::FetchChromeTrace(uint64_t trace_id) {
  return FetchExport(kVerbChromeTrace, std::to_string(trace_id));
}

}  // namespace mlcs::client
