#ifndef MLCS_CLIENT_CLIENT_H_
#define MLCS_CLIENT_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/protocol.h"
#include "common/result.h"

namespace mlcs::client {

/// TCP client for TableServer — the "analysis tool connects to the
/// database over a socket" side of the benchmark. Query() ships SQL,
/// receives the result stream frame by frame and converts each frame's
/// rows back into columns as it arrives (that conversion IS the measured
/// client overhead). A response frame longer than kMaxFrameBytes, a
/// connection lost mid-stream or a malformed frame fails the call and
/// closes the connection; a server-reported error leaves it usable.
class TableClient {
 public:
  TableClient() = default;
  ~TableClient();

  TableClient(const TableClient&) = delete;
  TableClient& operator=(const TableClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Executes SQL on the server and materializes the result locally.
  Result<TablePtr> Query(const std::string& sql, WireProtocol protocol);

  /// Observability verbs (kVerbPrometheus / kVerbChromeTrace): the
  /// server's Prometheus text exposition, or the Chrome trace_event JSON
  /// of one recorded trace (0 = every retained trace).
  Result<std::string> FetchMetricsText();
  Result<std::string> FetchChromeTrace(uint64_t trace_id);

  /// Payload bytes of every frame of the last response, not counting the
  /// 8-byte length prefixes (for throughput reporting).
  size_t last_response_bytes() const { return last_response_bytes_; }

 private:
  /// Sends one request frame and resets last_response_bytes_.
  Status SendRequest(uint8_t verb, const std::string& payload);
  /// Reads one response frame into `frame`, reusing its capacity; rejects
  /// a declared length above kMaxFrameBytes before allocating for it.
  /// Disconnects on failure.
  Status ReadFrame(std::vector<uint8_t>* frame);
  /// Decodes the header left in `header`, then reads and decodes row frames
  /// into `frame` until the end marker.
  Result<TablePtr> ReceiveRows(ByteReader* header, WireProtocol protocol,
                               std::vector<uint8_t>* frame);
  Result<std::string> FetchExport(uint8_t verb, const std::string& payload);

  int fd_ = -1;
  size_t last_response_bytes_ = 0;
};

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_CLIENT_H_
