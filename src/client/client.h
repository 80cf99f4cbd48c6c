#ifndef MLCS_CLIENT_CLIENT_H_
#define MLCS_CLIENT_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/net_util.h"
#include "client/protocol.h"
#include "common/result.h"

namespace mlcs::client {

/// TCP client for TableServer — the "analysis tool connects to the
/// database over a socket" side of the benchmark. Query() ships SQL,
/// receives the result stream frame by frame and converts each frame's
/// rows back into columns as it arrives (that conversion IS the measured
/// client overhead). A response frame longer than net::kMaxFrameBytes, a
/// connection lost mid-stream or a malformed frame fails the call and
/// closes the connection; a server-reported error leaves it usable.
/// Connecting and the export frame come from net::ClientSocket.
class TableClient : public net::ClientSocket {
 public:
  /// Executes SQL on the server and materializes the result locally.
  Result<TablePtr> Query(const std::string& sql, WireProtocol protocol);

  /// Body bytes of every frame of the last Query's response, not counting
  /// the length prefixes (for throughput reporting).
  size_t last_response_bytes() const { return last_response_bytes_; }

 private:
  /// Reads one response frame into `frame`, reusing its capacity, and
  /// counts its bytes.
  Status ReadResponseFrame(std::vector<uint8_t>* frame);
  /// Decodes the header left in `header`, then reads and decodes row frames
  /// into `frame` until the end marker.
  Result<TablePtr> ReceiveRows(ByteReader* header, WireProtocol protocol,
                               std::vector<uint8_t>* frame);

  size_t last_response_bytes_ = 0;
};

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_CLIENT_H_
