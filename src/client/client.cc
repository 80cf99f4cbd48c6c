#include "client/client.h"

namespace mlcs::client {

Status TableClient::ReadResponseFrame(std::vector<uint8_t>* frame) {
  MLCS_RETURN_IF_ERROR(ReadFrame(frame));
  last_response_bytes_ += frame->size();
  return Status::OK();
}

Result<TablePtr> TableClient::Query(const std::string& sql,
                                    WireProtocol protocol) {
  ByteWriter request;
  size_t start = net::BeginFrame(&request);
  EncodeQueryRequest(protocol, sql, &request);
  MLCS_RETURN_IF_ERROR(net::EndFrame(&request, start));
  MLCS_RETURN_IF_ERROR(SendFrames(request));
  last_response_bytes_ = 0;
  std::vector<uint8_t> frame;  // reused for every frame of the response
  MLCS_RETURN_IF_ERROR(ReadResponseFrame(&frame));
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
    MLCS_RETURN_IF_ERROR(ReadResponseFrame(frame));
    ByteReader reader(*frame);
    MLCS_ASSIGN_OR_RETURN(ended,
                          DecodeMessages(&reader, protocol, table.get()));
    if (ended && !reader.AtEnd()) {
      return Status::ParseError("bytes after the end marker");
    }
  }
  return table;
}

}  // namespace mlcs::client
