#ifndef MLCS_CLIENT_PROTOCOL_H_
#define MLCS_CLIENT_PROTOCOL_H_

#include "common/byte_buffer.h"
#include "common/result.h"
#include "storage/table.h"

namespace mlcs::client {

/// Row-major result-set wire formats modeling the client protocols the
/// paper benchmarks against (§4, citing "Don't Hold My Data Hostage"):
///
///  - kPgText:    PostgreSQL-style — every value rendered as ASCII text
///                with a 4-byte per-field length prefix. Pays printf on
///                the server and strtol/strtod on the client, per cell.
///  - kMyBinary:  MySQL-style binary rows — per-row NULL bitmap + fixed
///                width little-endian values / length-prefixed strings.
///                Cheaper per cell but still row-major: the client must
///                transpose rows back into columns.
///  - kColumnar:  one block per frame (see TableServer); within it every
///                column's values are contiguous, so fixed-width no-null
///                columns encode and decode as a single memcpy. This is the
///                wire form of the column store itself — the protocol the
///                serving path (src/serve/) speaks.
///
/// The contrast between the row-major pair and the in-database path
/// (zero-copy column handoff to the UDF) is exactly Figure 1's "socket"
/// bars; kColumnar shows how close a socket protocol can get when it
/// stops fighting the storage layout.
enum class WireProtocol : uint8_t { kPgText = 0, kMyBinary = 1, kColumnar = 2 };

const char* WireProtocolToString(WireProtocol protocol);

/// A TableServer request, the body of one frame (client/net_util.h):
/// byte 0 the WireProtocol of the answer, the rest the SQL text.
struct QueryRequest {
  WireProtocol protocol = WireProtocol::kPgText;
  std::string sql;
};

void EncodeQueryRequest(WireProtocol protocol, const std::string& sql,
                        ByteWriter* out);
/// Rejects a protocol byte naming no WireProtocol ("bad protocol").
Result<QueryRequest> DecodeQueryRequest(ByteReader* in);

/// Result-set header: column names and types.
void EncodeHeader(const Schema& schema, ByteWriter* out);
Result<Schema> DecodeHeader(ByteReader* in);

/// Encodes rows [begin, begin+count) of `table`, one 'D' message per row.
Status EncodeRows(const Table& table, WireProtocol protocol, size_t begin,
                  size_t count, ByteWriter* out);

/// Terminator after all rows.
void EncodeEnd(ByteWriter* out);

/// Decodes one frame's messages ('D' rows or 'B' blocks, then possibly the
/// end marker) and appends their rows to `table`, converting every cell —
/// the client-side share of the protocol cost. Returns true when it read
/// the end marker, which leaves `in` just past it; false when `in` ran out
/// first, so more rows follow in the next frame.
Result<bool> DecodeMessages(ByteReader* in, WireProtocol protocol,
                            Table* table);

/// Decodes a whole result set held in one buffer: the header, then every
/// message up to the end marker (DecodeHeader + DecodeMessages). A buffer
/// that ends before the end marker is an error. TableClient decodes frame
/// by frame instead; this is the entry for callers that hold all the bytes.
Result<TablePtr> DecodeResultSet(ByteReader* in, WireProtocol protocol);

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_PROTOCOL_H_
