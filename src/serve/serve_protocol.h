#ifndef MLCS_SERVE_SERVE_PROTOCOL_H_
#define MLCS_SERVE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::serve {

/// Feature payload layout on the wire. The contrast mirrors the result-set
/// protocols in client/protocol.h, applied to the *request* direction:
///
///  - kRowMajor:  rows interleaved (f0,f1,...,f0,f1,...) — the
///                one-record-per-message shape a conventional RPC client
///                produces. The server must transpose into column-major
///                before predicting (the per-cell cost Figure 1's socket
///                bars pay).
///  - kColumnar:  each feature's values contiguous — matches ml::Matrix
///                (and the column store) exactly, so decode is a straight
///                per-column memcpy. The serving-side analogue of the
///                zero-copy column handoff.
enum class Layout : uint8_t { kRowMajor = 0, kColumnar = 1 };

const char* LayoutToString(Layout layout);

/// Response codes. Degradation is explicit: an overloaded server answers
/// `kOverloaded` immediately instead of queueing without bound.
enum class ServeCode : uint8_t {
  kOk = 0,
  kBadRequest = 1,
  kModelNotFound = 2,
  kOverloaded = 3,
  kDeadlineExceeded = 4,
  kShuttingDown = 5,
  kInternalError = 6,
};

const char* ServeCodeToString(ServeCode code);

/// Maps a non-OK response code (plus its message) onto a Status for
/// callers that do not need to distinguish the serving-specific codes.
Status ServeCodeToStatus(ServeCode code, const std::string& message);

/// Payload sanity bounds; a request declaring more is rejected with
/// kBadRequest before any allocation happens. (The frame around it is
/// capped by client::net::kMaxFrameBytes.)
inline constexpr uint32_t kMaxRequestRows = 1u << 20;
inline constexpr uint32_t kMaxRequestFeatures = 4096;

/// One predict call: label `features` with the stored model `model_name`.
/// In memory the features are always column-major (ml::Matrix); Layout
/// only governs the wire form.
struct PredictRequest {
  uint64_t request_id = 0;
  /// Milliseconds the client is willing to wait measured from arrival at
  /// the server; 0 means no deadline. Expired requests are answered with
  /// kDeadlineExceeded instead of being predicted.
  uint32_t deadline_ms = 0;
  std::string model_name;
  ml::Matrix features;
};

struct PredictResponse {
  uint64_t request_id = 0;
  ServeCode code = ServeCode::kOk;
  std::vector<int32_t> labels;  // one per feature row when code == kOk
  std::string message;          // human-readable detail when code != kOk
};

/// Encodes the request body — the body of one frame of the shared wire
/// layer (client/net_util.h) — in the given layout. The features are read
/// in place, so a client encodes its caller's matrix without first copying
/// it into a PredictRequest.
void EncodePredictRequest(uint64_t request_id, uint32_t deadline_ms,
                          const std::string& model_name,
                          const ml::Matrix& features, Layout layout,
                          ByteWriter* out);
inline void EncodePredictRequest(const PredictRequest& request, Layout layout,
                                 ByteWriter* out) {
  EncodePredictRequest(request.request_id, request.deadline_ms,
                       request.model_name, request.features, layout, out);
}

/// Decodes a request body. Row-major payloads are transposed into the
/// column-major Matrix here — that transpose is the measured layout cost.
Result<PredictRequest> DecodePredictRequest(ByteReader* in);

/// Best-effort extraction of the request id from a (possibly malformed)
/// request body so an error response can still be correlated; 0 when the
/// body is too short to contain one.
uint64_t PeekRequestId(const uint8_t* body, size_t size);

void EncodePredictResponse(const PredictResponse& response, ByteWriter* out);
Result<PredictResponse> DecodePredictResponse(ByteReader* in);

}  // namespace mlcs::serve

#endif  // MLCS_SERVE_SERVE_PROTOCOL_H_
