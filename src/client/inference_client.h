#ifndef MLCS_CLIENT_INFERENCE_CLIENT_H_
#define MLCS_CLIENT_INFERENCE_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "client/net_util.h"
#include "common/byte_buffer.h"
#include "common/result.h"
#include "ml/matrix.h"
#include "serve/serve_protocol.h"

namespace mlcs::client {

struct InferenceCallOptions {
  /// Wire layout for the feature payload (see serve::Layout).
  serve::Layout layout = serve::Layout::kColumnar;
  /// Server-side deadline in milliseconds; 0 disables it.
  uint32_t deadline_ms = 0;
};

/// TCP client for serve::InferenceServer. The protocol is fully pipelined:
/// Send() can be called repeatedly without waiting, and Receive() collects
/// responses in whatever order the server finishes them (the request_id
/// correlates the two) — that pipelining is what gives the server's
/// micro-batcher concurrent requests to coalesce. Connecting, the export
/// frame and disconnecting on a broken frame come from net::ClientSocket.
class InferenceClient : public net::ClientSocket {
 public:

  /// Ships one predict request without waiting for the response; returns
  /// the request id Receive()'s response will carry.
  Result<uint64_t> Send(const std::string& model_name,
                        const ml::Matrix& features,
                        const InferenceCallOptions& options = {});

  /// Blocks for the next response frame, whichever request it answers.
  Result<serve::PredictResponse> Receive();

  /// Send + receive-until-matching-id. Out-of-order responses for *other*
  /// ids are an error here — Call() is for strictly serial use; pipelined
  /// callers pair Send() with their own Receive() loop.
  Result<serve::PredictResponse> Call(
      const std::string& model_name, const ml::Matrix& features,
      const InferenceCallOptions& options = {});

  /// Call(), then either the labels or the response code as a Status.
  Result<std::vector<int32_t>> Predict(
      const std::string& model_name, const ml::Matrix& features,
      const InferenceCallOptions& options = {});

 private:
  uint64_t next_request_id_ = 1;
  ByteWriter request_;             // reused by every Send
  std::vector<uint8_t> response_;  // reused by every Receive
};

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_INFERENCE_CLIENT_H_
