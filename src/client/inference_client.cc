#include "client/inference_client.h"

namespace mlcs::client {

Result<uint64_t> InferenceClient::Send(const std::string& model_name,
                                       const ml::Matrix& features,
                                       const InferenceCallOptions& options) {
  const uint64_t request_id = next_request_id_++;
  request_.Clear();
  size_t start = net::BeginFrame(&request_);
  serve::EncodePredictRequest(request_id, options.deadline_ms, model_name,
                              features, options.layout, &request_);
  MLCS_RETURN_IF_ERROR(net::EndFrame(&request_, start));
  MLCS_RETURN_IF_ERROR(SendFrames(request_));
  return request_id;
}

Result<serve::PredictResponse> InferenceClient::Receive() {
  MLCS_RETURN_IF_ERROR(ReadFrame(&response_));
  ByteReader reader(response_);
  return serve::DecodePredictResponse(&reader);
}

Result<serve::PredictResponse> InferenceClient::Call(
    const std::string& model_name, const ml::Matrix& features,
    const InferenceCallOptions& options) {
  MLCS_ASSIGN_OR_RETURN(uint64_t id, Send(model_name, features, options));
  MLCS_ASSIGN_OR_RETURN(serve::PredictResponse response, Receive());
  if (response.request_id != id) {
    return Status::Internal("response id " +
                            std::to_string(response.request_id) +
                            " does not match request id " +
                            std::to_string(id));
  }
  return response;
}

Result<std::vector<int32_t>> InferenceClient::Predict(
    const std::string& model_name, const ml::Matrix& features,
    const InferenceCallOptions& options) {
  MLCS_ASSIGN_OR_RETURN(serve::PredictResponse response,
                        Call(model_name, features, options));
  if (response.code != serve::ServeCode::kOk) {
    return serve::ServeCodeToStatus(response.code, response.message);
  }
  return std::move(response.labels);
}

}  // namespace mlcs::client
