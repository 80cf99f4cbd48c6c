#include "serve/serve_protocol.h"

namespace mlcs::serve {

namespace {
constexpr uint8_t kRequestKind = 'P';
constexpr uint8_t kResponseKind = 'R';
}  // namespace

const char* LayoutToString(Layout layout) {
  switch (layout) {
    case Layout::kRowMajor:
      return "row-major";
    case Layout::kColumnar:
      return "columnar";
  }
  return "?";
}

const char* ServeCodeToString(ServeCode code) {
  switch (code) {
    case ServeCode::kOk:
      return "ok";
    case ServeCode::kBadRequest:
      return "bad-request";
    case ServeCode::kModelNotFound:
      return "model-not-found";
    case ServeCode::kOverloaded:
      return "overloaded";
    case ServeCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServeCode::kShuttingDown:
      return "shutting-down";
    case ServeCode::kInternalError:
      return "internal-error";
  }
  return "?";
}

Status ServeCodeToStatus(ServeCode code, const std::string& message) {
  std::string text =
      std::string(ServeCodeToString(code)) + ": " + message;
  switch (code) {
    case ServeCode::kOk:
      return Status::OK();
    case ServeCode::kBadRequest:
      return Status::InvalidArgument(std::move(text));
    case ServeCode::kModelNotFound:
      return Status::NotFound(std::move(text));
    case ServeCode::kOverloaded:
    case ServeCode::kDeadlineExceeded:
    case ServeCode::kShuttingDown:
      return Status::NetworkError(std::move(text));
    case ServeCode::kInternalError:
      return Status::Internal(std::move(text));
  }
  return Status::Internal(std::move(text));
}

void EncodePredictRequest(uint64_t request_id, uint32_t deadline_ms,
                          const std::string& model_name,
                          const ml::Matrix& x, Layout layout,
                          ByteWriter* out) {
  out->WriteU8(kRequestKind);
  out->WriteU64(request_id);
  out->WriteU32(deadline_ms);
  out->WriteString(model_name);
  out->WriteU8(static_cast<uint8_t>(layout));
  out->WriteU32(static_cast<uint32_t>(x.rows()));
  out->WriteU16(static_cast<uint16_t>(x.cols()));
  if (layout == Layout::kColumnar) {
    for (size_t c = 0; c < x.cols(); ++c) {
      ml::FeatureView col = x.view(c);
      if (col.f64() != nullptr) {
        out->WriteRaw(col.f64(), x.rows() * sizeof(double));
      } else {
        for (size_t r = 0; r < x.rows(); ++r) out->WriteDouble(col[r]);
      }
    }
  } else {
    for (size_t r = 0; r < x.rows(); ++r) {
      for (size_t c = 0; c < x.cols(); ++c) {
        out->WriteDouble(x.At(r, c));
      }
    }
  }
}

Result<PredictRequest> DecodePredictRequest(ByteReader* in) {
  MLCS_ASSIGN_OR_RETURN(uint8_t kind, in->ReadU8());
  if (kind != kRequestKind) {
    return Status::ParseError("unknown request kind byte " +
                              std::to_string(kind));
  }
  PredictRequest request;
  MLCS_ASSIGN_OR_RETURN(request.request_id, in->ReadU64());
  MLCS_ASSIGN_OR_RETURN(request.deadline_ms, in->ReadU32());
  MLCS_ASSIGN_OR_RETURN(request.model_name, in->ReadString());
  MLCS_ASSIGN_OR_RETURN(uint8_t layout_byte, in->ReadU8());
  if (layout_byte > static_cast<uint8_t>(Layout::kColumnar)) {
    return Status::ParseError("unknown layout byte " +
                              std::to_string(layout_byte));
  }
  Layout layout = static_cast<Layout>(layout_byte);
  MLCS_ASSIGN_OR_RETURN(uint32_t num_rows, in->ReadU32());
  MLCS_ASSIGN_OR_RETURN(uint16_t num_features, in->ReadU16());
  if (num_rows > kMaxRequestRows) {
    return Status::InvalidArgument("request declares " +
                                   std::to_string(num_rows) +
                                   " rows, above the per-request cap");
  }
  if (num_features > kMaxRequestFeatures) {
    return Status::InvalidArgument("request declares " +
                                   std::to_string(num_features) +
                                   " features, above the per-request cap");
  }
  // The declared payload must actually be present before any allocation.
  size_t payload = static_cast<size_t>(num_rows) * num_features *
                   sizeof(double);
  if (in->remaining() < payload) {
    return Status::OutOfRange("truncated feature payload: need " +
                              std::to_string(payload) + " bytes, have " +
                              std::to_string(in->remaining()));
  }
  request.features = ml::Matrix(num_rows, num_features);
  if (layout == Layout::kColumnar) {
    // Straight per-column copy — the wire layout IS the matrix layout.
    for (size_t c = 0; c < num_features; ++c) {
      MLCS_RETURN_IF_ERROR(in->ReadRaw(request.features.mutable_column(c),
                                       num_rows * sizeof(double)));
    }
  } else {
    // Row-major wire form: transpose cell by cell.
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t c = 0; c < num_features; ++c) {
        MLCS_ASSIGN_OR_RETURN(double v, in->ReadDouble());
        request.features.Set(r, c, v);
      }
    }
  }
  return request;
}

uint64_t PeekRequestId(const uint8_t* body, size_t size) {
  if (size < 1 + sizeof(uint64_t) || body[0] != kRequestKind) return 0;
  uint64_t id = 0;
  std::memcpy(&id, body + 1, sizeof(id));
  return id;
}

void EncodePredictResponse(const PredictResponse& response, ByteWriter* out) {
  out->WriteU8(kResponseKind);
  out->WriteU64(response.request_id);
  out->WriteU8(static_cast<uint8_t>(response.code));
  if (response.code == ServeCode::kOk) {
    out->WriteU32(static_cast<uint32_t>(response.labels.size()));
    out->WriteRaw(response.labels.data(),
                  response.labels.size() * sizeof(int32_t));
  } else {
    out->WriteString(response.message);
  }
}

Result<PredictResponse> DecodePredictResponse(ByteReader* in) {
  MLCS_ASSIGN_OR_RETURN(uint8_t kind, in->ReadU8());
  if (kind != kResponseKind) {
    return Status::ParseError("unknown response kind byte " +
                              std::to_string(kind));
  }
  PredictResponse response;
  MLCS_ASSIGN_OR_RETURN(response.request_id, in->ReadU64());
  MLCS_ASSIGN_OR_RETURN(uint8_t code_byte, in->ReadU8());
  if (code_byte > static_cast<uint8_t>(ServeCode::kInternalError)) {
    return Status::ParseError("unknown response code byte " +
                              std::to_string(code_byte));
  }
  response.code = static_cast<ServeCode>(code_byte);
  if (response.code == ServeCode::kOk) {
    MLCS_ASSIGN_OR_RETURN(uint32_t count, in->ReadU32());
    if (count > kMaxRequestRows) {
      return Status::ParseError("response declares an absurd label count");
    }
    if (in->remaining() < count * sizeof(int32_t)) {
      return Status::OutOfRange("truncated label payload");
    }
    response.labels.resize(count);
    MLCS_RETURN_IF_ERROR(
        in->ReadRaw(response.labels.data(), count * sizeof(int32_t)));
  } else {
    MLCS_ASSIGN_OR_RETURN(response.message, in->ReadString());
  }
  return response;
}

}  // namespace mlcs::serve
