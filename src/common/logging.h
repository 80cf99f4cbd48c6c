#ifndef MLCS_COMMON_LOGGING_H_
#define MLCS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace mlcs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Structured key=value suffix for log lines, so operational warnings stay
/// machine-greppable:
///
///   MLCS_LOG(kWarn) << "dropped spans " << Kv("trace_id", id) << Kv("n", n);
///     → [WARN ...] dropped spans trace_id=7 n=42
///
/// String values are quoted; every pair carries one trailing space.
template <typename T>
std::string Kv(const char* key, const T& value) {
  std::ostringstream s;
  s << key << '=' << value << ' ';
  return s.str();
}
inline std::string Kv(const char* key, const std::string& value) {
  return std::string(key) + "=\"" + value + "\" ";
}
inline std::string Kv(const char* key, const char* value) {
  return Kv(key, std::string(value));
}

namespace internal {

/// Stream-style log sink; emits on destruction. Use via the MLCS_LOG macro.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace mlcs

#define MLCS_LOG(level)                                               \
  ::mlcs::internal::LogMessage(::mlcs::LogLevel::level, __FILE__, __LINE__)

#endif  // MLCS_COMMON_LOGGING_H_
