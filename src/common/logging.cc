#include "common/logging.h"

#include <cstdio>

#include "common/mutex.h"

namespace mlcs {

namespace {
/// The minimum level that is emitted, so library internals stay quiet in
/// tests and benchmarks.
constexpr LogLevel kLogLevel = LogLevel::kWarn;
Mutex g_log_mutex{"g_log_mutex"};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ < kLogLevel) return;
  MutexLock lock(&g_log_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

}  // namespace internal
}  // namespace mlcs
