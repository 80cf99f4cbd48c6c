// Async-signal-safe crash dump writer. EVERYTHING in this translation
// unit must stay callable from a signal handler: no allocation, no locks,
// no stdio, no std::string — only atomics, byte copies into static
// buffers, and open()/write()/close(). The `signal-unsafe` lint rule
// enforces this mechanically (tools/lint.py).

#include "obs/crash_dump.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdint>

#include "obs/crash_state.h"

namespace mlcs::obs::crash {

namespace {

constexpr size_t kDirBytes = 200;
constexpr size_t kPathBytes = 256;

char g_dump_dir[kDirBytes] = ".";
char g_dump_path[kPathBytes] = {0};
std::atomic<bool> g_installed{false};
std::atomic<bool> g_dump_in_progress{false};
/// Seqlock copy targets. Static (not stack): a signal handler's stack may
/// be nearly exhausted — SIGSEGV from stack overflow is a dump we want.
/// g_dump_in_progress serializes access.
char g_metrics_scratch[kMetricsBufBytes];
char g_slot_scratch[kTraceSlotBytes];

size_t StrLen(const char* s) {
  size_t n = 0;
  while (s[n] != '\0') ++n;
  return n;
}

void ByteCopy(char* dst, const char* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[i];
}

void WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // best effort: a failing fd must not hang the handler
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void WriteStr(int fd, const char* s) { WriteAll(fd, s, StrLen(s)); }

/// Decimal formatting without snprintf; buf must hold >= 21 bytes.
size_t FormatU64(uint64_t v, char* buf) {
  char tmp[21];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  buf[n] = '\0';
  return n;
}

void WriteU64(int fd, uint64_t v) {
  char buf[24];
  WriteAll(fd, buf, FormatU64(v, buf));
}

/// Seqlock read of one pre-serialized buffer into `dst` (capacity `cap`).
/// Returns the stable length, or 0 when the buffer is empty or a writer
/// kept it unstable across the retry budget.
template <typename Buf>
uint32_t ReadSeqBuf(Buf& buf, char* dst, size_t cap) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    uint32_t seq1 = buf.seq.load(std::memory_order_acquire);
    if (seq1 == 0 || (seq1 & 1u) != 0) continue;
    uint32_t len = buf.len.load(std::memory_order_acquire);
    if (len == 0 || len > cap) continue;
    ByteCopy(dst, buf.data, len);
    // The re-check must not move above the copy. A release RMW that adds
    // nothing orders the copy's loads before it without a standalone fence
    // (which g++ rejects under -fsanitize=thread).
    if (buf.seq.fetch_add(0, std::memory_order_acq_rel) == seq1) return len;
  }
  return 0;
}

/// The dump body. Runs in signal context for real signals; `sig == 0`
/// marks a direct (test) invocation.
void WriteCrashDump(int sig) {
  if (g_dump_in_progress.exchange(true)) return;  // re-entry: first wins
  int fd = ::open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    CrashState& state = GlobalCrashState();
    WriteStr(fd, "{\"signal\":");
    WriteU64(fd, static_cast<uint64_t>(sig));
    WriteStr(fd, ",\"pid\":");
    WriteU64(fd, static_cast<uint64_t>(::getpid()));

    WriteStr(fd, ",\"metrics\":");
    uint32_t mlen =
        ReadSeqBuf(state.metrics, g_metrics_scratch, kMetricsBufBytes);
    if (mlen > 0) {
      WriteAll(fd, g_metrics_scratch, mlen);
    } else {
      WriteStr(fd, "null");
    }

    WriteStr(fd, ",\"recent_traces\":[");
    bool first = true;
    for (size_t i = 0; i < kNumTraceSlots; ++i) {
      uint32_t len =
          ReadSeqBuf(state.trace_slots[i], g_slot_scratch, kTraceSlotBytes);
      if (len == 0) continue;
      if (!first) WriteStr(fd, ",");
      first = false;
      WriteAll(fd, g_slot_scratch, len);
    }

    WriteStr(fd, "],\"threads\":[");
    first = true;
    for (size_t i = 0; i < kMaxThreadSlots; ++i) {
      const ThreadSlot& slot = state.thread_slots[i];
      if (slot.in_use.load(std::memory_order_acquire) == 0) continue;
      uint32_t depth = slot.depth.load(std::memory_order_acquire);
      if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
      if (!first) WriteStr(fd, ",");
      first = false;
      WriteStr(fd, "{\"thread_index\":");
      WriteU64(fd, slot.thread_index.load(std::memory_order_relaxed));
      WriteStr(fd, ",\"trace_id\":");
      WriteU64(fd, slot.trace_id.load(std::memory_order_relaxed));
      WriteStr(fd, ",\"stack\":[");
      for (uint32_t d = 0; d < depth; ++d) {
        if (d > 0) WriteStr(fd, ",");
        WriteStr(fd, "\"");
        // Frame names were JSON-sanitized and NUL-terminated at push time
        // (trace.cc), so they are quotable verbatim.
        WriteStr(fd, slot.names[d]);
        WriteStr(fd, "\"");
      }
      WriteStr(fd, "]}");
    }
    WriteStr(fd, "]}\n");
    ::close(fd);
  }
  g_dump_in_progress.store(false);
}

void CrashSignalHandler(int sig) {
  int saved_errno = errno;
  WriteCrashDump(sig);
  if (sig == SIGUSR1) {
    errno = saved_errno;  // on-demand dump: return to the interrupted code
    return;
  }
  // Fatal path: restore the default disposition and re-deliver so the
  // process still dies with the right status (and core, if enabled).
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  ::sigemptyset(&dfl.sa_mask);
  ::sigaction(sig, &dfl, nullptr);
  ::raise(sig);
}

void RebuildPath() {
  size_t n = StrLen(g_dump_dir);
  ByteCopy(g_dump_path, g_dump_dir, n);
  g_dump_path[n++] = '/';
  const char prefix[] = "mlcs_crash_";
  ByteCopy(g_dump_path + n, prefix, sizeof(prefix) - 1);
  n += sizeof(prefix) - 1;
  n += FormatU64(static_cast<uint64_t>(::getpid()), g_dump_path + n);
  const char suffix[] = ".json";
  ByteCopy(g_dump_path + n, suffix, sizeof(suffix));  // includes the NUL
}

}  // namespace

bool InstallCrashHandler(bool install_fatal) {
  RebuildPath();
  struct sigaction sa = {};
  sa.sa_handler = CrashSignalHandler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (::sigaction(SIGUSR1, &sa, nullptr) != 0) return false;
  if (install_fatal) {
    // No SA_RESTART on fatal signals; they never return anyway.
    sa.sa_flags = 0;
    if (::sigaction(SIGSEGV, &sa, nullptr) != 0) return false;
    if (::sigaction(SIGABRT, &sa, nullptr) != 0) return false;
  }
  g_installed.store(true);
  return true;
}

void SetCrashDumpDir(const char* dir) {
  size_t n = StrLen(dir);
  if (n == 0) {
    dir = ".";
    n = 1;
  }
  if (n >= kDirBytes) n = kDirBytes - 1;
  ByteCopy(g_dump_dir, dir, n);
  g_dump_dir[n] = '\0';
  RebuildPath();
}

const char* CrashDumpPath() {
  if (g_dump_path[0] == '\0') RebuildPath();
  return g_dump_path;
}

void TriggerCrashDumpForTesting() {
  if (g_dump_path[0] == '\0') RebuildPath();
  WriteCrashDump(0);
}

}  // namespace mlcs::obs::crash
