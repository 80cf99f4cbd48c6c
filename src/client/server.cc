#include "client/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "client/net_util.h"
#include "common/logging.h"
#include "obs/export.h"

namespace mlcs::client {

namespace {

/// Payload bytes a row frame aims for. Small enough that the server encodes
/// the next frame while the client decodes this one, large enough that the
/// per-frame write and read stay cheap; chosen by measurement (DESIGN.md
/// §4 item 3).
constexpr size_t kFrameTargetBytes = 256u << 10;

/// Every frame is a u64 payload length, then the payload.
constexpr size_t kPrefixBytes = sizeof(uint64_t);

/// Empties `frame` and reserves its length prefix.
void StartFrame(ByteWriter* frame) {
  frame->Clear();
  frame->WriteU64(0);
}

/// Fills in the length prefix and sends prefix and payload in one write.
bool SendFrame(int fd, ByteWriter* frame) {
  frame->PatchU64(0, frame->size() - kPrefixBytes);
  return net::WriteAll(fd, frame->data().data(), frame->size());
}

/// A whole error response: u8 1, then the message.
bool SendError(int fd, const std::string& message, ByteWriter* frame) {
  StartFrame(frame);
  frame->WriteU8(1);
  frame->WriteString(message);
  return SendFrame(fd, frame);
}

/// Streams `table`: a first frame with the ok flag and header, then frames
/// of whole rows (one block for kColumnar) near kFrameTargetBytes each, the
/// end marker closing the last. A frame's row count comes from the bytes
/// per row of the frame before; the first assumes 8 bytes a cell. Returns
/// false when the connection must close: the peer is gone, or a single row
/// exceeds kMaxFrameBytes.
bool SendResultSet(int fd, const Table& table, WireProtocol protocol,
                   ByteWriter* frame) {
  StartFrame(frame);
  frame->WriteU8(0);
  EncodeHeader(table.schema(), frame);
  if (!SendFrame(fd, frame)) return false;
  const size_t num_rows = table.num_rows();
  size_t frame_rows = std::max<size_t>(
      1, kFrameTargetBytes / (8 * std::max<size_t>(1, table.num_columns())));
  size_t begin = 0;
  do {
    size_t count = std::min(frame_rows, num_rows - begin);
    while (true) {
      StartFrame(frame);
      if (count > 0 && !EncodeRows(table, protocol, begin, count, frame).ok()) {
        return false;
      }
      if (frame->size() <= kMaxFrameBytes || count <= 1) break;
      count /= 2;  // these rows are far wider than the last frame's
    }
    if (frame->size() > kMaxFrameBytes) return false;
    if (count > 0) {
      frame_rows = std::max<size_t>(
          1, kFrameTargetBytes * count / (frame->size() - kPrefixBytes));
    }
    begin += count;
    if (begin == num_rows) EncodeEnd(frame);
    if (!SendFrame(fd, frame)) return false;
  } while (begin < num_rows);
  return true;
}

}  // namespace

TableServer::~TableServer() { Stop(); }

Status TableServer::Start(uint16_t port) {
  if (running_.load()) return Status::InvalidArgument("already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::NetworkError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::NetworkError("bind() failed: " +
                                std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::NetworkError("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::NetworkError("listen() failed: " +
                                std::string(std::strerror(errno)));
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TableServer::Stop() {
  if (!running_.exchange(false)) return;
  // Claim the fd atomically: AcceptLoop reads listen_fd_ concurrently, so
  // the swap (not a plain write) is what makes the close race-free.
  // Closing the listen socket unblocks accept().
  int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Join every connection thread. An active thread's list node must stay
  // in place until the thread itself moves it to finished_threads_ (it
  // holds an iterator to it), so only the handle is taken here; joining an
  // active handle also guarantees its node reached finished_threads_,
  // where the next iteration discards it.
  while (true) {
    std::thread victim;
    {
      MutexLock lock(&threads_mutex_);
      if (!finished_threads_.empty()) {
        victim = std::move(finished_threads_.front());
        finished_threads_.pop_front();
      } else if (!active_threads_.empty()) {
        victim = std::move(active_threads_.front());
      } else {
        break;
      }
    }
    if (victim.joinable()) victim.join();
  }
}

size_t TableServer::tracked_connection_threads() const {
  MutexLock lock(&threads_mutex_);
  return active_threads_.size() + finished_threads_.size();
}

void TableServer::ReapFinishedLocked(std::list<std::thread>* out)
    MLCS_REQUIRES(threads_mutex_) {
  out->splice(out->end(), finished_threads_);
}

void TableServer::AcceptLoop() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (running_.load()) {
        MLCS_LOG(kWarn) << "accept() failed: " << std::strerror(errno);
      }
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::list<std::thread> to_join;
    {
      MutexLock lock(&threads_mutex_);
      ReapFinishedLocked(&to_join);
      auto it = active_threads_.emplace(active_threads_.end());
      // The assignment happens under the lock: the new thread's first act
      // is to take the same lock, so it cannot touch its node before the
      // handle has landed in it.
      *it = std::thread([this, fd, it] {
        ServeConnection(fd);
        std::list<std::thread> finished;
        {
          MutexLock inner(&threads_mutex_);
          ReapFinishedLocked(&finished);
          finished_threads_.splice(finished_threads_.end(), active_threads_,
                                   it);
        }
        // Join peers that finished before us — never ourselves; our own
        // node was just moved to finished_threads_ for a later reaper.
        for (auto& t : finished) {
          if (t.joinable()) t.join();
        }
      });
    }
    for (auto& t : to_join) {
      if (t.joinable()) t.join();
    }
  }
}

void TableServer::ServeConnection(int fd) {
  ByteWriter frame;  // reused for every frame this connection sends
  while (running_.load()) {
    uint8_t protocol_byte = 0;
    if (!net::ReadExact(fd, &protocol_byte, 1)) break;  // client gone
    uint32_t sql_len = 0;
    if (!net::ReadExact(fd, &sql_len, sizeof(sql_len))) break;
    if (sql_len > kMaxFrameBytes) {
      // Refuse absurd frames, but tell the client why before hanging up
      // instead of silently dropping the connection.
      SendError(fd,
                "query of " + std::to_string(sql_len) +
                    " bytes exceeds the frame cap",
                &frame);
      break;
    }
    std::string sql(sql_len, '\0');
    if (!net::ReadExact(fd, sql.data(), sql.size())) break;

    if (protocol_byte == kVerbPrometheus ||
        protocol_byte == kVerbChromeTrace) {
      // Observability verbs bypass SQL entirely: the payload is empty
      // (Prometheus) or a decimal trace id (Chrome trace).
      std::string text =
          protocol_byte == kVerbPrometheus
              ? obs::PrometheusText()
              : obs::ChromeTraceJson(std::strtoull(sql.c_str(), nullptr, 10));
      if (1 + sizeof(uint32_t) + text.size() > kMaxFrameBytes) {
        if (!SendError(fd,
                       "export of " + std::to_string(text.size()) +
                           " bytes exceeds the frame cap",
                       &frame)) {
          break;
        }
        continue;
      }
      StartFrame(&frame);
      frame.WriteU8(0);
      frame.WriteString(text);
      if (!SendFrame(fd, &frame)) break;
      continue;
    }

    // Checked before the query runs: a request the server cannot answer
    // must not change the database either.
    if (protocol_byte > static_cast<uint8_t>(WireProtocol::kColumnar)) {
      if (!SendError(fd, "bad protocol", &frame)) break;
      continue;
    }
    auto result = db_->Query(sql);
    if (!result.ok()) {
      if (!SendError(fd, result.status().ToString(), &frame)) break;
      continue;
    }
    if (!SendResultSet(fd, *result.ValueOrDie(),
                       static_cast<WireProtocol>(protocol_byte), &frame)) {
      break;
    }
  }
  ::close(fd);
}

}  // namespace mlcs::client
