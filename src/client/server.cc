#include "client/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "client/net_util.h"
#include "common/logging.h"

namespace mlcs::client {

namespace {

/// Payload bytes a row frame aims for. Small enough that the server encodes
/// the next frame while the client decodes this one, large enough that the
/// per-frame write and read stay cheap; chosen by measurement (DESIGN.md
/// §4 item 3).
constexpr size_t kFrameTargetBytes = 256u << 10;

/// Fills in the length prefix of the frame `frame` holds and sends it in
/// one write; false when it exceeds the cap or the peer is gone.
bool SendFrame(int fd, ByteWriter* frame) {
  return net::EndFrame(frame, 0).ok() && net::WriteAll(fd, *frame);
}

/// A whole error response: u8 1, then the message.
bool SendError(int fd, const std::string& message, ByteWriter* frame) {
  frame->Clear();
  net::BeginFrame(frame);
  frame->WriteU8(1);
  frame->WriteString(message);
  return SendFrame(fd, frame);
}

/// Streams `table`: a first frame with the ok flag and header, then frames
/// of whole rows (one block for kColumnar) near kFrameTargetBytes each, the
/// end marker closing the last. A frame's row count comes from the bytes
/// per row of the frame before; the first assumes 8 bytes a cell. Returns
/// false when the connection must close: the peer is gone, or a single row
/// exceeds net::kMaxFrameBytes.
bool SendResultSet(int fd, const Table& table, WireProtocol protocol,
                   ByteWriter* frame) {
  frame->Clear();
  net::BeginFrame(frame);
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
      frame->Clear();
      net::BeginFrame(frame);
      if (count > 0 && !EncodeRows(table, protocol, begin, count, frame).ok()) {
        return false;
      }
      size_t body_bytes = frame->size() - net::kFramePrefixBytes;
      if (body_bytes <= net::kMaxFrameBytes || count <= 1) break;
      count /= 2;  // these rows are far wider than the last frame's
    }
    if (count > 0) {
      frame_rows = std::max<size_t>(
          1, kFrameTargetBytes * count /
                 (frame->size() - net::kFramePrefixBytes));
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
  MLCS_ASSIGN_OR_RETURN(net::Listener listener, net::ListenLoopback(port));
  listen_fd_ = listener.fd;
  port_ = listener.port;
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
    int fd = net::Accept(listen_fd_);
    if (fd < 0) {
      if (running_.load()) {
        MLCS_LOG(kWarn) << "accept() failed: " << std::strerror(errno);
      }
      break;
    }
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
  std::vector<uint8_t> request;  // reused for every request frame
  ByteWriter frame;              // reused for every frame this connection sends
  while (running_.load()) {
    Status read = net::ReadFrame(fd, &request);
    if (!read.ok()) {
      // Tell a client whose frame is refused why before hanging up; one that
      // is gone gets nothing.
      if (read.code() == StatusCode::kInvalidArgument) {
        SendError(fd, read.message(), &frame);
      }
      break;
    }
    if (net::IsExportRequest(request.data(), request.size())) {
      frame.Clear();
      net::AppendExportAnswer(request.data(), request.size(), &frame);
      if (!net::WriteAll(fd, frame)) break;
      continue;
    }
    // Decoded before the query runs: a request the server cannot answer
    // must not change the database either.
    ByteReader reader(request);
    auto decoded = DecodeQueryRequest(&reader);
    if (!decoded.ok()) {
      if (!SendError(fd, decoded.status().message(), &frame)) break;
      continue;
    }
    const QueryRequest& query = decoded.ValueOrDie();
    auto result = db_->Query(query.sql);
    if (!result.ok()) {
      if (!SendError(fd, result.status().ToString(), &frame)) break;
      continue;
    }
    if (!SendResultSet(fd, *result.ValueOrDie(), query.protocol, &frame)) {
      break;
    }
  }
  ::close(fd);
}

}  // namespace mlcs::client
