#ifndef MLCS_CLIENT_SERVER_H_
#define MLCS_CLIENT_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <thread>

#include "client/protocol.h"
#include "common/mutex.h"
#include "common/result.h"
#include "sql/database.h"

namespace mlcs::client {

/// A TCP table server fronting a Database — the "separate database server
/// + socket connection" deployment the paper benchmarks against. Requests
/// and responses are frames of the shared wire layer (client/net_util.h).
/// A request is one frame: a QueryRequest (protocol byte, then the SQL) or
/// an export request; one declaring more than net::kMaxFrameBytes is
/// answered with an error, then the connection closes. An error is one
/// frame: u8 1 and a length-prefixed message. A result set is a first
/// frame holding u8 0 and the header, then row frames of about 256 KiB
/// (whole 'D' rows, or one 'B' block for kColumnar), the end marker
/// closing the last — encoded one frame at a time, so the client decodes
/// a frame while the server encodes the next, as PostgreSQL and MySQL
/// stream their row messages.
class TableServer {
 public:
  explicit TableServer(Database* db) : db_(db) {}
  ~TableServer();

  TableServer(const TableServer&) = delete;
  TableServer& operator=(const TableServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 → ephemeral) and starts the accept loop.
  Status Start(uint16_t port = 0);
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

  /// Connection threads currently tracked (live + awaiting reap). Stays
  /// bounded by the number of *concurrent* connections, not by the total
  /// ever accepted — the regression test for the old unbounded growth.
  size_t tracked_connection_threads() const;

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Joins every thread that has finished serving (never the caller's own).
  void ReapFinishedLocked(std::list<std::thread>* out)
      MLCS_REQUIRES(threads_mutex_);

  Database* const db_;
  std::atomic<int> listen_fd_{-1};
  /// Assigned in Start() before the accept thread exists, then read-only.
  uint16_t port_ = 0;  // lint:allow(guarded-member)
  std::atomic<bool> running_{false};
  /// Owned by Start()/Stop(), which the caller serializes (as documented).
  std::thread accept_thread_;  // lint:allow(guarded-member)

  /// Connection threads move from `active_threads_` to `finished_threads_`
  /// as their connection closes; the next event (a new connection, another
  /// connection closing, or Stop) joins them. At rest at most one finished
  /// thread waits unreaped, instead of one zombie per connection ever made.
  mutable Mutex threads_mutex_{"TableServer::threads_mutex_"};
  std::list<std::thread> active_threads_ MLCS_GUARDED_BY(threads_mutex_);
  std::list<std::thread> finished_threads_ MLCS_GUARDED_BY(threads_mutex_);
};

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_SERVER_H_
