#include "serve/inference_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "client/net_util.h"
#include "common/logging.h"

namespace mlcs::serve {

namespace net = client::net;

namespace {

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

InferenceServer::Conn::~Conn() { ::close(fd); }

InferenceServer::InferenceServer(Database* db, modelstore::ModelStore* store,
                                 InferenceServerOptions options)
    : db_(db),
      store_(store),
      options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : &ThreadPool::Global()),
      cache_(options_.model_cache != nullptr
                 ? options_.model_cache
                 : &modelstore::ModelCache::Global()) {
  (void)db_;  // reserved for serving-side SQL (health/metadata queries)
}

InferenceServer::~InferenceServer() { Stop(); }

Status InferenceServer::Start(uint16_t port) {
  if (running_.load()) return Status::InvalidArgument("already running");
  MLCS_ASSIGN_OR_RETURN(net::Listener listener, net::ListenLoopback(port));
  if (::pipe(wake_pipe_) != 0) {
    ::close(listener.fd);
    return Status::NetworkError("pipe() failed");
  }
  SetNonBlocking(listener.fd);
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
  port_ = listener.port;
  listen_fd_.store(listener.fd);
  queue_ = std::make_unique<BoundedQueue<Pending>>(
      options_.max_queue_requests, "serve.admission");
  draining_.store(false);
  io_stop_.store(false);
  running_.store(true);
  // Dedicated long-lived loops, not units of work — they must not occupy
  // (or deadlock behind) the shared pool's workers.
  io_thread_ = std::thread([this] { IoLoop(); });      // lint:allow(naked-thread)
  batch_thread_ = std::thread([this] { BatchLoop(); });  // lint:allow(naked-thread)
  return Status::OK();
}

void InferenceServer::Stop() {
  if (!running_.exchange(false)) return;
  // Phase 1: refuse new work. New connections stop at the closed listen
  // socket; frames that still arrive on live connections are answered
  // with kShuttingDown by the I/O thread.
  draining_.store(true);
  int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) ::close(lfd);
  // Phase 2: drain. Closing the queue lets the batcher pop every admitted
  // request, answer it, and exit — no accepted request goes unanswered.
  queue_->Close();
  if (batch_thread_.joinable()) batch_thread_.join();
  // Phase 3: stop. All responses are on the wire; now the I/O thread can
  // go, taking every connection (and its fd) with it.
  io_stop_.store(true);
  if (wake_pipe_[1] >= 0) {
    uint8_t byte = 1;
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) ::close(wake_pipe_[i]);
    wake_pipe_[i] = -1;
  }
}

InferenceServerStats InferenceServer::stats() const {
  InferenceServerStats out;
  out.requests_accepted = stats_.requests_accepted.Value();
  out.responses_ok = stats_.responses_ok.Value();
  out.rejected_overload = stats_.rejected_overload.Value();
  out.rejected_bad_request = stats_.rejected_bad_request.Value();
  out.rejected_shutdown = stats_.rejected_shutdown.Value();
  out.expired_deadline = stats_.expired_deadline.Value();
  out.failed_internal = stats_.failed_internal.Value();
  out.batches_executed = stats_.batches_executed.Value();
  out.batched_requests = stats_.batched_requests.Value();
  out.batched_rows = stats_.batched_rows.Value();
  out.peak_queue_depth = stats_.peak_queue_depth.Value();
  out.peak_batch_requests = stats_.peak_batch_requests.Value();
  return out;
}

void InferenceServer::IoLoop() {
  std::unordered_map<int, ConnPtr> conns;
  std::vector<pollfd> pfds;
  while (!io_stop_.load()) {
    pfds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    int lfd = listen_fd_.load();
    if (lfd >= 0) pfds.push_back({lfd, POLLIN, 0});
    for (const auto& [fd, conn] : conns) {
      pfds.push_back({fd, POLLIN, 0});
    }
    int n = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      MLCS_LOG(kWarn) << "poll() failed: " << std::strerror(errno);
      break;
    }
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      if (p.fd == wake_pipe_[0]) {
        uint8_t drain[64];
        while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (lfd >= 0 && p.fd == lfd) {
        while (true) {
          int cfd = net::Accept(lfd);
          // EAGAIN when the backlog is drained; EBADF if Stop() closed the
          // socket under us — both end the accept burst harmlessly.
          if (cfd < 0) break;
          conns.emplace(cfd, std::make_shared<Conn>(cfd));
        }
        continue;
      }
      auto it = conns.find(p.fd);
      if (it == conns.end()) continue;
      if (!ReadAndDispatch(it->second)) conns.erase(it);
    }
  }
  // Dropping the map releases the I/O thread's references; each fd closes
  // once any in-flight response holding the Conn finishes.
  conns.clear();
}

bool InferenceServer::ReadAndDispatch(const ConnPtr& conn) {
  bool peer_gone = false;
  while (true) {
    uint8_t buf[16384];
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      conn->inbuf.insert(conn->inbuf.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      peer_gone = true;  // orderly shutdown; flush what we have
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    peer_gone = true;
    break;
  }
  if (!ProcessBufferedFrames(conn)) return false;
  return !peer_gone;
}

bool InferenceServer::ProcessBufferedFrames(const ConnPtr& conn) {
  std::vector<uint8_t>& buf = conn->inbuf;
  size_t consumed = 0;
  while (true) {
    auto frame_bytes =
        net::BufferedFrameSize(buf.data() + consumed, buf.size() - consumed);
    if (!frame_bytes.ok()) {
      stats_.rejected_bad_request.Add(1);
      RespondError(conn, 0, ServeCode::kBadRequest,
                   frame_bytes.status().message());
      return false;  // cannot resynchronize a corrupt stream
    }
    size_t n = frame_bytes.ValueOrDie();
    if (n == 0) break;  // the next frame is not wholly buffered yet
    HandleFrame(conn, buf.data() + consumed + net::kFramePrefixBytes,
                n - net::kFramePrefixBytes);
    consumed += n;
  }
  if (consumed > 0) {
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(consumed));
  }
  return true;
}

void InferenceServer::HandleFrame(const ConnPtr& conn, const uint8_t* body,
                                  size_t size) {
  if (net::IsExportRequest(body, size)) {
    // Rendered as a pool task, not on this I/O thread: a large export must
    // not stall reads on every connection. The task holds only the
    // connection and its own copy of the request, so it may outlive the
    // server; a scrape never queues behind inference.
    std::vector<uint8_t> request(body, body + size);
    pool_->Submit([conn, request = std::move(request)] {
      ByteWriter out;
      net::AppendExportAnswer(request.data(), request.size(), &out);
      MutexLock lock(&conn->write_mutex);
      bool ignored = net::WriteAll(conn->fd, out);
      (void)ignored;
    });
    return;
  }
  ByteReader reader(body, size);
  auto decoded = DecodePredictRequest(&reader);
  if (!decoded.ok()) {
    stats_.rejected_bad_request.Add(1);
    RespondError(conn, PeekRequestId(body, size), ServeCode::kBadRequest,
                 decoded.status().ToString());
    return;
  }
  Pending pending{conn, std::move(decoded).ValueOrDie(),
                  std::chrono::steady_clock::now()};
  uint64_t id = pending.request.request_id;
  if (draining_.load()) {
    stats_.rejected_shutdown.Add(1);
    RespondError(conn, id, ServeCode::kShuttingDown, "server is draining");
    return;
  }
  if (!queue_->TryPush(std::move(pending))) {
    // Graceful degradation: the bounded queue is full (or just closed by
    // Stop), so answer immediately instead of queueing without bound.
    if (draining_.load()) {
      stats_.rejected_shutdown.Add(1);
      RespondError(conn, id, ServeCode::kShuttingDown, "server is draining");
    } else {
      stats_.rejected_overload.Add(1);
      RespondError(conn, id, ServeCode::kOverloaded,
                   "admission queue full (" +
                       std::to_string(queue_->capacity()) + " requests)");
    }
    return;
  }
  stats_.requests_accepted.Add(1);
  stats_.peak_queue_depth.UpdateMax(queue_->size());
}

void InferenceServer::BatchLoop() {
  while (true) {
    std::optional<Pending> first = queue_->PopWait();
    if (!first.has_value()) break;  // closed and fully drained
    std::vector<Pending> batch;
    size_t rows = first->request.features.rows();
    batch.push_back(std::move(*first));
    // The batch is everything already queued; requests that arrive while
    // it runs form the next one.
    while (options_.batching_enabled && rows < options_.max_batch_rows) {
      std::optional<Pending> next = queue_->TryPop();
      if (!next.has_value()) break;
      rows += next->request.features.rows();
      batch.push_back(std::move(*next));
    }
    if (options_.test_batch_hook) options_.test_batch_hook();
    ExecuteBatch(std::move(batch));
  }
}

void InferenceServer::ExecuteBatch(std::vector<Pending> batch) {
  // One trace per batch. Admission waits are recorded as synthetic spans
  // (their start predates this context); predict spans attach from
  // whichever thread runs the group. Futures are waited below, so `trace`
  // outlives them.
  obs::TraceContext trace("serve.batch");
  if (trace.active()) {
    auto now = std::chrono::steady_clock::now();
    for (const Pending& p : batch) {
      trace.RecordSpan("serve.admission", p.arrival, now,
                       p.request.features.rows());
    }
  }
  // Group by (model, feature count): each group becomes one vectorized
  // Predict. Mixed-model batches split here, not at admission, so one
  // batch carries every model's queued requests.
  struct Group {
    std::vector<Pending*> members;
    size_t rows = 0;
  };
  std::vector<Group> groups;
  for (Pending& p : batch) {
    Group* target = nullptr;
    for (Group& g : groups) {
      if (g.members[0]->request.model_name == p.request.model_name &&
          g.members[0]->request.features.cols() == p.request.features.cols()) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      groups.emplace_back();
      target = &groups.back();
    }
    target->members.push_back(&p);
    target->rows += p.request.features.rows();
  }
  // Every group but the last goes to the shared pool; the batch thread
  // predicts the last one itself while those run, so a single-model batch
  // never pays a pool handoff.
  obs::TraceContext* tctx = trace.active() ? &trace : nullptr;
  std::vector<std::future<void>> futures;
  futures.reserve(groups.size() - 1);
  for (size_t i = 0; i + 1 < groups.size(); ++i) {
    Group* g = &groups[i];
    futures.push_back(pool_->Submit(
        [this, g, tctx] { RunGroup(g->members, g->rows, tctx); }));
  }
  RunGroup(groups.back().members, groups.back().rows, tctx);
  for (auto& f : futures) f.wait();
}

void InferenceServer::RunGroup(std::vector<Pending*>& members,
                               size_t total_rows, obs::TraceContext* trace) {
  obs::ScopedTraceAttach attach(trace);
  obs::ScopedSpan span("serve.predict");
  span.set_rows_in(total_rows);
  auto now = std::chrono::steady_clock::now();
  std::vector<Pending*> live;
  live.reserve(members.size());
  for (Pending* p : members) {
    if (p->request.deadline_ms > 0 &&
        now - p->arrival >
            std::chrono::milliseconds(p->request.deadline_ms)) {
      stats_.expired_deadline.Add(1);
      RespondError(p->conn, p->request.request_id,
                   ServeCode::kDeadlineExceeded,
                   "deadline of " + std::to_string(p->request.deadline_ms) +
                       "ms expired before execution");
      total_rows -= p->request.features.rows();
    } else {
      live.push_back(p);
    }
  }
  if (live.empty()) return;
  const std::string& model_name = live[0]->request.model_name;
  auto blob = store_->LoadModelBlob(model_name);
  if (!blob.ok()) {
    ServeCode code = blob.status().code() == StatusCode::kNotFound
                         ? ServeCode::kModelNotFound
                         : ServeCode::kInternalError;
    for (Pending* p : live) {
      stats_.failed_internal.Add(1);
      RespondError(p->conn, p->request.request_id, code,
                   blob.status().ToString());
    }
    return;
  }
  // Content-addressed snapshot cache: a retrained model has different
  // bytes, so a stale snapshot can never be served (paper §5.1). Even a
  // hit keys the whole BLOB, once per batch (span `model_cache.get`).
  auto model = cache_->Get(blob.ValueOrDie());
  if (!model.ok()) {
    for (Pending* p : live) {
      stats_.failed_internal.Add(1);
      RespondError(p->conn, p->request.request_id,
                   ServeCode::kInternalError, model.status().ToString());
    }
    return;
  }
  // One column-major matrix for the whole group; single-request groups
  // predict in place with no copy at all.
  size_t cols = live[0]->request.features.cols();
  const ml::Matrix* x = &live[0]->request.features;
  ml::Matrix concat;
  if (live.size() > 1) {
    concat = ml::Matrix(total_rows, cols);
    for (size_t c = 0; c < cols; ++c) {
      double* out = concat.mutable_column(c);
      for (Pending* p : live) {
        // Decoded requests hold owned doubles.
        const ml::Matrix& src = p->request.features;
        std::memcpy(out, src.view(c).f64(), src.rows() * sizeof(double));
        out += src.rows();
      }
    }
    x = &concat;
  }
  auto labels = model.ValueOrDie()->Predict(*x);
  if (!labels.ok()) {
    // Typically a feature-count mismatch against the fitted model: the
    // request is malformed, not the server.
    for (Pending* p : live) {
      stats_.rejected_bad_request.Add(1);
      RespondError(p->conn, p->request.request_id, ServeCode::kBadRequest,
                   labels.status().ToString());
    }
    return;
  }
  // Count the batch before writing any response: a client that has seen
  // its answer must be able to observe the matching counters via stats().
  stats_.batches_executed.Add(1);
  stats_.batched_requests.Add(live.size());
  stats_.batched_rows.Add(total_rows);
  stats_.peak_batch_requests.UpdateMax(live.size());
  stats_.responses_ok.Add(live.size());
  span.set_rows_out(total_rows);
  // Every OK response of a connection goes into one buffer of frames that
  // leaves in a single write.
  std::unordered_map<Conn*, ByteWriter> outboxes;
  const ml::Labels& all = labels.ValueOrDie();
  PredictResponse response;
  size_t offset = 0;
  for (Pending* p : live) {
    size_t rows = p->request.features.rows();
    response.request_id = p->request.request_id;
    response.labels.assign(
        all.begin() + static_cast<std::ptrdiff_t>(offset),
        all.begin() + static_cast<std::ptrdiff_t>(offset + rows));
    offset += rows;
    ByteWriter* outbox = &outboxes[p->conn.get()];
    size_t start = net::BeginFrame(outbox);
    EncodePredictResponse(response, outbox);
    // Labels of at most kMaxRequestRows rows are far below the frame cap.
    Status ignored = net::EndFrame(outbox, start);
    (void)ignored;
  }
  for (auto& [conn, frames] : outboxes) {
    MutexLock lock(&conn->write_mutex);
    // A failed write means the peer vanished; the I/O thread notices the
    // hangup independently, so the error is dropped on purpose.
    bool ignored = net::WriteAll(conn->fd, frames);
    (void)ignored;
  }
}

void InferenceServer::RespondError(const ConnPtr& conn, uint64_t request_id,
                                   ServeCode code, std::string message) {
  PredictResponse response;
  response.request_id = request_id;
  response.code = code;
  response.message = std::move(message);
  ByteWriter out;
  size_t start = net::BeginFrame(&out);
  EncodePredictResponse(response, &out);
  // An over-cap message (EndFrame drops it) leaves nothing to send.
  if (!net::EndFrame(&out, start).ok()) return;
  MutexLock lock(&conn->write_mutex);
  // Dropped on purpose, as in RunGroup: the I/O thread sees the hangup.
  bool ignored = net::WriteAll(conn->fd, out);
  (void)ignored;
}

}  // namespace mlcs::serve
