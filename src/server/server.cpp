#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>

#include "src/bloom/bloom_io.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/util/rng.h"
#include "src/util/xxhash64.h"

#if defined(__linux__)
#include <sys/epoll.h>
#define BSR_SERVER_EPOLL 1
#endif

namespace bloomsample {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-request draw-count cap: bounds the frontier (and the response) a
/// single SAMPLE frame can demand, so a hostile count can't allocate
/// gigabytes. Generous — a million draws is far past any real batch.
constexpr uint32_t kMaxSampleCount = 1u << 20;

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno))
      .WithErrno(errno);
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  fcntl(fd, F_SETFD, FD_CLOEXEC);
}

}  // namespace

/// One accepted connection. The event loop owns the read side, the table
/// entry and the poller registration. Writes are shared: the thread that
/// appends a response — a worker or the loop — sends the outbox itself,
/// and hands the conn to the loop only when the socket would block, the
/// reader stalls, or the conn must close. Every send on fd and its close
/// happen under out_mu (a sender checks `closed` there first, Close sets
/// it there), so no thread writes into a descriptor number the process
/// has since reused.
struct BsrServer::Conn {
  int fd = -1;
  std::vector<uint8_t> inbuf;
  Clock::time_point last_read;  ///< loop-owned
  /// When the current PARTIAL frame started dribbling in (slow-loris
  /// clock); meaningful while mid_frame.
  Clock::time_point frame_start;
  bool mid_frame = false;
  bool want_write = false;        ///< loop-owned: registered for EPOLLOUT
  std::atomic<bool> closed{false};
  std::atomic<bool> kill_stalled{false};
  std::atomic<int> in_flight{0};

  std::mutex out_mu;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  Clock::time_point last_write;
  /// A protocol error was answered: close once the outbox is flushed.
  /// Written by the loop; read by senders under out_mu.
  bool close_after_flush = false;

  size_t PendingOut() {
    std::lock_guard<std::mutex> lock(out_mu);
    return out.size() - out_off;
  }

  /// The later of the last read and the last write.
  Clock::time_point LastActivity() {
    std::lock_guard<std::mutex> lock(out_mu);
    return std::max(last_read, last_write);
  }

  /// Sends the outbox until it is empty or the socket would block. The
  /// caller holds out_mu and has seen `closed` false. False when the peer
  /// is gone (EPIPE, ECONNRESET).
  bool FlushLocked() {
    while (out_off < out.size()) {
      const ssize_t n = send(fd, out.data() + out_off, out.size() - out_off,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
        last_write = Clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    out.clear();
    out_off = 0;
    return true;
  }

  /// Marks the conn closed and closes fd, under out_mu so no sender is
  /// mid-send on it. False when it was already closed.
  bool Close() {
    std::lock_guard<std::mutex> lock(out_mu);
    if (closed.exchange(true, std::memory_order_acq_rel)) return false;
    close(fd);
    return true;
  }
};

/// One admitted request, queued loop → worker.
struct BsrServer::Request {
  std::shared_ptr<Conn> conn;
  FrameHeader header;
  std::vector<uint8_t> payload;
  Clock::time_point arrival;
  bool has_deadline = false;
  Clock::time_point deadline;

  // Decoded per-opcode forms (filled by the worker's first pass).
  SampleRequest sample;
  ReconstructRequest recon;
  std::vector<uint64_t> ids;
  uint64_t filter_digest = 0;
};

Result<std::unique_ptr<BsrServer>> BsrServer::Start(IngestPipeline* pipeline,
                                                    ServerOptions options) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("bsrd requires an ingest pipeline");
  }
  if (pipeline->lane_count() != 1) {
    return Status::Unsupported(
        "bsrd serves single-tree pipelines; forest serving is a roadmap "
        "item");
  }
  if (options.workers == 0) options.workers = 1;
  std::unique_ptr<BsrServer> s(new BsrServer(pipeline, std::move(options)));
  const Status st = s->Listen();
  if (!st.ok()) return st;
  int pipefd[2];
  if (pipe(pipefd) != 0) return ErrnoStatus("pipe");
  s->wake_read_fd_ = pipefd[0];
  s->wake_write_fd_ = pipefd[1];
  SetNonBlocking(s->wake_read_fd_);
  SetNonBlocking(s->wake_write_fd_);
#if BSR_SERVER_EPOLL
  // Created here, not in the loop thread: every descriptor the daemon
  // will hold exists before Start returns, so callers can take an fd
  // census as a leak baseline.
  s->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (s->epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
#endif
  s->running_.store(true, std::memory_order_release);
  s->loop_ = std::thread(&BsrServer::LoopBody, s.get());
  for (size_t i = 0; i < s->options_.workers; ++i) {
    s->workers_.emplace_back(&BsrServer::WorkerBody, s.get());
  }
  s->admin_ = std::thread(&BsrServer::AdminBody, s.get());
  return s;
}

BsrServer::BsrServer(IngestPipeline* pipeline, ServerOptions options)
    : pipeline_(pipeline), options_(std::move(options)) {}

BsrServer::~BsrServer() {
  Abort();
  (void)Wait();
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
}

Status BsrServer::Listen() {
  const std::string& spec = options_.listen;
  if (spec.rfind("unix:", 0) == 0) {
    unix_path_ = spec.substr(5);
    if (unix_path_.empty()) {
      return Status::InvalidArgument("empty unix socket path");
    }
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (unix_path_.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::memcpy(addr.sun_path, unix_path_.data(), unix_path_.size());
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return ErrnoStatus("socket");
    unlink(unix_path_.c_str());  // stale socket from a dead daemon
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status st = ErrnoStatus("bind " + unix_path_);
      close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    address_ = spec;
  } else {
    const size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "listen address must be unix:/path or host:port");
    }
    const std::string host = spec.substr(0, colon);
    const int port = std::atoi(spec.substr(colon + 1).c_str());
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("unparseable listen host: " + host);
    }
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return ErrnoStatus("socket");
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const Status st = ErrnoStatus("bind " + spec);
      close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    sockaddr_in bound;
    socklen_t blen = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
    char ip[INET_ADDRSTRLEN];
    inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
    address_ = std::string(ip) + ":" + std::to_string(ntohs(bound.sin_port));
  }
  SetNonBlocking(listen_fd_);
  if (listen(listen_fd_, options_.backlog) != 0) {
    const Status st = ErrnoStatus("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  return Status::OK();
}

void BsrServer::WakeLoop() {
  if (wake_write_fd_ < 0) return;
  const char b = 'w';
  // EAGAIN just means the pipe already holds a wake-up; anything else is
  // a shutdown race the loop handles on its own clock.
  (void)write(wake_write_fd_, &b, 1);
}

void BsrServer::RequestDrainAsync() {
  drain_async_.store(true, std::memory_order_release);
  WakeLoop();
}

void BsrServer::RequestSwapAsync() {
  swap_async_.store(true, std::memory_order_release);
  WakeLoop();
}

void BsrServer::RequestDrain() { RequestDrainAsync(); }

void BsrServer::RequestSwap() { RequestSwapAsync(); }

void BsrServer::Abort() {
  aborted_.store(true, std::memory_order_release);
  drain_async_.store(true, std::memory_order_release);
  WakeLoop();
}

Status BsrServer::Wait() {
  if (loop_.joinable()) loop_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_stop_ = true;
  }
  admin_cv_.notify_all();
  if (admin_.joinable()) admin_.join();
  return terminal_status_;
}

ServerStatsSnapshot BsrServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

// --- event loop --------------------------------------------------------

namespace {

#if BSR_SERVER_EPOLL
void EpollCtl(int ep, int op, int fd, uint32_t events) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(ep, op, fd, &ev);
}
#endif

}  // namespace

void BsrServer::UpdateWriteInterest(const std::shared_ptr<Conn>& conn) {
  const bool want = conn->PendingOut() > 0;
  if (conn->want_write == want) return;
  conn->want_write = want;
#if BSR_SERVER_EPOLL
  EpollCtl(epoll_fd_, EPOLL_CTL_MOD, conn->fd,
           EPOLLIN | (want ? EPOLLOUT : 0u));
#endif
}

void BsrServer::LoopBody() {
#if BSR_SERVER_EPOLL
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN);
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, wake_read_fd_, EPOLLIN);
#endif
  bool listening = true;

  auto close_listen = [&] {
    if (!listening) return;
    listening = false;
#if BSR_SERVER_EPOLL
    EpollCtl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, 0);
#endif
    close(listen_fd_);
    listen_fd_ = -1;
  };

  while (true) {
    if (swap_async_.exchange(false, std::memory_order_acq_rel)) {
      std::lock_guard<std::mutex> lock(admin_mu_);
      swap_queued_ = true;
      admin_cv_.notify_all();
    }
    if (drain_async_.exchange(false, std::memory_order_acq_rel) &&
        !draining_.load(std::memory_order_acquire)) {
      draining_.store(true, std::memory_order_release);
      drain_deadline_ = Clock::now() + options_.drain_budget;
      close_listen();
    }
    if (aborted_.load(std::memory_order_acquire)) break;
    if (draining_.load(std::memory_order_acquire)) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_empty = queue_.empty();
      }
      bool flushed = true;
      for (auto& [fd, conn] : conns_) {
        if (conn->PendingOut() > 0) {
          flushed = false;
          break;
        }
      }
      if ((queue_empty && in_flight_.load(std::memory_order_acquire) == 0 &&
           flushed) ||
          Clock::now() >= drain_deadline_) {
        break;
      }
    }

    // A short tick doubles as the timeout sweep cadence.
    constexpr int kTickMs = 20;
    std::vector<std::pair<int, uint32_t>> ready;  // fd → POLLIN|POLLOUT-ish
#if BSR_SERVER_EPOLL
    epoll_event events[64];
    const int n = epoll_wait(epoll_fd_, events, 64, kTickMs);
    for (int i = 0; i < n; ++i) {
      uint32_t mask = 0;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) mask |= POLLIN;
      if (events[i].events & EPOLLOUT) mask |= POLLOUT;
      const int efd = events[i].data.fd;
      ready.emplace_back(efd, mask);
    }
#else
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    if (listening) fds.push_back({listen_fd_, POLLIN, 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      fds.push_back({fd, static_cast<short>(POLLIN | (conn->want_write
                                                          ? POLLOUT
                                                          : 0)),
                     0});
    }
    const int n = poll(fds.data(), fds.size(), kTickMs);
    if (n > 0) {
      for (const pollfd& p : fds) {
        if (p.revents != 0) {
          uint32_t mask = 0;
          if (p.revents & (POLLIN | POLLERR | POLLHUP)) mask |= POLLIN;
          if (p.revents & POLLOUT) mask |= POLLOUT;
          ready.emplace_back(p.fd, mask);
        }
      }
    }
#endif

    for (const auto& [fd, mask] : ready) {
      if (fd == wake_read_fd_) {
        char buf[256];
        while (read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_ && listening) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if ((mask & POLLOUT) != 0) WriteReady(conn);
      if ((mask & POLLIN) != 0 && !conn->closed.load()) ReadReady(conn);
      if (!conn->closed.load()) UpdateWriteInterest(conn);
    }

    FlushWakes();
    // Re-evaluate write registration for conns workers just filled.
    for (auto& [fd, conn] : conns_) {
      if (!conn->closed.load()) UpdateWriteInterest(conn);
    }
    SweepTimeouts();
  }

  // Teardown. Workers are stopped via the closed queue (they answer what
  // is already popped; on abort they drop it), then every socket closes.
  close_listen();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  std::vector<std::shared_ptr<Conn>> to_close;
  to_close.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) to_close.push_back(conn);
  for (auto& conn : to_close) conn->Close();
  conns_.clear();
  if (!unix_path_.empty()) unlink(unix_path_.c_str());
#if BSR_SERVER_EPOLL
  close(epoll_fd_);
  epoll_fd_ = -1;
#endif
  running_.store(false, std::memory_order_release);
}

void BsrServer::AcceptReady() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    if (conns_.size() >= options_.max_connections ||
        draining_.load(std::memory_order_acquire)) {
      close(fd);
      continue;
    }
    SetNonBlocking(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->last_read = Clock::now();
    conns_[fd] = conn;
#if BSR_SERVER_EPOLL
    EpollCtl(epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN);
#endif
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    stats_.active_connections = conns_.size();
  }
}

void BsrServer::ReadReady(const std::shared_ptr<Conn>& conn) {
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.insert(conn->inbuf.end(), buf, buf + n);
      conn->last_read = Clock::now();
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  DrainInbuf(conn);
}

void BsrServer::DrainInbuf(const std::shared_ptr<Conn>& conn) {
  size_t pos = 0;
  while (!conn->closed.load() && !conn->close_after_flush &&
         conn->inbuf.size() - pos >= kFrameHeaderBytes) {
    DecodedHeader decoded;
    const Status st =
        DecodeHeader(conn->inbuf.data() + pos, conn->inbuf.size() - pos,
                     options_.max_payload_bytes, &decoded);
    if (!st.ok()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.bad_frames;
      }
      // The stream position cannot be trusted past a malformed header:
      // answer on the recovered request id (it may be garbage — the
      // client correlates or ignores) and hang up after the flush.
      SendErrorThenClose(conn, decoded.header.opcode,
                         decoded.header.request_id, WireStatusFromStatus(st),
                         st.message());
      break;
    }
    const size_t frame_len = kFrameHeaderBytes + decoded.header.payload_len;
    if (conn->inbuf.size() - pos < frame_len) break;  // partial frame
    const uint8_t* frame = conn->inbuf.data() + pos;
    const uint64_t digest = FrameDigest(frame, frame + kFrameHeaderBytes,
                                        decoded.header.payload_len);
    if (digest != decoded.digest) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.bad_frames;
      }
      SendErrorThenClose(conn, decoded.header.opcode,
                         decoded.header.request_id,
                         WireStatus::kInvalidArgument,
                         "frame digest mismatch");
      break;
    }
    std::vector<uint8_t> payload(frame + kFrameHeaderBytes,
                                 frame + frame_len);
    pos += frame_len;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_in;
    }
    Admit(conn, decoded, std::move(payload));
  }
  if (pos > 0) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() + static_cast<ptrdiff_t>(pos));
  }
  const bool was_mid = conn->mid_frame;
  conn->mid_frame = !conn->inbuf.empty();
  if (conn->mid_frame && !was_mid) conn->frame_start = Clock::now();
}

void BsrServer::Admit(const std::shared_ptr<Conn>& conn,
                      const DecodedHeader& decoded,
                      std::vector<uint8_t> payload) {
  const FrameHeader& h = decoded.header;
  if (!OpcodeKnown(decoded.raw_opcode)) {
    // Unknown opcodes are per-frame errors — framing is intact, the
    // stream survives.
    SendError(conn, Opcode::kPing, h.request_id, WireStatus::kUnsupported,
              "unknown opcode " + std::to_string(decoded.raw_opcode));
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    SendError(conn, h.opcode, h.request_id, WireStatus::kShuttingDown,
              "server is draining", options_.retry_after_ms);
    return;
  }
  // Cheap control-plane ops are answered on the loop thread: they must
  // work precisely when the workers are wedged behind a query storm.
  if (h.opcode == Opcode::kPing) {
    SendResponse(conn, h.opcode, h.request_id, WireStatus::kOk, 0, nullptr,
                 0);
    return;
  }
  if (h.opcode == Opcode::kStats) {
    const std::string text = BuildStatsText();
    SendResponse(conn, h.opcode, h.request_id, WireStatus::kOk, 0,
                 reinterpret_cast<const uint8_t*>(text.data()), text.size());
    return;
  }
  auto req = std::make_unique<Request>();
  req->conn = conn;
  req->header = h;
  req->payload = std::move(payload);
  req->arrival = Clock::now();
  if (h.budget_ms > 0) {
    req->has_deadline = true;
    req->deadline = req->arrival + std::chrono::milliseconds(h.budget_ms);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!queue_closed_ && queue_.size() < options_.queue_capacity) {
      queue_.push_back(std::move(req));
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
      queue_cv_.notify_one();
      return;
    }
  }
  // Queue full (or closing): shed NOW with a hint, instead of letting
  // the request age into a timeout — the fast-refusal knee the serve
  // bench maps.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shed_queue_full;
  }
  SendError(conn, h.opcode, h.request_id, WireStatus::kOverloaded,
            "admission queue full", options_.retry_after_ms);
}

void BsrServer::WriteReady(const std::shared_ptr<Conn>& conn) {
  bool close_now;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed.load(std::memory_order_acquire)) return;
    // A failed send means the client vanished mid-response (EPIPE,
    // ECONNRESET). Routine — drop the conn, keep serving everyone else.
    close_now = !conn->FlushLocked() ||
                (conn->out.empty() && conn->close_after_flush);
  }
  if (close_now) CloseConn(conn);
}

void BsrServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (!conn->Close()) return;
  conns_.erase(conn->fd);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.active_connections = conns_.size();
}

void BsrServer::SweepTimeouts() {
  const auto now = Clock::now();
  std::vector<std::shared_ptr<Conn>> victims;
  uint64_t idle = 0, loris = 0;
  for (auto& [fd, conn] : conns_) {
    if (conn->closed.load()) continue;
    if (conn->mid_frame && now - conn->frame_start > options_.read_timeout) {
      ++loris;
      victims.push_back(conn);
      continue;
    }
    if (!conn->mid_frame && conn->in_flight.load() == 0 &&
        conn->PendingOut() == 0 &&
        now - conn->LastActivity() > options_.idle_timeout) {
      ++idle;
      victims.push_back(conn);
    }
  }
  if (!victims.empty()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.idle_closed += idle;
    stats_.read_timeout_closed += loris;
  }
  for (auto& conn : victims) CloseConn(conn);
}

void BsrServer::FlushWakes() {
  std::vector<std::shared_ptr<Conn>> dirty;
  {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty.swap(dirty_);
  }
  for (auto& conn : dirty) {
    if (conn->closed.load()) continue;
    if (conn->kill_stalled.load()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.stalled_closed;
      }
      CloseConn(conn);
      continue;
    }
    WriteReady(conn);
  }
}

// --- workers -----------------------------------------------------------

void BsrServer::WorkerBody() {
  while (true) {
    std::vector<std::unique_ptr<Request>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [&] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      const size_t take = std::min(options_.max_batch, queue_.size());
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (aborted_.load(std::memory_order_acquire)) {
      for (auto& req : batch) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        req->conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      }
      continue;
    }
    ExecuteBatch(std::move(batch));
  }
}

void BsrServer::SendResponse(const std::shared_ptr<Conn>& conn,
                             Opcode opcode, uint64_t request_id,
                             WireStatus status, uint32_t retry_after_ms,
                             const uint8_t* payload, size_t payload_len) {
  FrameHeader h;
  h.opcode = opcode;
  h.status = status;
  h.request_id = request_id;
  h.budget_ms = retry_after_ms;
  h.payload_len = static_cast<uint32_t>(payload_len);
  bool hand_off;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed.load(std::memory_order_acquire)) return;
    EncodeFrame(h, payload, payload_len, &conn->out);
    // Write from this thread; the loop takes over only what it cannot
    // finish here: the rest of a partial write (EPOLLOUT), a broken
    // socket, a stalled reader, or the hang-up after a protocol error.
    const bool sent = conn->FlushLocked();
    const size_t pending = conn->out.size() - conn->out_off;
    if (pending > options_.max_outbox_bytes) {
      conn->kill_stalled.store(true, std::memory_order_release);
    }
    hand_off = !sent || pending > 0 || conn->close_after_flush;
  }
  if (hand_off) {
    std::lock_guard<std::mutex> lock(dirty_mu_);
    dirty_.push_back(conn);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.responses_out;
  }
  if (hand_off) WakeLoop();
}

void BsrServer::SendError(const std::shared_ptr<Conn>& conn, Opcode opcode,
                          uint64_t request_id, WireStatus status,
                          const std::string& message,
                          uint32_t retry_after_ms) {
  SendResponse(conn, opcode, request_id, status, retry_after_ms,
               reinterpret_cast<const uint8_t*>(message.data()),
               message.size());
}

void BsrServer::SendErrorThenClose(const std::shared_ptr<Conn>& conn,
                                   Opcode opcode, uint64_t request_id,
                                   WireStatus status,
                                   const std::string& message) {
  // Marked before the answer is queued, so whichever thread flushes it
  // hands the conn to the loop, which closes it. This runs on the loop
  // thread, so no close can slip in between the two steps.
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->close_after_flush = true;
  }
  SendError(conn, opcode, request_id, status, message);
}

void BsrServer::ExecuteBatch(std::vector<std::unique_ptr<Request>> batch) {
  auto respond_error = [&](Request* req, WireStatus status,
                           const std::string& msg, uint32_t retry = 0) {
    SendError(req->conn, req->header.opcode, req->header.request_id, status,
              msg, retry);
  };
  auto finish = [&](Request* req) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    req->conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  };

  // Pass 1: per-request admission-at-execution — deadline and queue-wait
  // checks, payload decode. Survivors proceed; everyone else is ANSWERED
  // (never silently dropped).
  std::vector<Request*> runnable;
  runnable.reserve(batch.size());
  for (auto& req_ptr : batch) {
    Request* req = req_ptr.get();
    if (options_.pre_execute_delay_for_test) {
      options_.pre_execute_delay_for_test();
    }
    const auto now = Clock::now();
    if (req->has_deadline && now >= req->deadline) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.deadline_exceeded;
      }
      respond_error(req, WireStatus::kDeadlineExceeded,
                    "deadline expired before execution");
      finish(req);
      continue;
    }
    if (now - req->arrival > options_.queue_wait_budget) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.shed_queue_wait;
      }
      respond_error(req, WireStatus::kOverloaded,
                    "queue wait exceeded budget", options_.retry_after_ms);
      finish(req);
      continue;
    }
    Status decode = Status::OK();
    switch (req->header.opcode) {
      case Opcode::kSample:
        decode = DecodeSampleRequest(req->payload.data(),
                                     req->payload.size(), &req->sample);
        if (decode.ok() && req->sample.count > kMaxSampleCount) {
          decode = Status::InvalidArgument(
              "sample count " + std::to_string(req->sample.count) +
              " exceeds the per-request cap of " +
              std::to_string(kMaxSampleCount));
        }
        if (decode.ok()) {
          req->filter_digest = XxHash64::Hash(req->sample.filter.data(),
                                              req->sample.filter.size());
        }
        break;
      case Opcode::kReconstruct:
        decode = DecodeReconstructRequest(req->payload.data(),
                                          req->payload.size(), &req->recon);
        break;
      case Opcode::kInsert:
      case Opcode::kRemove:
        decode =
            DecodeIdList(req->payload.data(), req->payload.size(), &req->ids);
        break;
      default:
        decode = Status::InvalidArgument("opcode not executable");
        break;
    }
    if (!decode.ok()) {
      respond_error(req, WireStatusFromStatus(decode), decode.message());
      finish(req);
      continue;
    }
    runnable.push_back(req);
  }

  // Pass 2: coalesce SAMPLE requests that share a filter into one
  // frontier per tree pass; everything else runs in arrival order.
  std::vector<Request*> samples;
  for (Request* req : runnable) {
    if (req->header.opcode == Opcode::kSample) samples.push_back(req);
  }
  std::vector<bool> grouped(samples.size(), false);
  for (size_t i = 0; i < samples.size(); ++i) {
    if (grouped[i]) continue;
    std::vector<Request*> group;
    for (size_t j = i; j < samples.size(); ++j) {
      if (grouped[j]) continue;
      if (samples[j]->filter_digest == samples[i]->filter_digest &&
          samples[j]->sample.filter == samples[i]->sample.filter) {
        grouped[j] = true;
        group.push_back(samples[j]);
      }
    }
    const size_t group_size = group.size();
    ExecuteSampleGroup(group);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.sample_batches;
    stats_.sample_requests += group_size;
  }
  for (Request* req : runnable) {
    if (req->header.opcode != Opcode::kSample) ExecuteOne(req);
  }
  for (Request* req : runnable) finish(req);

  size_t depth;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.queue_depth = depth;
}

Result<std::shared_ptr<BsrServer::PooledContext>> BsrServer::GetContext(
    const IngestPipeline::ReadGuard& guard, uint64_t filter_digest,
    const std::vector<uint8_t>& filter_bytes) {
  const BloomSampleTree* tree = &guard.tree();
  {
    std::lock_guard<std::mutex> lock(ctx_mu_);
    for (auto it = ctx_pool_.begin(); it != ctx_pool_.end();) {
      if ((*it)->tree.get() != tree || (*it)->nodes != tree->node_count()) {
        // A hot swap retired this entry's tree, or an INSERT created
        // nodes the entry's per-node caches have no slot for; drop it so
        // the pool never pins a dead generation or reads past a cache.
        it = ctx_pool_.erase(it);
        continue;
      }
      if ((*it)->filter_digest == filter_digest) {
        auto hit = *it;
        ctx_pool_.splice(ctx_pool_.begin(), ctx_pool_, it);
        return hit;
      }
      ++it;
    }
  }
  // Miss: deserialize against THIS tree's family (filter compatibility
  // is pointer identity on the family, so the context binds to exactly
  // the generation the guard pinned).
  std::string bytes(reinterpret_cast<const char*>(filter_bytes.data()),
                    filter_bytes.size());
  std::istringstream in(bytes);
  auto filter = DeserializeBloomFilter(&in, tree->family_ptr());
  if (!filter.ok()) return filter.status();
  auto entry = std::make_shared<PooledContext>();
  entry->filter_digest = filter_digest;
  entry->tree = guard.keepalive();
  if (entry->tree.get() != tree) {
    return Status::Internal("read guard holds no tree refcount");
  }
  entry->nodes = tree->node_count();
  entry->filter =
      std::make_unique<BloomFilter>(std::move(filter).value());
  entry->ctx = std::make_unique<QueryContext>(*tree, *entry->filter);
  {
    std::lock_guard<std::mutex> lock(ctx_mu_);
    ctx_pool_.push_front(entry);
    while (ctx_pool_.size() > options_.context_cache_capacity) {
      ctx_pool_.pop_back();
    }
  }
  return entry;
}

void BsrServer::ExecuteSampleGroup(const std::vector<Request*>& group) {
  // ONE guard for the whole group: every draw in this coalesced frontier
  // reads a single tree generation, so each response is wholly-old or
  // wholly-new across a hot swap — never a blend.
  IngestPipeline::ReadGuard guard = pipeline_->AcquireRead();
  auto ctx = GetContext(guard, group[0]->filter_digest,
                        group[0]->sample.filter);
  if (!ctx.ok()) {
    for (Request* req : group) {
      SendError(req->conn, req->header.opcode, req->header.request_id,
                WireStatusFromStatus(ctx.status()), ctx.status().message());
    }
    return;
  }
  size_t total = 0;
  for (Request* req : group) total += req->sample.count;
  std::vector<BstSampler::PreparedDraw> draws;
  draws.reserve(total);
  size_t base = 0;
  for (Request* req : group) {
    for (uint32_t i = 0; i < req->sample.count; ++i) {
      // Stream i of the request's seed: entry base+i is bit-identical to
      // Sample(ctx, Rng::ForStream(seed, i)) — and therefore to the
      // request running alone through SampleBatch. Coalescing is
      // invisible in the response bytes.
      draws.push_back({static_cast<uint32_t>(base + i),
                       Rng::ForStream(req->sample.seed, i)});
    }
    base += req->sample.count;
  }
  std::vector<std::optional<uint64_t>> out(total);
  BstSampler sampler(&guard.tree());
  sampler.SampleBatchPrepared(ctx.value()->ctx.get(), std::move(draws),
                              nullptr, &out);
  base = 0;
  for (Request* req : group) {
    std::vector<std::optional<uint64_t>> slice(
        out.begin() + static_cast<ptrdiff_t>(base),
        out.begin() + static_cast<ptrdiff_t>(base + req->sample.count));
    base += req->sample.count;
    std::vector<uint8_t> payload;
    EncodeDraws(slice, &payload);
    SendResponse(req->conn, req->header.opcode, req->header.request_id,
                 WireStatus::kOk, 0, payload.data(), payload.size());
  }
}

void BsrServer::ExecuteOne(Request* req) {
  switch (req->header.opcode) {
    case Opcode::kReconstruct: {
      IngestPipeline::ReadGuard guard = pipeline_->AcquireRead();
      const uint64_t digest = XxHash64::Hash(req->recon.filter.data(),
                                             req->recon.filter.size());
      auto ctx = GetContext(guard, digest, req->recon.filter);
      if (!ctx.ok()) {
        SendError(req->conn, req->header.opcode, req->header.request_id,
                  WireStatusFromStatus(ctx.status()),
                  ctx.status().message());
        return;
      }
      BstReconstructor recon(&guard.tree());
      const std::vector<uint64_t> ids = recon.Reconstruct(
          *ctx.value()->ctx, nullptr,
          req->recon.exact ? BstReconstructor::PruningMode::kExact
                           : BstReconstructor::PruningMode::kThresholded);
      std::vector<uint8_t> payload;
      EncodeIdList(ids, &payload);
      SendResponse(req->conn, req->header.opcode, req->header.request_id,
                   WireStatus::kOk, 0, payload.data(), payload.size());
      return;
    }
    case Opcode::kInsert:
    case Opcode::kRemove: {
      const WalOp op = req->header.opcode == Opcode::kInsert
                           ? WalOp::kInsert
                           : WalOp::kRemove;
      uint32_t applied = 0;
      Status first;
      for (uint64_t id : req->ids) {
        WalMutation mut;
        mut.op = op;
        mut.id = id;
        const Status st = pipeline_->Apply(mut);
        if (!st.ok()) {
          first = st;
          break;
        }
        ++applied;
      }
      if (first.ok()) {
        std::vector<uint8_t> payload;
        PutU32(applied, &payload);
        SendResponse(req->conn, req->header.opcode, req->header.request_id,
                     WireStatus::kOk, 0, payload.data(), payload.size());
      } else {
        // Report how far the batch got plus why it stopped; the lane's
        // read-only/quarantine latches surface here as wire statuses.
        SendError(req->conn, req->header.opcode, req->header.request_id,
                  WireStatusFromStatus(first),
                  "applied " + std::to_string(applied) + "/" +
                      std::to_string(req->ids.size()) + ": " +
                      first.message());
      }
      return;
    }
    default:
      SendError(req->conn, req->header.opcode, req->header.request_id,
                WireStatus::kInternal, "unroutable opcode");
      return;
  }
}

std::string BsrServer::BuildStatsText() const {
  std::ostringstream out;
  ServerStatsSnapshot s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  out << "server.accepted=" << s.accepted << "\n"
      << "server.active_connections=" << s.active_connections << "\n"
      << "server.frames_in=" << s.frames_in << "\n"
      << "server.responses_out=" << s.responses_out << "\n"
      << "server.queue_depth=" << s.queue_depth << "\n"
      << "server.shed_queue_full=" << s.shed_queue_full << "\n"
      << "server.shed_queue_wait=" << s.shed_queue_wait << "\n"
      << "server.deadline_exceeded=" << s.deadline_exceeded << "\n"
      << "server.bad_frames=" << s.bad_frames << "\n"
      << "server.idle_closed=" << s.idle_closed << "\n"
      << "server.read_timeout_closed=" << s.read_timeout_closed << "\n"
      << "server.stalled_closed=" << s.stalled_closed << "\n"
      << "server.swaps=" << s.swaps << "\n"
      << "server.sample_batches=" << s.sample_batches << "\n"
      << "server.sample_requests=" << s.sample_requests << "\n"
      << "server.draining=" << (draining_.load() ? 1 : 0) << "\n";
  const IngestPipelineStats ps = pipeline_->Stats();
  out << "pipeline.committed_batches=" << ps.committed_batches << "\n"
      << "pipeline.commit_groups=" << ps.commit_groups << "\n"
      << "pipeline.fsyncs=" << ps.fsyncs << "\n"
      << "pipeline.shed=" << ps.shed << "\n";
  for (const LaneStatusInfo& lane : ps.lanes) {
    const std::string p = "lane." + std::to_string(lane.lane) + ".";
    out << p << "read_only=" << (lane.read_only ? 1 : 0) << "\n"
        << p << "quarantined=" << (lane.quarantined ? 1 : 0) << "\n"
        << p << "recover_attempts=" << lane.recover_attempts << "\n"
        << p << "recover_successes=" << lane.recover_successes << "\n"
        << p << "recovery_gave_up=" << (lane.recovery_gave_up ? 1 : 0)
        << "\n";
    if (!lane.latch_message.empty()) {
      out << p << "latch_message=" << lane.latch_message << "\n";
    }
  }
  if (scrubber_ != nullptr) {
    const ScrubStats sc = scrubber_->stats();
    out << "scrub.passes=" << sc.passes << "\n"
        << "scrub.chunks_scanned=" << sc.chunks_scanned << "\n"
        << "scrub.bytes_scanned=" << sc.bytes_scanned << "\n"
        << "scrub.corrupt_chunks=" << sc.corrupt_chunks << "\n"
        << "scrub.repairs=" << sc.repairs << "\n"
        << "scrub.quarantines=" << sc.quarantines << "\n";
  }
  // Under a read guard: INSERT reallocates occupied_ under the lane's
  // exclusive lock, and the index gauges belong to the guarded generation
  // (a swap retires the old tree's index with it).
  const IngestPipeline::ReadGuard guard = pipeline_->AcquireRead();
  const BloomSampleTree& tree = guard.tree();
  const BloomSampleTree::ExactIndexStats index = tree.exact_index_stats();
  out << "tree.occupied=" << tree.occupied().size() << "\n"
      << "tree.namespace_size=" << tree.config().namespace_size << "\n"
      << "tree.exact_index_bytes=" << index.bytes << "\n"
      << "tree.exact_index_builds=" << index.builds << "\n"
      << "tree.exact_index_pending=" << index.pending << "\n";
  return out.str();
}

// --- admin thread (drain-independent slow work) ------------------------

void BsrServer::AdminBody() {
  while (true) {
    bool do_swap = false;
    {
      std::unique_lock<std::mutex> lock(admin_mu_);
      admin_cv_.wait(lock, [&] { return admin_stop_ || swap_queued_; });
      if (swap_queued_) {
        swap_queued_ = false;
        do_swap = true;
      } else if (admin_stop_) {
        return;
      }
    }
    if (do_swap) {
      // Runs off the event loop so a slow (heap, large-tree) reload
      // never stalls frame parsing; readers keep serving the old tree
      // until the refcounted install.
      const Status st = pipeline_->HotSwapFromDisk(options_.reload);
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (st.ok()) ++stats_.swaps;
    }
  }
}

// --- signal wiring -----------------------------------------------------

namespace {

std::atomic<BsrServer*> g_signal_server{nullptr};
struct sigaction g_old_sigterm;
struct sigaction g_old_sighup;

extern "C" void BsrHandleSigterm(int) {
  BsrServer* s = g_signal_server.load(std::memory_order_acquire);
  if (s != nullptr) s->RequestDrainAsync();
}

extern "C" void BsrHandleSighup(int) {
  BsrServer* s = g_signal_server.load(std::memory_order_acquire);
  if (s != nullptr) s->RequestSwapAsync();
}

}  // namespace

void InstallSignalHandlers(BsrServer* server) {
  g_signal_server.store(server, std::memory_order_release);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = BsrHandleSigterm;
  sigaction(SIGTERM, &sa, &g_old_sigterm);
  sa.sa_handler = BsrHandleSighup;
  sigaction(SIGHUP, &sa, &g_old_sighup);
}

void RestoreSignalHandlers() {
  g_signal_server.store(nullptr, std::memory_order_release);
  sigaction(SIGTERM, &g_old_sigterm, nullptr);
  sigaction(SIGHUP, &g_old_sighup, nullptr);
}

}  // namespace server
}  // namespace bloomsample
