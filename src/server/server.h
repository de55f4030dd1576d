// bsrd — the long-lived BloomSampleTree serving daemon, engineered for
// graceful degradation rather than raw throughput.
//
// Architecture: one event-loop thread (epoll on Linux, poll elsewhere)
// accepts, reads frames, enforces timeouts and closes sockets; a small
// worker pool executes query passes and writes each response to its
// socket itself, so a served request crosses one thread hand-off (the
// BOUNDED admission queue). A worker hands its connection back to the
// loop (dirty list + wake pipe) only when the write would block, the
// reader has stalled past its outbox cap, or the connection must close:
//
//   clients ──frames──► event loop ──admit──► request queue (bounded)
//      ▲                    ▲                     │ workers: execute
//      │                    │ wake pipe           ▼ under AcquireRead /
//      │                    └── partial write ── pipeline, then send
//      └─────────────── response bytes ◄─────────┘
//
// Degradation ladder (the whole point):
//   * per-request DEADLINES travel in the frame; an expired request is
//     answered DEADLINE_EXCEEDED at whatever stage catches it — never
//     silently dropped;
//   * ADMISSION CONTROL sheds load: a full queue or a queue-wait over
//     budget answers OVERLOADED with a retry-after hint (the shed leg of
//     util/ingest_queue.h's block/timeout/shed trichotomy) — the daemon
//     degrades to fast refusals instead of collapsing into timeouts;
//   * idle connections and slow-loris partial frames are closed on
//     timeouts; a stalled reader whose outbox exceeds its cap is killed
//     rather than allowed to buffer the server out of memory;
//   * SIGTERM → RequestDrain(): stop accepting, answer queued requests,
//     finish in-flight ones within the drain budget, then close;
//   * SIGHUP → RequestSwap(): IngestPipeline::HotSwapFromDisk — readers
//     mid-pass finish on the old tree, new requests land on the new one;
//   * STATS surfaces lane latches, scrubber state, and queue depths, so
//     a degraded daemon is observable, not silent.
//
// Query execution reuses the PR 4 batched-sampling engine: pending SAMPLE
// requests that share a query filter are coalesced into ONE frontier per
// tree pass (SampleBatchPrepared with per-request RNG streams), so the
// response bytes are bit-identical to each request running alone —
// coalescing is invisible to clients, including across a hot swap.
// QueryContexts are pooled per (tree, filter digest): a warm context
// serves every draw at O(depth) with zero kernel invocations, and an exact
// RECONSTRUCT as a copy of its cached answer, refreshed across INSERTs.
#ifndef BLOOMSAMPLE_SERVER_SERVER_H_
#define BLOOMSAMPLE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/ingest_pipeline.h"
#include "src/core/query_context.h"
#include "src/core/scrubber.h"
#include "src/server/protocol.h"
#include "src/util/status.h"

namespace bloomsample {
namespace server {

struct ServerOptions {
  /// "unix:/path/to.sock" or "host:port" ("127.0.0.1:0" picks an
  /// ephemeral port, reported by BsrServer::address()).
  std::string listen = "127.0.0.1:0";
  int backlog = 128;
  size_t workers = 2;

  /// Admission queue bound — beyond it requests are shed immediately
  /// with OVERLOADED (+ retry_after_ms), the knee the serve bench maps.
  size_t queue_capacity = 256;
  /// A request that waited longer than this in the queue is shed on
  /// dequeue: by then the client is better served by a fast OVERLOADED
  /// than by a stale answer.
  std::chrono::milliseconds queue_wait_budget{500};
  /// Retry-after hint carried in OVERLOADED/SHUTTING_DOWN responses.
  uint32_t retry_after_ms = 50;

  /// Connections with no traffic and no requests in flight are closed.
  std::chrono::milliseconds idle_timeout{60000};
  /// Slow-loris guard: max time a PARTIAL frame may dribble in.
  std::chrono::milliseconds read_timeout{5000};
  /// SIGTERM drain: in-flight and queued requests get this long to
  /// finish before the daemon closes anyway.
  std::chrono::milliseconds drain_budget{5000};

  uint32_t max_payload_bytes = 16u << 20;
  /// A reader that stops draining responses is disconnected once its
  /// outbox exceeds this (a slow client must not buffer the server into
  /// the ground).
  size_t max_outbox_bytes = 8u << 20;
  size_t max_connections = 1024;

  /// Max requests a worker drains (and coalesces) per queue pass.
  size_t max_batch = 64;
  /// Pooled QueryContexts (per tree generation × filter digest, LRU).
  size_t context_cache_capacity = 8;

  /// How RequestSwap reloads the snapshot.
  LoadOptions reload = LoadOptions::FromEnv();

  /// Test hook: runs in a worker immediately before each request
  /// executes — a deterministic way to hold requests in the queue so
  /// deadline/overload paths trigger on demand.
  std::function<void()> pre_execute_delay_for_test;
};

/// One consistent read of the server's counters (STATS prints these).
struct ServerStatsSnapshot {
  uint64_t accepted = 0;
  uint64_t active_connections = 0;
  uint64_t frames_in = 0;
  uint64_t responses_out = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_queue_wait = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t bad_frames = 0;
  uint64_t idle_closed = 0;
  uint64_t read_timeout_closed = 0;
  uint64_t stalled_closed = 0;
  uint64_t swaps = 0;
  uint64_t sample_batches = 0;    ///< coalesced tree passes executed
  uint64_t sample_requests = 0;   ///< SAMPLE requests inside them
  uint64_t queue_depth = 0;
};

class BsrServer {
 public:
  /// Binds, starts the loop and workers, returns serving. The pipeline
  /// must be a single-tree pipeline (forest serving is a ROADMAP item)
  /// and must outlive the server.
  static Result<std::unique_ptr<BsrServer>> Start(IngestPipeline* pipeline,
                                                  ServerOptions options);

  ~BsrServer();
  BsrServer(const BsrServer&) = delete;
  BsrServer& operator=(const BsrServer&) = delete;

  /// Graceful drain (the SIGTERM path): stop accepting, answer what is
  /// queued or in flight within the drain budget, close everything, stop.
  /// Async-signal-UNSAFE; signal handlers use RequestDrainAsync.
  void RequestDrain();
  /// Hot snapshot swap (the SIGHUP path): schedules
  /// IngestPipeline::HotSwapFromDisk on the admin thread. Serving
  /// continues throughout; in-flight passes finish on the old tree.
  void RequestSwap();

  /// Async-signal-safe flavors: set a flag and poke the wake pipe with
  /// one write(2) — everything else happens on the event loop.
  void RequestDrainAsync();
  void RequestSwapAsync();

  /// Hard stop (the fault harness's kill): close every socket now,
  /// in-flight requests and unflushed responses are dropped.
  void Abort();

  /// Blocks until the loop exits (drain completed or Abort).
  Status Wait();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound address, normalized: "unix:/path" or "127.0.0.1:41573"
  /// (ephemeral port resolved).
  const std::string& address() const { return address_; }

  /// Optional: surfaced through STATS when attached (not owned).
  void set_scrubber(const Scrubber* scrubber) { scrubber_ = scrubber; }

  ServerStatsSnapshot stats() const;

 private:
  struct Conn;
  struct Request;

  /// Pooled QueryContexts: keyed by filter digest, validated against the
  /// current tree handle (a swap naturally invalidates entries) and its
  /// node count (an INSERT that created nodes does too). LRU.
  struct PooledContext {
    uint64_t filter_digest = 0;
    std::shared_ptr<const BloomSampleTree> tree;
    /// tree->node_count() when ctx was built: its per-node caches hold a
    /// slot for exactly these node ids.
    size_t nodes = 0;
    std::unique_ptr<BloomFilter> filter;
    std::unique_ptr<QueryContext> ctx;
  };

  explicit BsrServer(IngestPipeline* pipeline, ServerOptions options);

  Status Listen();
  void LoopBody();
  void WorkerBody();
  void AdminBody();

  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void WriteReady(const std::shared_ptr<Conn>& conn);
  /// Parses complete frames out of conn->inbuf; admits/answers/sheds.
  void DrainInbuf(const std::shared_ptr<Conn>& conn);
  void Admit(const std::shared_ptr<Conn>& conn, const DecodedHeader& decoded,
             std::vector<uint8_t> payload);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void SweepTimeouts();
  void FlushWakes();
  /// Keeps the poller's write interest in sync with the outbox.
  void UpdateWriteInterest(const std::shared_ptr<Conn>& conn);

  /// Thread-safe response write (workers and the loop both use it):
  /// appends the frame to the outbox and sends it from the calling
  /// thread; only what would block goes through the loop.
  void SendResponse(const std::shared_ptr<Conn>& conn, Opcode opcode,
                    uint64_t request_id, WireStatus status,
                    uint32_t retry_after_ms, const uint8_t* payload,
                    size_t payload_len);
  void SendError(const std::shared_ptr<Conn>& conn, Opcode opcode,
                 uint64_t request_id, WireStatus status,
                 const std::string& message, uint32_t retry_after_ms = 0);
  /// Loop thread: answers a frame that poisons the stream, then closes
  /// the connection as soon as that answer is flushed.
  void SendErrorThenClose(const std::shared_ptr<Conn>& conn, Opcode opcode,
                          uint64_t request_id, WireStatus status,
                          const std::string& message);

  void ExecuteBatch(std::vector<std::unique_ptr<Request>> batch);
  void ExecuteSampleGroup(const std::vector<Request*>& group);
  void ExecuteOne(Request* req);
  /// Looks up (or builds) the pooled context for a filter against the
  /// guarded tree generation.
  Result<std::shared_ptr<PooledContext>> GetContext(
      const IngestPipeline::ReadGuard& guard, uint64_t filter_digest,
      const std::vector<uint8_t>& filter_bytes);
  std::string BuildStatsText() const;

  void WakeLoop();

  IngestPipeline* const pipeline_;
  const ServerOptions options_;
  const Scrubber* scrubber_ = nullptr;

  int listen_fd_ = -1;
  /// epoll instance (Linux); -1 under the poll fallback.
  int epoll_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::string address_;
  std::string unix_path_;  ///< unlinked on shutdown when non-empty

  std::thread loop_;
  std::vector<std::thread> workers_;
  /// Drain and swap run here so neither stalls frame parsing.
  std::thread admin_;
  std::mutex admin_mu_;
  std::condition_variable admin_cv_;
  bool admin_stop_ = false;
  bool swap_queued_ = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_async_{false};
  std::atomic<bool> swap_async_{false};
  std::atomic<bool> aborted_{false};
  std::chrono::steady_clock::time_point drain_deadline_;

  /// Loop-owned connection table (only the loop thread touches it).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Admission queue. Guarded by queue_mu_ (mutable: STATS reads the
  /// depth through const paths).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Request>> queue_;
  bool queue_closed_ = false;

  /// Requests admitted but not yet answered (drain waits on zero).
  std::atomic<uint64_t> in_flight_{0};

  /// Conns whose responses a sender could not finish (would block, stalled
  /// reader, hang-up pending), handed to the loop.
  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Conn>> dirty_;

  /// See PooledContext: entries are shared so a worker can keep using a
  /// context the LRU has already evicted.
  std::mutex ctx_mu_;
  std::list<std::shared_ptr<PooledContext>> ctx_pool_;

  mutable std::mutex stats_mu_;
  ServerStatsSnapshot stats_;

  Status terminal_status_;
};

/// Installs SIGTERM → drain and SIGHUP → swap handlers routing to
/// `server` (async-signal-safe: the handlers only set flags and poke the
/// wake pipe). One server at a time; RestoreSignalHandlers undoes it.
void InstallSignalHandlers(BsrServer* server);
void RestoreSignalHandlers();

}  // namespace server
}  // namespace bloomsample

#endif  // BLOOMSAMPLE_SERVER_SERVER_H_
