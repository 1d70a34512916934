// The async FRW ingestion service: a non-blocking, epoll-driven server
// that accepts FRS-framed FRW batches over TCP and Unix domain sockets and
// feeds them to the in-process core::ShardedAggregator.
//
// Threading model (docs/ARCHITECTURE.md "Service"):
//
//   1 IO thread    owns every socket: accepts, reads (tolerating short
//                  reads via FrameParser), writes (tolerating partial
//                  writes via per-connection outboxes), and runs the
//                  checkpoint timer. Never touches the aggregator except
//                  through Checkpoint().
//   N workers      each with a bounded FIFO queue. A connection is pinned
//                  to worker (conn id mod N), so one connection's batches
//                  ingest strictly in order — the property the NACK
//                  retransmit protocol and kStrict dedup rely on — while
//                  separate connections ingest concurrently, sharded by
//                  the aggregator's per-shard mutexes.
//
// Per batch the pinned worker calls IngestEncoded and the IO thread sends
// back one reply frame: kAck with the ingest outcome, kNack when the
// receiver's own verdict is kDataLoss (the sender reuses the PR-5
// retransmit policy, sim::RetransmitLoop), kError for non-retryable
// failures. Backpressure is two-layered: a full worker queue answers
// kOverload immediately (nothing consumed — resend the same bytes), and a
// connection whose outbox exceeds a fixed 4 MiB stops being read until it
// drains.
//
// Durability: with a checkpoint path configured the IO thread checkpoints
// on a timer — full blobs rewrite the file atomically (temp + rename),
// delta blobs append — and shutdown always ends with a quiesced full
// compaction, so RestoreFromCheckpointFile needs no shard-count match.

#ifndef FUTURERAND_NET_SERVER_H_
#define FUTURERAND_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "futurerand/common/fields.h"
#include "futurerand/common/result.h"
#include "futurerand/core/aggregator.h"
#include "futurerand/core/config.h"
#include "futurerand/net/frame.h"
#include "futurerand/net/poller.h"
#include "futurerand/net/socket.h"

namespace futurerand::net {

/// Everything an IngestServer is built from. Validated at Create.
struct ServiceConfig {
  core::ProtocolConfig protocol;
  /// Aggregator shards; 0 = one per worker.
  int num_shards = 0;
  /// Ingest worker threads (>= 1).
  int num_workers = 2;
  core::DedupPolicy dedup = core::DedupPolicy::kStrict;
  core::DedupWindowPolicy dedup_window;
  /// Batches a worker queue holds before the server answers kOverload
  /// instead of queueing (>= 1).
  size_t worker_queue_capacity = 128;
  /// Durable checkpoint file; empty disables checkpointing entirely
  /// (including the final one).
  std::string checkpoint_path;
  /// Timer cadence; 0 = only on ControlOp::kCheckpoint and at shutdown.
  /// Timer checkpoints are live (concurrent ingest may land partially;
  /// the shutdown compaction is quiesced and exact).
  int64_t checkpoint_interval_ms = 0;
  core::CheckpointMode checkpoint_mode = core::CheckpointMode::kFull;
  /// Under kDelta, every this-many-th checkpoint is a full compaction
  /// that rewrites the file (>= 1); mirrors sim::FaultOptions.
  int64_t checkpoint_compact_every = 8;
  /// Test-only: run in the worker thread before each batch's
  /// IngestEncoded, with the batch's per-connection sequence number. Lets
  /// tests hold a worker mid-ingest to choreograph overload replies.
  std::function<void(uint64_t)> before_ingest_hook;

  Status Validate() const;
};

/// ServerStats' counters as X(type, name) entries (common/fields.h).
#define FR_SERVER_STATS_FIELDS(X)                                             \
  X(int64_t, connections_accepted)                                            \
  X(int64_t, frames_received)                                                 \
  X(int64_t, batches_acked)                                                   \
  X(int64_t, batches_nacked)        /* kDataLoss verdicts (checksum NACKs) */ \
  X(int64_t, batches_overloaded)    /* rejected by a full worker queue */     \
  X(int64_t, batches_errored)       /* non-retryable ingest failures */       \
  X(int64_t, registrations_applied) /* registration records applied */        \
  X(int64_t, registrations_deduped) /* re-registrations absorbed */           \
  X(int64_t, records_applied)       /* report records only (and below) */     \
  X(int64_t, records_deduped)                                                 \
  X(int64_t, records_out_of_window)                                           \
  X(int64_t, checkpoints_taken)                                               \
  X(int64_t, delta_checkpoints_taken)                                         \
  X(int64_t, checkpoint_bytes)                                                \
  X(int64_t, delta_checkpoint_bytes) /* of checkpoint_bytes, delta blobs */

/// Monotonic counters, readable from any thread while the server runs.
/// Registration batches and report batches are counted apart (the worker
/// classifies each payload with core::PeekBatchKind), so records_* match
/// the sender's sim::DeliveryMetrics report counts.
struct ServerStats {
  using Self = ServerStats;
  FR_SERVER_STATS_FIELDS(FR_FIELD_MEMBER)

  /// The field table: ToString and JsonLine::AddFields iterate it.
  static constexpr auto Fields() {
    return std::tuple{FR_SERVER_STATS_FIELDS(FR_FIELD_ENTRY)};
  }

  /// "ServerStats{connections_accepted=... checkpoint_bytes=...}".
  std::string ToString() const { return FieldsToString("ServerStats", *this); }
};

/// One server instance: Create -> Add*Listener -> Start -> (serve) ->
/// Join. Stop arrives either as a ControlOp::kShutdown frame from a
/// client (acked after the drain, as the connection's last frame) or via
/// RequestStop() from any thread. Shutdown drains every queued batch,
/// takes the final full checkpoint, then exits.
class IngestServer {
 public:
  static Result<std::unique_ptr<IngestServer>> Create(
      const ServiceConfig& config);

  /// Joins outstanding threads (issuing RequestStop first if needed).
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds a TCP listener; returns the actual port (port 0 = ephemeral).
  /// Call before Start.
  Result<int> AddTcpListener(const std::string& host, int port);

  /// Binds a Unix-domain listener at `path`. Call before Start.
  Status AddUnixListener(const std::string& path);

  /// Spawns the IO thread and workers. Requires at least one listener.
  Status Start();

  /// Initiates graceful shutdown from any thread (idempotent).
  void RequestStop();

  /// Blocks until the server has shut down (after a kShutdown control
  /// frame or RequestStop) and returns the first serving error, if any.
  Status Join();

  /// The live aggregator. Concurrent queries are safe while serving;
  /// mutation (Restore) is only safe before Start or after Join.
  core::ShardedAggregator& aggregator() { return aggregator_; }
  const core::ShardedAggregator& aggregator() const { return aggregator_; }

  ServerStats stats() const;

 private:
  struct WorkItem {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    std::string payload;
  };

  struct Completion {
    uint64_t conn_id = 0;
    Reply reply;
    bool acked_ingest = false;  // counted toward the drain barrier
    bool registration = false;  // a registration batch, not reports
  };

  // Mutex+condvar bounded FIFO; TryPush never blocks (overload is a
  // protocol reply, not backpressure on the IO thread).
  class BoundedQueue {
   public:
    explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}
    bool TryPush(WorkItem item);
    bool Pop(WorkItem* item);  // blocks; false once closed and empty
    void Close();

   private:
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<WorkItem> items_;
    size_t capacity_;
    bool closed_ = false;
  };

  struct Connection {
    uint64_t id = 0;
    FdGuard fd;
    int worker = 0;
    FrameParser parser;
    std::string outbox;
    uint64_t frames_received = 0;  // assigns reply sequence numbers
    bool want_write = false;       // current poller write interest
    bool paused = false;           // read interest dropped (backpressure)
    bool closing = false;          // close once the outbox drains
    bool dead = false;             // unlinked; destroyed after this event
                                   // sweep (deferred so in-sweep pointers
                                   // stay valid)
  };

  IngestServer(const ServiceConfig& config,
               core::ShardedAggregator aggregator, Poller poller);

  void IoLoop();
  void WorkerLoop(int index);
  void WakeIo();
  void AcceptAll(int listener_fd);
  void HandleReadable(Connection* conn);
  void ProcessFrame(Connection* conn, std::string payload);
  void EnqueueReply(Connection* conn, const Reply& reply);
  void FlushOutbox(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void DrainCompletions();
  void CloseListeners();
  // `final` forces a quiesced full compaction (shutdown path).
  Status DoCheckpoint(bool final);
  void FinishShutdown();

  ServiceConfig config_;
  core::ShardedAggregator aggregator_;
  Poller poller_;
  FdGuard wake_read_;
  FdGuard wake_write_;

  std::vector<FdGuard> listeners_;
  std::unordered_map<int, uint64_t> fd_to_conn_;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  // Connections unlinked mid-sweep; their fds close when the sweep ends.
  std::vector<std::unique_ptr<Connection>> graveyard_;
  uint64_t next_conn_id_ = 0;

  std::vector<std::unique_ptr<BoundedQueue>> queues_;
  std::vector<std::thread> workers_;
  std::thread io_thread_;
  bool started_ = false;
  bool joined_ = false;

  std::atomic<bool> stop_requested_{false};
  std::atomic<int64_t> in_flight_{0};  // queued or mid-ingest batches

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  // IO-thread-only shutdown/checkpoint state.
  bool draining_ = false;
  bool have_shutdown_ack_ = false;
  uint64_t shutdown_ack_conn_ = 0;
  uint64_t shutdown_ack_seq_ = 0;
  bool checkpoint_base_taken_ = false;
  int64_t ingests_since_checkpoint_ = 0;
  std::chrono::steady_clock::time_point next_checkpoint_;

  Status serving_error_;
};

/// Rebuilds aggregator state from an IngestServer checkpoint file: a
/// sequence of FRS frames, each one core::ShardedAggregator checkpoint
/// blob, restored in order (full base, then deltas). The shutdown path
/// always leaves a single full blob, which restores onto any shard count.
Status RestoreFromCheckpointFile(const std::string& path,
                                 core::ShardedAggregator* aggregator);

}  // namespace futurerand::net

#endif  // FUTURERAND_NET_SERVER_H_
