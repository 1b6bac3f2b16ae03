// RequestRouter: the transport-agnostic core of the serving protocol. The
// stdio daemon and the socket front door (src/net/server.h) both drive it,
// so they answer byte for byte alike:
//
//   * RequestRouter owns the backend shards. Each shard is an independent
//     ModelStore + async WatermarkEngine pair; a ShardRouter consistent-
//     hashes model-spec keys across them, so every spec has a home shard
//     and hot models from different shards never thrash one LRU.
//   * RequestRouter::Session is one protocol conversation (a stdin stream,
//     or one front-door connection): it parses request lines, dispatches to the
//     spec's home shard, and flushes exactly one JSON line per request in
//     request order. Ordering, artifact read/write dependencies, and the
//     submitted/completed/failed counters in `stats` are all per-session;
//     store and engine counters are per-shard (shared by every session on
//     the same router).
//
// The engine verbs (insert, extract, verify, trace) share one lazy
// pipeline, driven by a verb table in router.cpp: handle_line checks the
// whole line, then starts the model build via ModelStore::get_async and
// queues a response slot. The engine submission is deferred until the
// build future resolves, retried on every poll(); WatermarkEngine::submit
// never blocks, and artifact file I/O, the model deep copy and the
// response rendering happen on an engine worker. The intake thread's cost
// per line is parse + queue push -- it never blocks on a cold build or the
// filesystem.
//
// The wire protocol itself is specified normatively in docs/PROTOCOL.md;
// the architecture (layering, threading, sharding) in docs/ARCHITECTURE.md.
//
// Sessions are single-threaded: all calls on one Session must come from
// one thread at a time (the daemon loop, or the front door's event loop). The
// router's shards are thread-safe and shared by any number of sessions.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model_zoo/store.h"
#include "nn/transformer.h"
#include "obs/metrics.h"
#include "wm/engine.h"

namespace emmark {

/// Maps a --quant spec to a method: "int8"/"int4" pick the paper's
/// per-family quantizer; explicit method names ("awq-int4", ...) pass
/// through. Throws std::invalid_argument on unknown specs.
QuantMethod parse_quant_spec(const std::string& spec, ArchFamily family);

// --- wire grammar (docs/PROTOCOL.md §2) --------------------------------------
//
// The one definition of the request-line grammar and the error-line shape.
// The session below runs requests with it. Without running a request, the
// front door (src/net/server.h) maps HTTP parse errors to 400 with
// check_request, and the process-shard supervisor routes a line to its
// home worker with it.

std::string json_escape(const std::string& s);

/// The canonical failure line: {"id":..,"cmd":..,"ok":false,"error":..},
/// plus `,"<flag>":true` when a flag is given ("shed", "retryable";
/// docs/PROTOCOL.md §7).
std::string error_line(const std::string& id, const std::string& cmd,
                       const std::string& error, const char* flag = nullptr);

/// Whitespace-split request tokens; tokens[0] is the verb.
std::vector<std::string> tokenize(const std::string& line);

/// Value of the last `id=` token, "" when there is none.
std::string request_id(const std::vector<std::string>& tokens);

/// The verbs that run on an engine shard against a model spec.
bool is_engine_verb(const std::string& cmd);

/// Those verbs in protocol order, space-separated ("insert extract verify
/// trace"), as the unknown-verb errors list them.
const std::string& engine_verb_names();

/// A request line checked without running it, in the session's own order:
/// parameters, then (engine verbs) the spec, then the required-parameter
/// table. Parse and spec errors throw with the session's exact error text.
struct RequestCheck {
  std::optional<ModelSpec> spec;  // engine verbs only
  std::string missing;            // first absent required parameter, or ""
};
RequestCheck check_request(const std::vector<std::string>& tokens,
                           int64_t train_steps_cap);

/// One protocol conversation as a transport drives it: the stdio daemon
/// and the front door (src/net/server.h) feed it request lines and collect
/// response lines. RequestRouter::Session runs requests in process; the
/// process-shard supervisor's fleet session proxies them to workers.
class ProtocolSession {
 public:
  /// Receives one complete response (no trailing newline).
  using LineSink = std::function<void(const std::string&)>;

  virtual ~ProtocolSession() = default;

  /// Parses and dispatches one request line. Ready responses (this
  /// request's, or earlier ones that just completed) are flushed to
  /// `emit`. Never blocks. Returns false once the session saw `quit`: the
  /// caller must stop feeding lines and call finish().
  virtual bool handle_line(const std::string& line, const LineSink& emit) = 0;

  /// Advances pending work and flushes responses that became ready,
  /// without blocking. Transports call this between inputs so completed
  /// async work reaches the client even while the connection is idle.
  virtual void poll(const LineSink& emit) = 0;

  /// Ends the conversation: flushes every pending response (blocking if
  /// any is still running) and, for an in-process session that saw
  /// `quit`, the closing quit line. Call exactly once, after the last
  /// handle_line; the front door calls it once inflight() is 0.
  virtual void finish(const LineSink& emit) = 0;

  /// Requests whose responses have not flushed yet (the per-connection
  /// in-flight bound the front door throttles reads on).
  virtual size_t inflight() const = 0;

  virtual bool quit_seen() const = 0;
};

struct RouterConfig {
  /// Zoo checkpoint cache directory ("" = default).
  std::string cache_dir;
  /// Per-shard ModelStore capacity (resident originals before LRU
  /// eviction).
  size_t store_capacity = 4;
  /// Per-shard ModelStore byte budget over code-buffer footprints
  /// (0 = entry-count cap only).
  uint64_t max_resident_bytes = 0;
  /// Train-steps cap applied to every zoo build (0 = full training).
  int64_t train_steps_cap = 0;
  /// Engine base seed for seed-from-id requests (every shard's engine
  /// shares it, so request seeds do not depend on shard placement).
  uint64_t base_seed = 0;
  /// Default trace/verify WER gate (percent).
  double min_wer_pct = 90.0;
  /// Backend shard count (>= 1): N shards partition the spec key space N
  /// ways.
  size_t shards = 1;
  /// Admission-control bound per shard (0 = never shed): a request whose
  /// home shard already holds this many queued requests -- engine
  /// pending() plus parsed-but-not-yet-submitted deferred slots -- is
  /// fast-failed at parse time with a structured overload error instead
  /// of being queued (docs/PROTOCOL.md §7). Per shard, so a burst into
  /// one shard sheds without touching warm traffic on the others.
  size_t max_queued = 0;
  /// Per-shard ModelStore idle TTL in seconds (0 = keep until LRU
  /// pressure); swept by the serving loops via sweep_stores().
  double store_ttl_sec = 0;
  /// Echo each parsed command to stderr (interactive sessions).
  bool echo = false;
};

/// Consistent-hash ring over shard indices. Each shard contributes 64
/// virtual points hashed from "shard-<i>#<v>" (fnv1a64 finished through
/// splitmix64, so the mapping is byte-stable across platforms and runs); a
/// key lands on the first point clockwise from its own hash. Growing the
/// shard set by one therefore remaps only ~1/N of the key space -- the
/// property that makes the same ring usable for process-level sharding,
/// where a remap means losing a warm cache.
class ShardRouter {
 public:
  explicit ShardRouter(size_t shards);

  size_t shards() const { return shards_; }
  size_t shard_for(const std::string& key) const;

 private:
  size_t shards_;
  std::vector<std::pair<uint64_t, size_t>> ring_;  // sorted (point, shard)
};

class RequestRouter {
 public:
  using LineSink = ProtocolSession::LineSink;

  /// Per-shard observability snapshot for the `stats` verb.
  struct ShardSnapshot {
    ModelStore::Stats store;
    WatermarkEngine::Counters engine;
    size_t engine_pending = 0;
  };

  explicit RequestRouter(const RouterConfig& config);
  ~RequestRouter();

  RequestRouter(const RequestRouter&) = delete;
  RequestRouter& operator=(const RequestRouter&) = delete;

  const RouterConfig& config() const { return config_; }
  const ShardRouter& ring() const { return ring_; }
  size_t shard_for(const ModelSpec& spec) const {
    return ring_.shard_for(spec.key());
  }

  /// Blocks until every shard engine is idle. Transport teardown only --
  /// no request path calls this (the `stats` verb reports a live
  /// snapshot instead of draining other sessions' work).
  void drain();

  std::vector<ShardSnapshot> shard_stats() const;

  /// The process-wide metrics registry behind the `metrics` verb.
  /// Transports register their own series here (the socket server adds
  /// poll-cycle and connection metrics); recording through the returned
  /// references is lock-free.
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  /// Full Prometheus text exposition for the `metrics` verb: every
  /// registered series plus shard-derived families (engine queue depths
  /// and wait/exec histograms, store residency and latency histograms,
  /// merged across shards at scrape time). Ends with a `# EOF` line, no
  /// trailing newline (transports append it).
  std::string metrics_text();

  /// Runs each shard store's idle-TTL sweep (no-op when --store-ttl is
  /// off). Driven from the serving poll/pump cycles.
  void sweep_stores();

  /// One in-process protocol conversation. Responses stream through the
  /// sink passed to each call, strictly in request order for this session.
  class Session : public ProtocolSession {
   public:
    ~Session() override;

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool handle_line(const std::string& line, const LineSink& emit) override;
    void poll(const LineSink& emit) override;
    void finish(const LineSink& emit) override;
    size_t inflight() const override { return pending_.size(); }
    bool quit_seen() const override { return quit_; }

   private:
    friend class RequestRouter;
    explicit Session(RequestRouter& router) : router_(router) {}

    /// One response slot awaiting its turn: results stream strictly in
    /// request order, so a slot is flushed once it is ready and everything
    /// before it has been flushed.
    struct PendingOutput {
      /// Non-blocking progression (retry a deferred engine submission
      /// once the build future resolved and the artifact dependencies
      /// cleared). Empty for slots with nothing to advance (errors,
      /// stats).
      std::function<void()> advance;
      std::function<bool()> ready;
      std::function<std::string()> finalize;  // never throws; returns JSON
    };

    /// Runs every pending slot's advance hook (not just the front):
    /// deferred submissions behind an unfinished slot still reach the
    /// engine as soon as their dependencies clear, so the shard executes
    /// a session's independent requests concurrently.
    void advance_pending();
    void flush_pending(bool block, const LineSink& emit);

    RequestRouter& router_;
    uint64_t auto_id_ = 0;
    uint64_t slot_seq_ = 0;
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    bool quit_ = false;
    std::deque<PendingOutput> pending_;
    /// Artifact claims by in-flight slots, keyed by canonical path with
    /// the claiming slot's sequence number. A reader defers its engine
    /// submission while an earlier slot still owes a write to one of its
    /// paths; a writer defers while an earlier slot still reads or writes
    /// one of its paths. Ordering over slot sequence numbers keeps a
    /// read-then-write pair on one path from deadlocking each other (see
    /// docs/PROTOCOL.md, "Artifact dependencies").
    std::multimap<std::string, uint64_t> pending_writes_;
    std::multimap<std::string, uint64_t> pending_reads_;
  };

  std::unique_ptr<Session> open_session();

 private:
  friend class Session;
  friend struct RouterMetrics;

  /// One backend shard: an independent model cache plus engine.
  struct Shard {
    explicit Shard(const RouterConfig& config);
    ModelStore store;
    WatermarkEngine engine;
    /// Requests parsed but not yet handed to the engine (build future
    /// unresolved, artifact gates). Together with
    /// engine.pending() this is the shard's admission-control load.
    std::atomic<size_t> deferred{0};
  };

  Shard& shard(size_t index) { return *shards_[index]; }

  RouterConfig config_;
  ShardRouter ring_;
  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Pre-registered request-lifecycle series (per-verb latency phases,
  /// request/failure/shed counters); defined in router.cpp.
  std::unique_ptr<struct RouterMetrics> metrics_;
};

}  // namespace emmark
