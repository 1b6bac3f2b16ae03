// WatermarkEngine: the service front-door over the scheme registry.
//
// A vendor operating at fleet scale does not watermark one model at a time:
// deployments arrive as streams of requests spanning many models, devices
// and schemes (ROADMAP north star). The engine offers two entry styles over
// one execution path:
//
//   * Batched (synchronous): insert_batch / extract_batch / trace_batch fan
//     a request vector out on the thread pool and block until every slot is
//     filled, in request order.
//   * Asynchronous (service): submit() hands one request of any type
//     straight to the bound ThreadPool as one dispatch-class task and
//     returns a std::future of its result type (Request::Result)
//     immediately. The engine keeps no queue of its own: requests wait in
//     the pool's dispatch queue, and concurrency is the pool size. An
//     optional completion callback fires on the worker right before the
//     future becomes ready. drain() blocks until the engine is idle;
//     shutdown() stops intake and waits for every posted task -- a task
//     that starts after shutdown() cancels its request (the slot reports
//     ok=false, the future still becomes ready) instead of running it, so
//     shutdown is destructor-safe with a deep backlog.
//
// Guarantees, shared by both styles:
//
//   * One result slot per request -- a failed request reports {ok=false,
//     error} in its slot instead of aborting anything else (service
//     semantics, unlike the throwing library calls).
//   * Deterministic per-request seeding: requests flagged `seed_from_id`
//     get their key seeds derived from (config.base_seed, request id), so a
//     replayed workload reproduces every placement regardless of request
//     order, queue/worker interleaving, or thread count -- and two requests
//     never share a seed unless they share an id. Async results are
//     byte-identical to the synchronous path for the same requests.
//   * A ready future implies the request is no longer pending(): results
//     are published (callback, then promise) only after the engine's
//     pending count dropped, so an observer that saw the future resolve
//     never finds the same request still counted as pending -- the
//     property that keeps `stats` snapshots deterministic after a session
//     settled its own slots.
//
// Request payloads reference caller-owned models/stats (non-owning
// pointers); the caller keeps them alive until the request's result is
// observed (batch return, future ready, or callback fired). Each request
// type alternatively takes a lazy factory (model_factory /
// sources_factory) that the executing worker invokes to materialize the
// payload -- deep copies and artifact file loads then cost the submitting
// thread nothing.
//
// Engine tasks run in the pool's dispatch class, ahead of any request's
// intra parallel_for fan-out (see util/threadpool.h). The engine binds
// ThreadPool::active() at construction; create the engine inside a
// ScopedOverride to pin it to a private pool, and destroy the engine before
// that pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {

class ThreadPool;
struct OwnershipEvidence;

struct EngineConfig {
  /// Base for deterministic per-request seed derivation (seed_from_id).
  uint64_t base_seed = 0;
  /// Verdict gate applied to trace/verify requests that do not set their own.
  double trace_min_wer_pct = 90.0;
};

class WatermarkEngine {
 public:
  /// Lifetime counters over the asynchronous path (submit/cancel), exposed
  /// so a serving layer that owns one engine per shard can report per-shard
  /// load without wrapping every submission. The batch entry points do not
  /// count here: they are library calls, not service traffic.
  struct Counters {
    uint64_t submitted = 0;  // accepted submit() calls
    uint64_t completed = 0;  // executed requests whose slot reported ok
    uint64_t failed = 0;     // executed requests whose slot reported !ok
    uint64_t cancelled = 0;  // unstarted requests cancelled by shutdown()
  };

  struct InsertResult;
  struct ExtractResult;
  struct TraceBatchResult;
  struct VerifyResult;

  // Each request type names the result type it resolves to (Result), which
  // is what submit() dispatches on.

  struct InsertRequest {
    using Result = InsertResult;
    std::string id;                           // unique within the workload
    std::string scheme = "emmark";            // registry key
    QuantizedModel* model = nullptr;          // watermarked in place
    /// Lazy alternative to `model`: invoked on the executing worker to
    /// materialize the target (e.g. deep-copying a shared ModelStore
    /// handle) so submission threads never pay the copy. Used when
    /// `model` is null; exceptions it throws fail only this slot. The
    /// returned model stays caller-owned, like `model`.
    std::function<QuantizedModel*()> model_factory;
    const ActivationStats* stats = nullptr;
    WatermarkKey key;
    /// Overwrite key.seed / key.signature_seed from (base_seed, id).
    bool seed_from_id = false;
  };
  struct InsertResult {
    std::string id;
    bool ok = false;
    std::string error;
    WatermarkKey key;  // effective key (post seed derivation)
    SchemeRecord record;
  };

  struct ExtractRequest {
    using Result = ExtractResult;
    std::string id;
    const QuantizedModel* suspect = nullptr;
    const QuantizedModel* original = nullptr;
    const SchemeRecord* record = nullptr;  // carries its scheme tag
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const SchemeRecord* record = nullptr;
    };
    /// Lazy alternative to the pointer fields, mirroring insert's
    /// model_factory: invoked on the executing worker when `suspect` is
    /// null, so suspect deep copies and artifact loads (load_codes,
    /// SchemeRecord::load) never run on the submitting thread. Exceptions
    /// it throws fail only this slot; the returned pointees stay
    /// caller-owned.
    std::function<Sources()> sources_factory;
  };
  struct ExtractResult {
    std::string id;
    bool ok = false;
    std::string error;
    ExtractionReport report;
  };

  struct TraceRequest {
    using Result = TraceBatchResult;
    std::string id;
    const QuantizedModel* suspect = nullptr;
    const QuantizedModel* original = nullptr;
    const FingerprintSet* set = nullptr;
    /// Negative = use config.trace_min_wer_pct.
    double min_wer_pct = -1.0;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const FingerprintSet* set = nullptr;
    };
    /// Lazy alternative to the pointer fields (see ExtractRequest).
    std::function<Sources()> sources_factory;
  };
  struct TraceBatchResult {
    std::string id;
    bool ok = false;
    std::string error;
    TraceResult trace;
  };

  /// Arbiter-side evidence audit (OwnershipEvidence::verify) as an engine
  /// verb, so a serving layer can run it off the intake thread like every
  /// other request.
  struct VerifyRequest {
    using Result = VerifyResult;
    std::string id;
    const QuantizedModel* suspect = nullptr;
    const QuantizedModel* original = nullptr;
    const ActivationStats* stats = nullptr;
    const OwnershipEvidence* evidence = nullptr;
    /// Negative = use config.trace_min_wer_pct.
    double min_wer_pct = -1.0;
    struct Sources {
      const QuantizedModel* suspect = nullptr;
      const QuantizedModel* original = nullptr;
      const ActivationStats* stats = nullptr;
      const OwnershipEvidence* evidence = nullptr;
    };
    /// Lazy alternative to the pointer fields (see ExtractRequest).
    std::function<Sources()> sources_factory;
  };
  struct VerifyResult {
    std::string id;
    bool ok = false;
    std::string error;
    bool verified = false;  // the audit verdict (ok=true either way)
    std::string owner;      // from the evidence bundle
    std::string scheme;
    std::string why;  // human-readable reason when verified=false
  };

  /// Completion callback of an async request: runs on the executing
  /// worker with the result the future is about to deliver.
  template <typename Request>
  using Callback = std::function<void(const typename Request::Result&)>;

  explicit WatermarkEngine(EngineConfig config = {});
  ~WatermarkEngine();

  WatermarkEngine(const WatermarkEngine&) = delete;
  WatermarkEngine& operator=(const WatermarkEngine&) = delete;

  /// Deterministic seed for a request id (stable across platforms; FNV-1a
  /// into SplitMix64, salted by `lane` for independent streams).
  static uint64_t request_seed(uint64_t base_seed, const std::string& request_id,
                               uint64_t lane = 0);

  // --- batched (synchronous) entry points ----------------------------------
  std::vector<InsertResult> insert_batch(const std::vector<InsertRequest>& requests) const;
  std::vector<ExtractResult> extract_batch(const std::vector<ExtractRequest>& requests) const;
  std::vector<TraceBatchResult> trace_batch(const std::vector<TraceRequest>& requests) const;

  // --- asynchronous entry point ---------------------------------------------
  // Serves the four request types above; Request is deduced from the first
  // argument.

  /// Posts the request to the pool and returns immediately; never blocks.
  /// The optional callback runs on the worker that executed the request,
  /// with the same result the future delivers; callback exceptions are
  /// swallowed. After shutdown() the future resolves at once with an
  /// ok=false rejection slot.
  template <typename Request>
  std::future<typename Request::Result> submit(Request request,
                                               Callback<Request> done = {});

  /// Blocks until every submitted request has completed and published its
  /// result (callback and future).
  void drain();

  /// Stops intake and waits for every posted task: requests already
  /// executing finish, unstarted ones complete with ok=false cancellation
  /// slots (futures and callbacks still fire). Idempotent; called by the
  /// destructor.
  void shutdown();

  /// Submitted requests whose result is not yet published (waiting in the
  /// pool or executing). A request whose future is ready is never counted
  /// (results publish after the count drops -- see the file comment).
  size_t pending() const;

  /// Snapshot of the async-path lifetime counters.
  Counters counters() const;

  /// Queue-wait (submit -> task start) latency distribution of the async
  /// path. Recorded lock-free by pool workers; scrape via snapshot(), and
  /// merge snapshots across shard engines at scrape time.
  const obs::Histogram& queue_wait_histogram() const {
    return queue_wait_hist_;
  }

  /// Execution (task start -> run returned) latency distribution.
  const obs::Histogram& exec_histogram() const { return exec_hist_; }

  const EngineConfig& config() const { return config_; }

 private:
  // The single-request executors shared by the batch and async paths.
  static InsertResult run(const EngineConfig& config, const InsertRequest& request);
  static ExtractResult run(const EngineConfig& config, const ExtractRequest& request);
  static TraceBatchResult run(const EngineConfig& config, const TraceRequest& request);
  static VerifyResult run(const EngineConfig& config, const VerifyRequest& request);

  EngineConfig config_;
  ThreadPool* pool_;  // bound at construction (ThreadPool::active())

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;  // drain / shutdown
  size_t pending_ = 0;  // submitted, result not yet published
  size_t posted_ = 0;   // pool tasks that have not returned
  bool accepting_ = true;
  Counters counters_;
  obs::Histogram queue_wait_hist_;
  obs::Histogram exec_hist_;
};

}  // namespace emmark
