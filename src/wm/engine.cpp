#include "wm/engine.h"

#include <chrono>
#include <exception>
#include <memory>
#include <utility>

#include "util/rng.h"
#include "util/threadpool.h"
#include "wm/evidence.h"

namespace emmark {
namespace {

/// Runs one request body, routing any exception into the slot's error
/// string: a malformed request must not take down the rest of the workload.
template <typename Result, typename Fn>
void run_guarded(Result& slot, const Fn& fn) {
  try {
    fn();
    slot.ok = true;
  } catch (const std::exception& e) {
    slot.ok = false;
    slot.error = e.what();
  }
}

/// Delivers a result: the callback first (its exceptions must not kill the
/// pool worker or drop the future), then the promise.
template <typename Result>
void publish(const std::function<void(const Result&)>& done,
             std::promise<Result>& promise, Result slot) {
  if (done) {
    try {
      done(slot);
    } catch (...) {
    }
  }
  promise.set_value(std::move(slot));
}

template <typename Result>
Result rejection(const std::string& id, const char* why) {
  Result slot;
  slot.id = id;
  slot.error = why;
  return slot;
}

}  // namespace

WatermarkEngine::WatermarkEngine(EngineConfig config)
    : config_(config), pool_(&ThreadPool::active()) {}

WatermarkEngine::~WatermarkEngine() { shutdown(); }

uint64_t WatermarkEngine::request_seed(uint64_t base_seed,
                                       const std::string& request_id,
                                       uint64_t lane) {
  // fnv1a64 is byte-stable across platforms (unlike std::hash), so replayed
  // workloads reproduce their seeds anywhere.
  uint64_t state = base_seed ^ fnv1a64(request_id.data(), request_id.size()) ^
                   (lane * 0xbf58476d1ce4e5b9ull);
  return splitmix64(state);
}

// --- single-request executors (shared by the batch and async paths) ---------

WatermarkEngine::InsertResult WatermarkEngine::run(
    const EngineConfig& config, const InsertRequest& request) {
  InsertResult slot;
  slot.id = request.id;
  run_guarded(slot, [&] {
    QuantizedModel* model = request.model;
    if (model == nullptr && request.model_factory) {
      model = request.model_factory();  // materialized on this worker
    }
    if (model == nullptr || request.stats == nullptr) {
      throw std::invalid_argument("insert request needs model and stats");
    }
    WatermarkKey key = request.key;
    if (request.seed_from_id) {
      key.seed = request_seed(config.base_seed, request.id, /*lane=*/0);
      key.signature_seed = request_seed(config.base_seed, request.id, /*lane=*/1);
    }
    slot.key = key;
    slot.record = WatermarkRegistry::create(request.scheme)
                      ->insert(*model, *request.stats, key);
  });
  return slot;
}

WatermarkEngine::ExtractResult WatermarkEngine::run(
    const EngineConfig& /*config*/, const ExtractRequest& request) {
  ExtractResult slot;
  slot.id = request.id;
  run_guarded(slot, [&] {
    ExtractRequest::Sources src{request.suspect, request.original,
                                request.record};
    if (src.suspect == nullptr && request.sources_factory) {
      src = request.sources_factory();  // materialized on this worker
    }
    if (src.suspect == nullptr || src.original == nullptr ||
        src.record == nullptr) {
      throw std::invalid_argument("extract request needs suspect, original, record");
    }
    slot.report = WatermarkRegistry::create(src.record->scheme())
                      ->extract(*src.suspect, *src.original, *src.record);
  });
  return slot;
}

WatermarkEngine::TraceBatchResult WatermarkEngine::run(
    const EngineConfig& config, const TraceRequest& request) {
  TraceBatchResult slot;
  slot.id = request.id;
  run_guarded(slot, [&] {
    TraceRequest::Sources src{request.suspect, request.original, request.set};
    if (src.suspect == nullptr && request.sources_factory) {
      src = request.sources_factory();  // materialized on this worker
    }
    if (src.suspect == nullptr || src.original == nullptr ||
        src.set == nullptr) {
      throw std::invalid_argument("trace request needs suspect, original, set");
    }
    const double gate = request.min_wer_pct >= 0.0 ? request.min_wer_pct
                                                   : config.trace_min_wer_pct;
    slot.trace = Fingerprinter::trace(*src.suspect, *src.original, *src.set, gate);
  });
  return slot;
}

WatermarkEngine::VerifyResult WatermarkEngine::run(
    const EngineConfig& config, const VerifyRequest& request) {
  VerifyResult slot;
  slot.id = request.id;
  run_guarded(slot, [&] {
    VerifyRequest::Sources src{request.suspect, request.original, request.stats,
                               request.evidence};
    if (src.suspect == nullptr && request.sources_factory) {
      src = request.sources_factory();  // materialized on this worker
    }
    if (src.suspect == nullptr || src.original == nullptr ||
        src.stats == nullptr || src.evidence == nullptr) {
      throw std::invalid_argument(
          "verify request needs suspect, original, stats, evidence");
    }
    const double gate = request.min_wer_pct >= 0.0 ? request.min_wer_pct
                                                   : config.trace_min_wer_pct;
    slot.owner = src.evidence->owner;
    slot.scheme = src.evidence->scheme();
    slot.verified = src.evidence->verify(*src.suspect, *src.original,
                                         *src.stats, gate, &slot.why);
  });
  return slot;
}

// --- batched (synchronous) path ---------------------------------------------

std::vector<WatermarkEngine::InsertResult> WatermarkEngine::insert_batch(
    const std::vector<InsertRequest>& requests) const {
  std::vector<InsertResult> results(requests.size());
  parallel_for_index(requests.size(), [&](size_t i) {
    results[i] = run(config_, requests[i]);
  });
  return results;
}

std::vector<WatermarkEngine::ExtractResult> WatermarkEngine::extract_batch(
    const std::vector<ExtractRequest>& requests) const {
  std::vector<ExtractResult> results(requests.size());
  parallel_for_index(requests.size(), [&](size_t i) {
    results[i] = run(config_, requests[i]);
  });
  return results;
}

std::vector<WatermarkEngine::TraceBatchResult> WatermarkEngine::trace_batch(
    const std::vector<TraceRequest>& requests) const {
  std::vector<TraceBatchResult> results(requests.size());
  parallel_for_index(requests.size(), [&](size_t i) {
    results[i] = run(config_, requests[i]);
  });
  return results;
}

// --- asynchronous path -------------------------------------------------------

template <typename Request>
std::future<typename Request::Result> WatermarkEngine::submit(
    Request request, Callback<Request> done) {
  using Result = typename Request::Result;
  // One shared box per request: pool tasks must be copyable, promises are
  // not.
  struct Task {
    Request request;
    Callback<Request> done;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point submitted_at;
  };
  auto task = std::make_shared<Task>(Task{std::move(request), std::move(done),
                                          {}, std::chrono::steady_clock::now()});
  std::future<Result> future = task->promise.get_future();
  bool accepted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepted = accepting_;
    if (accepted) {
      ++counters_.submitted;
      ++pending_;
      ++posted_;
    }
  }
  if (!accepted) {
    publish(task->done, task->promise,
            rejection<Result>(task->request.id, "engine is shut down"));
    return future;
  }

  pool_->post([this, task]() mutable {
    const auto started_at = std::chrono::steady_clock::now();
    bool cancelled;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cancelled = !accepting_;
    }
    Result slot;
    if (cancelled) {
      slot = rejection<Result>(task->request.id,
                               "engine shut down before the request ran");
    } else {
      queue_wait_hist_.record_duration(started_at - task->submitted_at);
      slot = run(config_, task->request);  // errors land in the slot
      exec_hist_.record_duration(std::chrono::steady_clock::now() - started_at);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++(cancelled ? counters_.cancelled
                   : slot.ok ? counters_.completed : counters_.failed);
      --pending_;
    }
    // Publish strictly after the pending count dropped: anyone who observes
    // the future ready must never find the request still counted in
    // pending() -- the determinism contract the `stats` verb's live
    // snapshot leans on.
    publish(task->done, task->promise, std::move(slot));
    // The request (and whatever its factories captured) is released before
    // the engine can be seen idle and destroyed.
    task.reset();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--posted_ == 0) idle_cv_.notify_all();
  });
  return future;
}

// The request types submit() serves.
using Engine = WatermarkEngine;
template std::future<Engine::InsertResult> Engine::submit(
    Engine::InsertRequest, Callback<Engine::InsertRequest>);
template std::future<Engine::ExtractResult> Engine::submit(
    Engine::ExtractRequest, Callback<Engine::ExtractRequest>);
template std::future<Engine::TraceBatchResult> Engine::submit(
    Engine::TraceRequest, Callback<Engine::TraceRequest>);
template std::future<Engine::VerifyResult> Engine::submit(
    Engine::VerifyRequest, Callback<Engine::VerifyRequest>);

void WatermarkEngine::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return posted_ == 0; });
}

void WatermarkEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
  }
  drain();
}

size_t WatermarkEngine::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

WatermarkEngine::Counters WatermarkEngine::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace emmark
