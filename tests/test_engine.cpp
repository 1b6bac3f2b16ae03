// WatermarkEngine service layer: batch fan-out, per-slot error isolation,
// deterministic per-request seeding, and pool-size invariance.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "model_zoo/zoo.h"
#include "util/threadpool.h"
#include "wm/engine.h"
#include "wm/evidence.h"
#include "wm_fixture.h"

namespace emmark {
namespace {

using testfx::WmFixture;

TEST(EngineSeed, DeterministicAndDistinct) {
  const uint64_t a = WatermarkEngine::request_seed(7, "request-1");
  EXPECT_EQ(a, WatermarkEngine::request_seed(7, "request-1"));
  EXPECT_NE(a, WatermarkEngine::request_seed(7, "request-2"));
  EXPECT_NE(a, WatermarkEngine::request_seed(8, "request-1"));
  // Lanes give independent streams for placement vs. signature seeds.
  EXPECT_NE(a, WatermarkEngine::request_seed(7, "request-1", /*lane=*/1));
}

struct EngineFixture {
  EngineFixture() : f() {
    key.bits_per_layer = 8;
    key.candidate_ratio = 10;
  }

  std::vector<WatermarkEngine::InsertRequest> make_requests(
      std::vector<QuantizedModel>& models) const {
    const std::vector<std::string> schemes = {"emmark", "randomwm", "specmark"};
    std::vector<WatermarkEngine::InsertRequest> requests;
    for (size_t i = 0; i < models.size(); ++i) {
      WatermarkEngine::InsertRequest request;
      request.id = "model-" + std::to_string(i);
      request.scheme = schemes[i % schemes.size()];
      request.model = &models[i];
      request.stats = &f.stats;
      request.key = key;
      request.seed_from_id = true;
      requests.push_back(request);
    }
    return requests;
  }

  WmFixture f;
  WatermarkKey key;
};

TEST(Engine, InsertBatchIsDeterministicAcrossPoolSizes) {
  EngineFixture fx;
  constexpr size_t kBatch = 7;

  std::vector<uint64_t> reference;
  std::vector<uint64_t> reference_seeds;
  for (size_t pool_size : {size_t{1}, size_t{3}, size_t{8}}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    std::vector<QuantizedModel> models(kBatch, *fx.f.quantized);
    const WatermarkEngine engine({/*base_seed=*/11, /*trace_min_wer_pct=*/90.0});
    const auto results = engine.insert_batch(fx.make_requests(models));

    ASSERT_EQ(results.size(), kBatch);
    std::vector<uint64_t> digests;
    std::vector<uint64_t> seeds;
    for (size_t i = 0; i < kBatch; ++i) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].id, "model-" + std::to_string(i));
      digests.push_back(digest_model_codes(models[i]));
      seeds.push_back(results[i].key.seed);
    }
    if (reference.empty()) {
      reference = digests;
      reference_seeds = seeds;
    } else {
      EXPECT_EQ(digests, reference) << "pool size " << pool_size;
      EXPECT_EQ(seeds, reference_seeds) << "pool size " << pool_size;
    }
  }
}

TEST(Engine, SeedFromIdSeparatesIdenticalRequests) {
  // Two models watermarked from the same key template but different request
  // ids must land on different placements (no cross-device collisions).
  EngineFixture fx;
  std::vector<QuantizedModel> models(2, *fx.f.quantized);
  const WatermarkEngine engine({/*base_seed=*/5, /*trace_min_wer_pct=*/90.0});
  auto requests = fx.make_requests(models);
  requests[1].scheme = requests[0].scheme;  // same scheme, different id
  const auto results = engine.insert_batch(requests);
  ASSERT_TRUE(results[0].ok && results[1].ok);
  EXPECT_NE(results[0].key.seed, results[1].key.seed);
  EXPECT_NE(digest_model_codes(models[0]), digest_model_codes(models[1]));
}

TEST(Engine, BadRequestFailsItsSlotOnly) {
  EngineFixture fx;
  std::vector<QuantizedModel> models(3, *fx.f.quantized);
  auto requests = fx.make_requests(models);
  requests[1].scheme = "no-such-scheme";
  const WatermarkEngine engine;
  const auto results = engine.insert_batch(requests);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("no-such-scheme"), std::string::npos);
  EXPECT_TRUE(results[2].ok) << results[2].error;

  // Null-model request reports, does not crash.
  requests[1].scheme = "emmark";
  requests[1].model = nullptr;
  const auto retry = engine.insert_batch(requests);
  EXPECT_FALSE(retry[1].ok);
  EXPECT_NE(retry[1].error.find("model"), std::string::npos);
}

TEST(Engine, ExtractBatchMatchesDirectExtraction) {
  EngineFixture fx;
  constexpr size_t kBatch = 5;
  std::vector<QuantizedModel> models(kBatch, *fx.f.quantized);
  const WatermarkEngine engine;
  const auto inserted = engine.insert_batch(fx.make_requests(models));

  std::vector<WatermarkEngine::ExtractRequest> extracts;
  for (size_t i = 0; i < kBatch; ++i) {
    WatermarkEngine::ExtractRequest request;
    request.id = inserted[i].id;
    request.suspect = &models[i];
    request.original = fx.f.quantized.get();
    request.record = &inserted[i].record;
    extracts.push_back(request);
  }

  std::vector<std::pair<int64_t, int64_t>> reference;
  for (size_t pool_size : {size_t{1}, size_t{6}}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    const auto results = engine.extract_batch(extracts);
    std::vector<std::pair<int64_t, int64_t>> reports;
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      reports.emplace_back(results[i].report.matched_bits,
                           results[i].report.total_bits);
      // Direct scheme extraction agrees with the batched slot.
      const auto direct =
          WatermarkRegistry::create(inserted[i].record.scheme())
              ->extract(models[i], *fx.f.quantized, inserted[i].record);
      EXPECT_EQ(direct.matched_bits, results[i].report.matched_bits);
      EXPECT_EQ(direct.total_bits, results[i].report.total_bits);
    }
    if (reference.empty()) {
      reference = reports;
    } else {
      EXPECT_EQ(reports, reference);  // bit-identical at pool sizes 1 and N
    }
  }
}

TEST(Engine, TraceBatchIdentifiesLeakers) {
  EngineFixture fx;
  std::vector<QuantizedModel> device_models;
  const FingerprintSet set = Fingerprinter::enroll(
      "emmark", *fx.f.quantized, fx.f.stats, fx.key,
      {"dev-a", "dev-b", "dev-c"}, device_models);

  std::vector<WatermarkEngine::TraceRequest> requests;
  for (size_t i = 0; i < device_models.size(); ++i) {
    WatermarkEngine::TraceRequest request;
    request.id = "leak-" + std::to_string(i);
    request.suspect = &device_models[i];
    request.original = fx.f.quantized.get();
    request.set = &set;
    requests.push_back(request);
  }
  const WatermarkEngine engine;
  const auto results = engine.trace_batch(requests);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].trace.device_id, "dev-a");
  EXPECT_EQ(results[1].trace.device_id, "dev-b");
  EXPECT_EQ(results[2].trace.device_id, "dev-c");
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_DOUBLE_EQ(result.trace.wer_pct, 100.0);
  }
}

// --- asynchronous path -------------------------------------------------------

TEST(AsyncEngine, SubmitMatchesBatchByteForByte) {
  // The async pipeline must be a scheduling change only: for the same
  // requests, results and stamped codes are byte-identical to the
  // synchronous batch path.
  EngineFixture fx;
  constexpr size_t kBatch = 6;
  const EngineConfig config{/*base_seed=*/21, /*trace_min_wer_pct=*/90.0};

  std::vector<QuantizedModel> sync_models(kBatch, *fx.f.quantized);
  const WatermarkEngine sync_engine(config);
  const auto sync_results = sync_engine.insert_batch(fx.make_requests(sync_models));

  std::vector<QuantizedModel> async_models(kBatch, *fx.f.quantized);
  WatermarkEngine async_engine(config);
  const auto async_requests = fx.make_requests(async_models);
  std::vector<std::future<WatermarkEngine::InsertResult>> futures;
  for (const auto& request : async_requests) {
    futures.push_back(async_engine.submit(request));
  }
  async_engine.drain();

  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto slot = futures[i].get();
    ASSERT_TRUE(slot.ok) << slot.error;
    EXPECT_EQ(slot.id, sync_results[i].id);
    EXPECT_EQ(slot.key.seed, sync_results[i].key.seed);
    EXPECT_EQ(slot.key.signature_seed, sync_results[i].key.signature_seed);
    EXPECT_EQ(digest_model_codes(async_models[i]),
              digest_model_codes(sync_models[i]))
        << "request " << i;
  }
}

TEST(AsyncEngine, CompletionCallbackDeliversTheResult) {
  EngineFixture fx;
  std::vector<QuantizedModel> models(1, *fx.f.quantized);
  WatermarkEngine engine;
  auto requests = fx.make_requests(models);

  std::promise<std::string> seen_id;
  auto future = engine.submit(requests[0], [&](const WatermarkEngine::InsertResult& r) {
    seen_id.set_value(r.ok ? r.id : "error:" + r.error);
  });
  EXPECT_EQ(seen_id.get_future().get(), requests[0].id);
  EXPECT_TRUE(future.get().ok);

  // A throwing callback must not lose the future or kill the worker.
  std::vector<QuantizedModel> more(1, *fx.f.quantized);
  auto retry = fx.make_requests(more);
  auto future2 = engine.submit(
      retry[0], [](const WatermarkEngine::InsertResult&) {
        throw std::runtime_error("callback boom");
      });
  EXPECT_TRUE(future2.get().ok);
  engine.drain();
}

TEST(AsyncEngine, StressInterleavedSubmittersAreIsolatedAndDeterministic) {
  // Several threads hammer one engine with interleaved insert / extract /
  // trace submissions (plus a sprinkling of malformed requests). Every
  // future must resolve, failures must stay in their own slot, and the
  // insert placements must match a synchronous replay of the same ids.
  EngineFixture fx;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 6;
  constexpr size_t kTotal = kThreads * kPerThread;

  std::vector<QuantizedModel> device_models;
  const FingerprintSet set =
      Fingerprinter::enroll("emmark", *fx.f.quantized, fx.f.stats, fx.key,
                            {"dev-a", "dev-b"}, device_models);
  QuantizedModel marked = *fx.f.quantized;
  const SchemeRecord record = EmMarkScheme().insert(marked, fx.f.stats, fx.key);

  const EngineConfig config{/*base_seed=*/17, /*trace_min_wer_pct=*/90.0};
  auto make_insert = [&](size_t slot, QuantizedModel* model) {
    WatermarkEngine::InsertRequest request;
    request.id = "ins-" + std::to_string(slot);
    request.scheme = slot % 5 == 0 ? "no-such-scheme" : "emmark";
    request.model = model;
    request.stats = &fx.f.stats;
    request.key = fx.key;
    request.seed_from_id = true;
    return request;
  };

  // Synchronous reference for the insert slots.
  std::vector<QuantizedModel> reference_models(kTotal, *fx.f.quantized);
  std::vector<WatermarkEngine::InsertRequest> reference_requests;
  for (size_t slot = 0; slot < kTotal; ++slot) {
    if (slot % 3 == 0) {
      reference_requests.push_back(make_insert(slot, &reference_models[slot]));
    }
  }
  const WatermarkEngine reference_engine(config);
  const auto reference = reference_engine.insert_batch(reference_requests);

  WatermarkEngine engine(config);
  std::vector<QuantizedModel> async_models(kTotal, *fx.f.quantized);
  std::vector<std::shared_future<WatermarkEngine::InsertResult>> inserts(kTotal);
  std::vector<std::shared_future<WatermarkEngine::ExtractResult>> extracts(kTotal);
  std::vector<std::shared_future<WatermarkEngine::TraceBatchResult>> traces(kTotal);

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t slot = t * kPerThread + i;
        if (slot % 3 == 0) {
          inserts[slot] =
              engine.submit(make_insert(slot, &async_models[slot])).share();
        } else if (slot % 3 == 1) {
          WatermarkEngine::ExtractRequest request;
          request.id = "ext-" + std::to_string(slot);
          request.suspect = &marked;
          request.original = fx.f.quantized.get();
          request.record = &record;
          extracts[slot] = engine.submit(request).share();
        } else {
          WatermarkEngine::TraceRequest request;
          request.id = "trc-" + std::to_string(slot);
          request.suspect = &device_models[slot % 2];
          request.original = fx.f.quantized.get();
          request.set = &set;
          traces[slot] = engine.submit(request).share();
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  engine.drain();
  EXPECT_EQ(engine.pending(), 0u);

  size_t reference_cursor = 0;
  for (size_t slot = 0; slot < kTotal; ++slot) {
    if (slot % 3 == 0) {
      ASSERT_EQ(inserts[slot].wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      const auto result = inserts[slot].get();
      const auto& expected = reference[reference_cursor++];
      EXPECT_EQ(result.id, expected.id);
      EXPECT_EQ(result.ok, expected.ok);
      if (slot % 5 == 0) {
        EXPECT_FALSE(result.ok);
        EXPECT_NE(result.error.find("no-such-scheme"), std::string::npos);
      } else {
        ASSERT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.key.seed, expected.key.seed);
      }
      EXPECT_EQ(digest_model_codes(async_models[slot]),
                digest_model_codes(reference_models[slot]))
          << "slot " << slot;
    } else if (slot % 3 == 1) {
      const auto result = extracts[slot].get();
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_DOUBLE_EQ(result.report.wer_pct(), 100.0);
    } else {
      const auto result = traces[slot].get();
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.trace.device_id, slot % 2 == 0 ? "dev-a" : "dev-b");
    }
  }
}

TEST(AsyncEngine, ShutdownWithNonEmptyQueueResolvesEveryFuture) {
  // One worker + a deep backlog: shutdown() must cancel the queued tail
  // (ok=false slots), finish the in-flight head, and leave no dangling
  // futures -- the destructor-safety contract.
  EngineFixture fx;
  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);
  WatermarkEngine engine;

  constexpr size_t kBacklog = 12;
  std::vector<QuantizedModel> models(kBacklog, *fx.f.quantized);
  auto requests = fx.make_requests(models);
  std::vector<std::future<WatermarkEngine::InsertResult>> futures;
  for (auto& request : requests) futures.push_back(engine.submit(request));
  engine.shutdown();

  size_t completed = 0;
  size_t cancelled = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto slot = future.get();
    if (slot.ok) {
      ++completed;
    } else {
      ++cancelled;
      EXPECT_NE(slot.error.find("shut down"), std::string::npos) << slot.error;
    }
  }
  EXPECT_EQ(completed + cancelled, kBacklog);
  EXPECT_EQ(engine.pending(), 0u);

  // Post-shutdown submissions are rejected immediately, not queued.
  auto rejected = engine.submit(requests[0]);
  const auto slot = rejected.get();
  EXPECT_FALSE(slot.ok);
  EXPECT_NE(slot.error.find("shut down"), std::string::npos);
}

TEST(AsyncEngine, DeepBurstOnOneWorkerCompletesInSubmitOrder) {
  // The engine keeps no queue of its own: a 300-deep burst waits in the
  // pool's dispatch queue, and a one-thread pool runs it strictly in
  // submit order.
  EngineFixture fx;
  QuantizedModel marked = *fx.f.quantized;
  const SchemeRecord record = EmMarkScheme().insert(marked, fx.f.stats, fx.key);

  ThreadPool pool(1);
  ThreadPool::ScopedOverride over(pool);
  WatermarkEngine engine;

  constexpr size_t kBurst = 300;
  std::mutex order_mutex;
  std::vector<std::string> order;
  std::vector<std::future<WatermarkEngine::ExtractResult>> futures;
  for (size_t i = 0; i < kBurst; ++i) {
    WatermarkEngine::ExtractRequest request;
    request.id = "burst-" + std::to_string(i);
    request.suspect = &marked;
    request.original = fx.f.quantized.get();
    request.record = &record;
    futures.push_back(engine.submit(
        std::move(request), [&](const WatermarkEngine::ExtractResult& slot) {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(slot.id);
        }));
  }
  engine.drain();

  ASSERT_EQ(order.size(), kBurst);
  for (size_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(order[i], "burst-" + std::to_string(i));
    const auto slot = futures[i].get();
    ASSERT_TRUE(slot.ok) << slot.error;
    EXPECT_DOUBLE_EQ(slot.report.wer_pct(), 100.0);
  }
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.counters().submitted, kBurst);
}

TEST(AsyncEngine, ReadyFutureImpliesNotPending) {
  // The publish-after-decrement contract: once a future reports ready, the
  // request is no longer counted in pending(). (Before the split of run
  // and publish, the promise resolved while in_flight_ was still 1.)
  EngineFixture fx;
  WatermarkEngine engine;
  for (int round = 0; round < 5; ++round) {
    std::vector<QuantizedModel> models(1, *fx.f.quantized);
    auto requests = fx.make_requests(models);
    auto future = engine.submit(requests[0]);
    EXPECT_TRUE(future.get().ok);
    EXPECT_EQ(engine.pending(), 0u) << "round " << round;
  }
}

TEST(AsyncEngine, LazySourcesFactoryRunsOnTheWorker) {
  // Extract/trace requests with a sources_factory materialize their inputs
  // on the executing worker -- the submitting thread never touches them --
  // and produce the same report as eager pointers.
  EngineFixture fx;
  std::vector<QuantizedModel> models(1, *fx.f.quantized);
  WatermarkEngine engine({/*base_seed=*/9, /*trace_min_wer_pct=*/90.0});
  auto inserts = fx.make_requests(models);
  const auto inserted = engine.insert_batch({inserts[0]});
  ASSERT_TRUE(inserted[0].ok) << inserted[0].error;

  struct Lazy {
    std::unique_ptr<QuantizedModel> suspect;
    SchemeRecord record;
  };
  auto lazy = std::make_shared<Lazy>();
  std::thread::id factory_thread;

  WatermarkEngine::ExtractRequest request;
  request.id = "lazy-extract";
  request.sources_factory = [&, lazy]() {
    factory_thread = std::this_thread::get_id();
    lazy->suspect = std::make_unique<QuantizedModel>(models[0]);  // off-thread deep copy
    lazy->record = inserted[0].record;
    WatermarkEngine::ExtractRequest::Sources src;
    src.suspect = lazy->suspect.get();
    src.original = fx.f.quantized.get();
    src.record = &lazy->record;
    return src;
  };
  const auto slot = engine.submit(std::move(request)).get();
  ASSERT_TRUE(slot.ok) << slot.error;
  EXPECT_NE(factory_thread, std::this_thread::get_id());
  EXPECT_DOUBLE_EQ(slot.report.wer_pct(), 100.0);

  // A throwing factory fails only its own slot.
  WatermarkEngine::ExtractRequest boom;
  boom.id = "boom";
  boom.sources_factory = []() -> WatermarkEngine::ExtractRequest::Sources {
    throw std::runtime_error("artifact load failed");
  };
  const auto failed = engine.submit(std::move(boom)).get();
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("artifact load failed"), std::string::npos);
  engine.drain();
}

TEST(AsyncEngine, VerifyRequestAuditsEvidenceOffThread) {
  // The arbiter audit as an engine verb: same verdicts as calling
  // OwnershipEvidence::verify directly, per-slot error isolation included.
  EngineFixture fx;
  QuantizedModel marked = *fx.f.quantized;
  const SchemeRecord record = EmMarkScheme().insert(marked, fx.f.stats, fx.key);
  const OwnershipEvidence evidence = OwnershipEvidence::create(
      "acme", record, *fx.f.quantized, fx.f.stats, /*created_unix=*/1234);

  WatermarkEngine engine;
  WatermarkEngine::VerifyRequest request;
  request.id = "audit";
  request.suspect = &marked;
  request.original = fx.f.quantized.get();
  request.stats = &fx.f.stats;
  request.evidence = &evidence;
  request.min_wer_pct = 90.0;
  const auto slot = engine.submit(std::move(request)).get();
  ASSERT_TRUE(slot.ok) << slot.error;
  EXPECT_TRUE(slot.verified) << slot.why;
  EXPECT_EQ(slot.owner, "acme");
  EXPECT_EQ(slot.scheme, record.scheme());

  // A scrubbed suspect fails the audit (ok=true, verified=false, reason).
  QuantizedModel scrubbed = *fx.f.quantized;
  WatermarkEngine::VerifyRequest bad;
  bad.id = "audit-scrubbed";
  bad.suspect = &scrubbed;
  bad.original = fx.f.quantized.get();
  bad.stats = &fx.f.stats;
  bad.evidence = &evidence;
  bad.min_wer_pct = 90.0;
  const auto bad_slot = engine.submit(std::move(bad)).get();
  ASSERT_TRUE(bad_slot.ok) << bad_slot.error;
  EXPECT_FALSE(bad_slot.verified);
  EXPECT_FALSE(bad_slot.why.empty());

  // Null payloads fail the slot, not the engine.
  WatermarkEngine::VerifyRequest empty;
  empty.id = "audit-null";
  const auto null_slot = engine.submit(std::move(empty)).get();
  EXPECT_FALSE(null_slot.ok);
  EXPECT_NE(null_slot.error.find("verify request"), std::string::npos);
  engine.drain();
}

TEST(Engine, ZooBatchExtractionBitIdenticalAtPoolSizes1AndN) {
  // The acceptance-criterion shape: watermark two zoo models (training
  // capped, throwaway cache), then batch-extract at pool sizes 1 and N and
  // require bit-identical reports.
  const std::string cache =
      (std::filesystem::temp_directory_path() / "emmark_engine_zoo_cache").string();
  std::filesystem::remove_all(cache);
  ModelZoo zoo(cache);
  zoo.set_train_steps_cap(40);

  const std::vector<std::string> names = {"opt-125m-sim", "opt-1.3b-sim"};
  std::vector<std::shared_ptr<const ActivationStats>> stats;
  std::vector<std::unique_ptr<QuantizedModel>> originals;
  std::vector<std::unique_ptr<QuantizedModel>> marked;
  for (const std::string& name : names) {
    auto fp = zoo.model(name);
    stats.push_back(zoo.stats(name));
    originals.push_back(std::make_unique<QuantizedModel>(*fp, *stats.back(),
                                                         QuantMethod::kAwqInt4));
    marked.push_back(std::make_unique<QuantizedModel>(*originals.back()));
  }

  const WatermarkEngine engine({/*base_seed=*/3, /*trace_min_wer_pct=*/90.0});
  std::vector<WatermarkEngine::InsertRequest> inserts;
  for (size_t i = 0; i < names.size(); ++i) {
    WatermarkEngine::InsertRequest request;
    request.id = names[i];
    request.model = marked[i].get();
    request.stats = stats[i].get();
    request.key.bits_per_layer = 8;
    request.key.candidate_ratio = 10;
    request.seed_from_id = true;
    inserts.push_back(request);
  }
  const auto inserted = engine.insert_batch(inserts);
  for (const auto& result : inserted) ASSERT_TRUE(result.ok) << result.error;

  std::vector<WatermarkEngine::ExtractRequest> extracts;
  for (size_t i = 0; i < names.size(); ++i) {
    WatermarkEngine::ExtractRequest request;
    request.id = names[i];
    request.suspect = marked[i].get();
    request.original = originals[i].get();
    request.record = &inserted[i].record;
    extracts.push_back(request);
  }

  std::vector<std::pair<int64_t, int64_t>> reference;
  for (size_t pool_size : {size_t{1}, ThreadPool::shared().size()}) {
    ThreadPool pool(pool_size);
    ThreadPool::ScopedOverride over(pool);
    const auto results = engine.extract_batch(extracts);
    std::vector<std::pair<int64_t, int64_t>> reports;
    for (const auto& result : results) {
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_DOUBLE_EQ(result.report.wer_pct(), 100.0);
      reports.emplace_back(result.report.matched_bits, result.report.total_bits);
    }
    if (reference.empty()) {
      reference = reports;
    } else {
      EXPECT_EQ(reports, reference);
    }
  }
  std::filesystem::remove_all(cache);
}

}  // namespace
}  // namespace emmark
