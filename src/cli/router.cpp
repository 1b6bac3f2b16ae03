#include "cli/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "model_zoo/zoo.h"
#include "util/rng.h"
#include "wm/evidence.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace emmark {

QuantMethod parse_quant_spec(const std::string& spec, ArchFamily family) {
  if (spec == "int8") {
    return family == ArchFamily::kOptStyle ? QuantMethod::kSmoothQuantInt8
                                           : QuantMethod::kLlmInt8;
  }
  if (spec == "int4") return QuantMethod::kAwqInt4;
  for (QuantMethod method :
       {QuantMethod::kRtnInt8, QuantMethod::kSmoothQuantInt8, QuantMethod::kLlmInt8,
        QuantMethod::kRtnInt4, QuantMethod::kAwqInt4, QuantMethod::kGptqInt4}) {
    if (spec == to_string(method)) return method;
  }
  throw std::invalid_argument(
      "unknown quant spec: " + spec +
      " (use int4, int8, or an explicit method like awq-int4)");
}

// --- ShardRouter -------------------------------------------------------------

namespace {

/// Ring hash: fnv1a64 (byte-stable) finished through splitmix64. FNV-1a
/// alone has weak avalanche on short, near-identical strings -- vnode
/// labels and zoo spec keys both are -- which left one shard owning ~90%
/// of the ring; the finisher restores uniformity while staying fully
/// deterministic across platforms.
uint64_t ring_hash(const std::string& s) {
  uint64_t state = fnv1a64(s.data(), s.size());
  return splitmix64(state);
}

constexpr size_t kVnodesPerShard = 64;

}  // namespace

ShardRouter::ShardRouter(size_t shards) : shards_(shards == 0 ? 1 : shards) {
  if (shards_ == 1) return;  // ring unused: everything maps to shard 0
  ring_.reserve(shards_ * kVnodesPerShard);
  for (size_t shard = 0; shard < shards_; ++shard) {
    for (size_t v = 0; v < kVnodesPerShard; ++v) {
      const std::string label =
          "shard-" + std::to_string(shard) + "#" + std::to_string(v);
      ring_.emplace_back(ring_hash(label), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t ShardRouter::shard_for(const std::string& key) const {
  if (shards_ == 1) return 0;
  const uint64_t point = ring_hash(key);
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             std::make_pair(point, size_t{0}),
                             [](const auto& a, const auto& b) { return a.first < b.first; });
  return it == ring_.end() ? ring_.front().second : it->second;
}


// --- wire grammar ------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string error_line(const std::string& id, const std::string& cmd,
                       const std::string& error, const char* flag) {
  std::string line = "{\"id\":\"" + json_escape(id) + "\",\"cmd\":\"" +
                     json_escape(cmd) + "\",\"ok\":false,\"error\":\"" +
                     json_escape(error) + "\"";
  if (flag != nullptr) line += ",\"" + std::string(flag) + "\":true";
  return line + "}";
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream split(line);
  std::string token;
  while (split >> token) tokens.push_back(token);
  return tokens;
}

std::string request_id(const std::vector<std::string>& tokens) {
  std::string id;
  for (const std::string& token : tokens) {
    if (token.rfind("id=", 0) == 0) id = token.substr(3);
  }
  return id;
}

namespace {

/// `key=value` parameters following the command word. Numeric getters
/// reject values with trailing garbage ("bits=8x"): std::stoll/std::stod
/// stop at the first non-numeric character, so only a fully-consumed
/// string counts as a number.
struct Params {
  std::map<std::string, std::string> kv;

  std::string get(const std::string& key, const std::string& def) const {
    const auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
  }
  int64_t get_int(const std::string& key, int64_t def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    try {
      size_t consumed = 0;
      const int64_t value = std::stoll(it->second, &consumed);
      if (consumed != it->second.size()) {
        throw std::invalid_argument("trailing characters");
      }
      return value;
    } catch (const std::exception&) {
      throw std::invalid_argument("parameter " + key + " expects an integer, got: " +
                                  it->second);
    }
  }
  double get_double(const std::string& key, double def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    try {
      size_t consumed = 0;
      const double value = std::stod(it->second, &consumed);
      if (consumed != it->second.size()) {
        throw std::invalid_argument("trailing characters");
      }
      return value;
    } catch (const std::exception&) {
      throw std::invalid_argument("parameter " + key + " expects a number, got: " +
                                  it->second);
    }
  }
};

Params parse_params(const std::vector<std::string>& tokens) {
  Params params;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("expected key=value, got: " + tokens[i]);
    }
    params.kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return params;
}

/// The spec an engine verb runs against. Throws on an unknown model or
/// quant spec.
ModelSpec resolve_spec(const Params& params, int64_t train_steps_cap) {
  ModelSpec spec;
  spec.model = params.get("model", "opt-125m-sim");
  spec.method = parse_quant_spec(params.get("quant", "int4"),
                                 zoo_entry(spec.model).family);
  spec.train_steps_cap = train_steps_cap;
  return spec;
}

std::string json_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Stable key for read-after-write artifact matching: two spellings of
/// one path ("dep.codes", "./dep.codes") must collide.
std::string artifact_key(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path canon = std::filesystem::weakly_canonical(path, ec);
  return ec ? path : canon.string();
}

/// True when any of `keys` is claimed by a slot older than `seq`. The
/// sequence comparison makes the artifact gates directional: a slot only
/// ever waits for claims from slots before it, so a reader and a writer of
/// one path -- whichever order they arrived in -- form a chain, never a
/// cycle of mutual deferral.
bool claimed_before(const std::multimap<std::string, uint64_t>& claims,
                    const std::vector<std::string>& keys, uint64_t seq) {
  for (const std::string& key : keys) {
    const auto range = claims.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second < seq) return true;
    }
  }
  return false;
}

void release_claims(std::multimap<std::string, uint64_t>& claims,
                    const std::vector<std::string>& keys, uint64_t seq) {
  for (const std::string& key : keys) {
    const auto range = claims.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == seq) {
        claims.erase(it);
        break;
      }
    }
  }
}

template <typename Result>
bool future_ready(const std::shared_future<Result>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Lifecycle timestamps for one request. `parse` is stamped at intake,
/// `submit` when the engine accepts the request, `complete` on the engine
/// worker just before the request settles -- the settled future is the
/// synchronization that makes `complete` safe to read at flush time.
struct RequestStamps {
  std::chrono::steady_clock::time_point parse{};
  std::chrono::steady_clock::time_point submit{};
  std::chrono::steady_clock::time_point complete{};
};

/// RAII deferred-slot accounting against the request's home shard: armed
/// at parse, released when the request reaches the engine (or permanently
/// fails before it; the destructor covers abandoned sessions). The count
/// feeds the admission-control load and the deferred-slots gauge.
class DeferredSlot {
 public:
  DeferredSlot() = default;
  DeferredSlot(const DeferredSlot&) = delete;
  DeferredSlot& operator=(const DeferredSlot&) = delete;
  ~DeferredSlot() { release(); }

  void arm(std::atomic<size_t>& count) {
    release();
    count_ = &count;
    count_->fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    if (count_ != nullptr) {
      count_->fetch_sub(1, std::memory_order_relaxed);
      count_ = nullptr;
    }
  }

 private:
  std::atomic<size_t>* count_ = nullptr;
};

/// Thrown by the admission check; handle_line turns it into the
/// structured overload error line (`"shed":true`, docs/PROTOCOL.md §7).
struct OverloadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- engine verbs ------------------------------------------------------------
//
// insert, extract, verify and trace share one pipeline; the verb table below
// holds everything that differs between them. handle_line parses and checks
// the whole line first -- parameters, spec, admission, then the verb's
// required and numeric parameters -- and only then takes side effects:
// the deferred-slot count, the artifact claims and the model build
// (ModelStore::get_async). A rejected line starts no work.
//
// The request is handed to the engine once its build future is ready,
// retried on every poll: an engine worker must never park on a build
// future -- builds run on the same pool, so a small pool could deadlock on
// itself. WatermarkEngine::submit never blocks, so the hand-off itself
// cannot stall the event loop.
//
// Artifact loads and the model deep copy live in the request's lazy
// factory, which the engine invokes on the executing worker -- the session
// thread never touches the filesystem. The worker also renders the
// response line (insert first writes its artifacts), so a later reader
// gated on this slot's flush sees the files. The blocking variant
// (block=true, used only by the in-order finalizers, where waiting is the
// contract) waits for the build and then submits.
// A failed build lands in fail_error: the response slot turns it into the
// same error line an intake-time failure produces.

struct EngineVerb;

/// One engine request between intake and its response, whatever the verb.
struct EngineRequest {
  const EngineVerb* verb = nullptr;
  std::string id;
  Params params;
  // Numeric parameters, checked at parse time by the verb.
  WatermarkKey key;
  bool seed_from_id = false;
  double min_wer_pct = -1.0;  // negative = the engine's gate (--min-wer)
  // Canonical artifact paths this slot reads / writes, claimed under seq.
  std::vector<std::string> reads, writes;
  uint64_t seq = 0;
  // Set at intake.
  WatermarkEngine* engine = nullptr;
  std::shared_future<ModelHandle> build;
  RequestStamps stamps;
  DeferredSlot deferred;
  // Set once the build resolved: the handle, then submitted or fail_error.
  ModelHandle handle;
  bool submitted = false;
  std::string fail_error;
  // Materialized on the engine worker: insert's private copy or the
  // suspect, plus the artifact the verb reads.
  std::unique_ptr<QuantizedModel> model;
  SchemeRecord record;
  FingerprintSet set;
  std::unique_ptr<OwnershipEvidence> evidence;
  // Written on the engine worker before `settled` resolves; the finalizer
  // reads them after, so the promise/future pair is the synchronization.
  bool ok = false;
  std::string response;
  std::promise<void> settle;
  std::shared_future<void> settled = settle.get_future().share();
};

using EnginePtr = std::shared_ptr<EngineRequest>;

/// One row per engine verb: the verb's whole protocol policy.
struct EngineVerb {
  const char* name;
  /// Parameters the line must carry, in the order they are checked.
  std::vector<std::string> required;
  /// Artifact parameters read, and written when given.
  std::vector<std::string> reads, writes;
  /// Checks and stores the verb's numeric parameters; throws on bad input.
  void (*parse)(EngineRequest& ctx);
  /// Moves the request toward the engine (see the pipeline comment).
  void (*submit)(const EnginePtr& ctx, bool block);
};

void parse_insert(EngineRequest& ctx) {
  ctx.key.seed = static_cast<uint64_t>(ctx.params.get_int("seed", 100));
  ctx.key.signature_seed =
      static_cast<uint64_t>(ctx.params.get_int("signature-seed", 424242));
  ctx.key.bits_per_layer = ctx.params.get_int("bits", 8);
  ctx.key.candidate_ratio = ctx.params.get_int("ratio", 10);
  ctx.seed_from_id = ctx.params.get_int("seed-from-id", 0) != 0;
}

void parse_min_wer(EngineRequest& ctx) {
  ctx.min_wer_pct = ctx.params.get_double("min-wer", -1.0);
}

// Per-verb engine requests. Each factory captures ctx, which also pins it
// until the engine finishes the slot, so an abandoned session can drop its
// finalizer without dangling the worker.

WatermarkEngine::InsertRequest insert_request(const EnginePtr& ctx) {
  WatermarkEngine::InsertRequest request;
  request.id = ctx->id;
  request.scheme = ctx->params.get("scheme", "emmark");
  request.key = ctx->key;
  request.seed_from_id = ctx->seed_from_id;
  request.stats = ctx->handle.stats.get();
  // The deep copy of the cached original happens on the engine worker, so
  // even a warm insert costs the session only a queue push, and
  // back-to-back inserts pipeline instead of serializing on copies.
  request.model_factory = [ctx] {
    ctx->model = std::make_unique<QuantizedModel>(*ctx->handle.original);
    return ctx->model.get();
  };
  return request;
}

/// The suspect: a private copy of the original carrying the client's codes.
const QuantizedModel* load_suspect(EngineRequest& ctx) {
  ctx.model = std::make_unique<QuantizedModel>(*ctx.handle.original);
  ctx.model->load_codes(ctx.params.get("codes", ""));
  return ctx.model.get();
}

WatermarkEngine::ExtractRequest extract_request(const EnginePtr& ctx) {
  WatermarkEngine::ExtractRequest request;
  request.id = ctx->id;
  request.sources_factory = [ctx] {
    WatermarkEngine::ExtractRequest::Sources src;
    src.suspect = load_suspect(*ctx);
    ctx->record = SchemeRecord::load(ctx->params.get("record", ""));
    src.original = ctx->handle.original.get();
    src.record = &ctx->record;
    return src;
  };
  return request;
}

WatermarkEngine::VerifyRequest verify_request(const EnginePtr& ctx) {
  WatermarkEngine::VerifyRequest request;
  request.id = ctx->id;
  request.min_wer_pct = ctx->min_wer_pct;
  request.sources_factory = [ctx] {
    WatermarkEngine::VerifyRequest::Sources src;
    src.suspect = load_suspect(*ctx);
    ctx->evidence = std::make_unique<OwnershipEvidence>(
        OwnershipEvidence::load(ctx->params.get("evidence", "")));
    src.original = ctx->handle.original.get();
    src.stats = ctx->handle.stats.get();
    src.evidence = ctx->evidence.get();
    return src;
  };
  return request;
}

WatermarkEngine::TraceRequest trace_request(const EnginePtr& ctx) {
  WatermarkEngine::TraceRequest request;
  request.id = ctx->id;
  request.min_wer_pct = ctx->min_wer_pct;
  request.sources_factory = [ctx] {
    WatermarkEngine::TraceRequest::Sources src;
    src.suspect = load_suspect(*ctx);
    ctx->set = FingerprintSet::load(ctx->params.get("set", ""));
    src.original = ctx->handle.original.get();
    src.set = &ctx->set;
    return src;
  };
  return request;
}

// Per-verb success fields, rendered on the engine worker after the common
// {"id","cmd","ok":true} prefix. A throw turns into the slot's error line.

std::string respond(EngineRequest& ctx, const WatermarkEngine::InsertResult& slot) {
  // Persist the requested artifacts before the response is released.
  std::string artifacts;
  auto wrote = [&](const char* name, const std::string& path) {
    artifacts += std::string(",\"") + name + "\":\"" + json_escape(path) + "\"";
  };
  if (const std::string path = ctx.params.get("codes", ""); !path.empty()) {
    ctx.model->save_codes(path);
    wrote("codes", path);
  }
  if (const std::string path = ctx.params.get("record", ""); !path.empty()) {
    slot.record.save(path);
    wrote("record", path);
  }
  if (const std::string path = ctx.params.get("evidence", ""); !path.empty()) {
    OwnershipEvidence::create(ctx.params.get("owner", "owner"), slot.record,
                              *ctx.handle.original, *ctx.handle.stats,
                              static_cast<uint64_t>(std::time(nullptr)))
        .save(path);
    wrote("evidence", path);
  }
  const int64_t total_bits =
      WatermarkRegistry::create(slot.record.scheme())->total_bits(slot.record);
  return ",\"scheme\":\"" + json_escape(slot.record.scheme()) +
         "\",\"total_bits\":" + std::to_string(total_bits) +
         ",\"seed\":" + std::to_string(slot.key.seed) + artifacts;
}

std::string respond(EngineRequest& ctx, const WatermarkEngine::ExtractResult& slot) {
  return ",\"scheme\":\"" + json_escape(ctx.record.scheme()) +
         "\",\"wer_pct\":" + json_double(slot.report.wer_pct()) +
         ",\"matched_bits\":" + std::to_string(slot.report.matched_bits) +
         ",\"total_bits\":" + std::to_string(slot.report.total_bits) +
         ",\"strength_log10\":" + json_double(slot.report.strength_log10());
}

std::string respond(EngineRequest&, const WatermarkEngine::VerifyResult& slot) {
  return std::string(",\"verified\":") + (slot.verified ? "true" : "false") +
         ",\"owner\":\"" + json_escape(slot.owner) + "\",\"scheme\":\"" +
         json_escape(slot.scheme) + "\",\"why\":\"" + json_escape(slot.why) +
         "\"";
}

std::string respond(EngineRequest&, const WatermarkEngine::TraceBatchResult& slot) {
  return ",\"device\":\"" + json_escape(slot.trace.device_id) +
         "\",\"matched\":" + (slot.trace.device_id.empty() ? "false" : "true") +
         ",\"wer_pct\":" + json_double(slot.trace.wer_pct) +
         ",\"runner_up_wer_pct\":" + json_double(slot.trace.runner_up_wer_pct) +
         ",\"strength_log10\":" + json_double(slot.trace.strength_log10);
}

template <typename Request, Request (*make_request)(const EnginePtr&)>
void submit_to_engine(const EnginePtr& ctx, bool block) {
  using Result = typename Request::Result;
  if (ctx->submitted || !ctx->fail_error.empty()) return;
  if (!block && !future_ready(ctx->build)) return;
  try {
    ctx->handle = ctx->build.get();
  } catch (const std::exception& e) {
    ctx->fail_error = e.what();
    ctx->deferred.release();  // never reaching the engine
    return;
  }
  // The response travels through ctx->settled, so the engine's own
  // result future is not kept.
  WatermarkEngine::Callback<Request> done = [ctx](const Result& slot) {
    if (!slot.ok) {
      ctx->response = error_line(ctx->id, ctx->verb->name, slot.error);
    } else {
      try {
        ctx->response = "{\"id\":\"" + json_escape(ctx->id) + "\",\"cmd\":\"" +
                        ctx->verb->name + "\",\"ok\":true" +
                        respond(*ctx, slot) + "}";
        ctx->ok = true;
      } catch (const std::exception& e) {
        ctx->response = error_line(ctx->id, ctx->verb->name, e.what());
      }
    }
    ctx->stamps.complete = std::chrono::steady_clock::now();
    ctx->settle.set_value();
  };
  ctx->stamps.submit = std::chrono::steady_clock::now();
  ctx->engine->submit(make_request(ctx), std::move(done));
  ctx->submitted = true;
  ctx->deferred.release();
}

/// The engine verbs, in protocol order. Adding a verb is adding a row (and
/// its request factory and response renderer above).
const EngineVerb kEngineVerbs[] = {
    {"insert", {}, {}, {"codes", "record", "evidence"}, parse_insert,
     submit_to_engine<WatermarkEngine::InsertRequest, insert_request>},
    {"extract", {"codes", "record"}, {"codes", "record"}, {}, nullptr,
     submit_to_engine<WatermarkEngine::ExtractRequest, extract_request>},
    {"verify", {"codes", "evidence"}, {"codes", "evidence"}, {}, parse_min_wer,
     submit_to_engine<WatermarkEngine::VerifyRequest, verify_request>},
    {"trace", {"codes", "set"}, {"codes", "set"}, {}, parse_min_wer,
     submit_to_engine<WatermarkEngine::TraceRequest, trace_request>},
};

const EngineVerb* find_engine_verb(const std::string& cmd) {
  for (const EngineVerb& verb : kEngineVerbs) {
    if (cmd == verb.name) return &verb;
  }
  return nullptr;
}

/// The first required parameter the line lacks, or "".
std::string first_missing(const EngineVerb& verb, const Params& params) {
  for (const std::string& key : verb.required) {
    if (!params.kv.count(key)) return key;
  }
  return "";
}

}  // namespace

bool is_engine_verb(const std::string& cmd) {
  return find_engine_verb(cmd) != nullptr;
}

const std::string& engine_verb_names() {
  static const std::string names = [] {
    std::string out;
    for (const EngineVerb& verb : kEngineVerbs) {
      out += (out.empty() ? "" : " ") + std::string(verb.name);
    }
    return out;
  }();
  return names;
}

RequestCheck check_request(const std::vector<std::string>& tokens,
                           int64_t train_steps_cap) {
  RequestCheck check;
  const Params params = parse_params(tokens);
  const EngineVerb* verb = tokens.empty() ? nullptr : find_engine_verb(tokens[0]);
  if (verb == nullptr) return check;
  check.spec = resolve_spec(params, train_steps_cap);
  check.missing = first_missing(*verb, params);
  return check;
}

// --- request-lifecycle metrics -----------------------------------------------

/// Pre-registered series behind the `metrics` verb. Registration (a
/// name+label lookup under the registry mutex) happens once, at router
/// construction; the request path only touches the resolved pointers --
/// relaxed atomic increments, per the obs record-path cost contract.
struct RouterMetrics {
  static constexpr size_t kVerbs = std::size(kEngineVerbs);
  static constexpr size_t kPhases = 4;
  static constexpr const char* kPhaseNames[kPhases] = {"queue", "run", "flush",
                                                       "total"};

  obs::Histogram* latency[kVerbs][kPhases];
  obs::Counter* requests[kVerbs];
  obs::Counter* failures[kVerbs];
  std::vector<obs::Counter*> shed;  // per shard
  obs::Counter* scrapes = nullptr;

  RouterMetrics(obs::MetricsRegistry& registry, size_t shards) {
    for (size_t v = 0; v < kVerbs; ++v) {
      for (size_t p = 0; p < kPhases; ++p) {
        latency[v][p] = &registry.histogram(
            "emmark_request_latency_seconds",
            "Request lifecycle phase latency per verb (queue: parse to "
            "engine submit; run: submit to completion; flush: completion to "
            "response emit; total: parse to emit).",
            {{"verb", kEngineVerbs[v].name}, {"phase", kPhaseNames[p]}});
      }
      requests[v] =
          &registry.counter("emmark_requests_total", "Responses emitted per verb.",
                            {{"verb", kEngineVerbs[v].name}});
      failures[v] = &registry.counter("emmark_request_failures_total",
                                      "Responses with ok=false per verb.",
                                      {{"verb", kEngineVerbs[v].name}});
    }
    shed.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      shed.push_back(&registry.counter(
          "emmark_requests_shed_total",
          "Requests fast-failed by admission control (--max-queued).",
          {{"shard", std::to_string(s)}}));
    }
    scrapes = &registry.counter("emmark_metrics_scrapes_total",
                                "metrics-verb scrapes served.");
  }
};

namespace {

/// Records a flushed request's lifecycle phases and outcome.
void record_request(RouterMetrics& metrics, size_t verb,
                    const RequestStamps& stamps, bool ok) {
  const auto flush = std::chrono::steady_clock::now();
  constexpr std::chrono::steady_clock::time_point kUnset{};
  metrics.latency[verb][3]->record_duration(flush - stamps.parse);
  if (stamps.submit != kUnset) {
    metrics.latency[verb][0]->record_duration(stamps.submit - stamps.parse);
    if (stamps.complete != kUnset) {
      metrics.latency[verb][1]->record_duration(stamps.complete -
                                                stamps.submit);
      metrics.latency[verb][2]->record_duration(flush - stamps.complete);
    }
  }
  metrics.requests[verb]->inc();
  if (!ok) metrics.failures[verb]->inc();
}

}  // namespace

// --- RequestRouter -----------------------------------------------------------

RequestRouter::Shard::Shard(const RouterConfig& config)
    : store([&] {
        ModelStoreConfig sc;
        sc.cache_dir = config.cache_dir;
        sc.capacity = config.store_capacity;
        sc.max_resident_bytes = config.max_resident_bytes;
        sc.idle_ttl_sec = config.store_ttl_sec;
        return sc;
      }()),
      engine([&] {
        EngineConfig ec;
        ec.base_seed = config.base_seed;
        ec.trace_min_wer_pct = config.min_wer_pct;
        return ec;
      }()) {}

RequestRouter::RequestRouter(const RouterConfig& config)
    : config_(config), ring_(config.shards == 0 ? 1 : config.shards) {
  config_.shards = ring_.shards();
  shards_.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(config_));
  }
  metrics_ = std::make_unique<RouterMetrics>(registry_, config_.shards);
}

RequestRouter::~RequestRouter() {
  // Engines shut down before their sibling stores go away (per-shard
  // member order already guarantees it; spelled out for the reader).
  for (auto& shard : shards_) shard->engine.shutdown();
}

void RequestRouter::drain() {
  for (auto& shard : shards_) shard->engine.drain();
}

std::vector<RequestRouter::ShardSnapshot> RequestRouter::shard_stats() const {
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot snap;
    snap.store = shard->store.stats();
    snap.engine = shard->engine.counters();
    snap.engine_pending = shard->engine.pending();
    out.push_back(snap);
  }
  return out;
}

void RequestRouter::sweep_stores() {
  for (auto& shard : shards_) shard->store.sweep_idle();
}

std::string RequestRouter::metrics_text() {
  metrics_->scrapes->inc();
  obs::Exposition out;
  registry_.expose(out);

  // Shard-derived families: gauges sampled and histograms merged at scrape
  // time, so the engine/store record paths never touch the registry. Every
  // family name is distinct from the registered ones, keeping families
  // contiguous as the exposition format requires.
  auto shard_label = [](size_t i) {
    return obs::Labels{{"shard", std::to_string(i)}};
  };

  out.family("emmark_engine_queue_depth", "gauge",
             "Requests queued or executing on the shard engine.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.sample("emmark_engine_queue_depth", shard_label(i),
               static_cast<uint64_t>(shards_[i]->engine.pending()));
  }
  out.family("emmark_engine_deferred_slots", "gauge",
             "Requests parsed but not yet handed to the shard engine.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    out.sample("emmark_engine_deferred_slots", shard_label(i),
               static_cast<uint64_t>(
                   shards_[i]->deferred.load(std::memory_order_relaxed)));
  }
  out.family("emmark_engine_requests_total", "counter",
             "Lifetime shard-engine async requests by final state.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    const WatermarkEngine::Counters counters = shards_[i]->engine.counters();
    const std::pair<const char*, uint64_t> states[] = {
        {"submitted", counters.submitted},
        {"completed", counters.completed},
        {"failed", counters.failed},
        {"cancelled", counters.cancelled}};
    for (const auto& [state, value] : states) {
      obs::Labels labels = shard_label(i);
      labels.emplace_back("state", state);
      out.sample("emmark_engine_requests_total", labels, value);
    }
  }

  obs::Histogram::Snapshot queue_wait;
  obs::Histogram::Snapshot exec;
  obs::Histogram::Snapshot build;
  obs::Histogram::Snapshot hit;
  obs::Histogram::Snapshot miss;
  for (const auto& shard : shards_) {
    queue_wait.merge(shard->engine.queue_wait_histogram().snapshot());
    exec.merge(shard->engine.exec_histogram().snapshot());
    build.merge(shard->store.build_histogram().snapshot());
    hit.merge(shard->store.hit_histogram().snapshot());
    miss.merge(shard->store.miss_histogram().snapshot());
  }
  out.family("emmark_engine_queue_wait_seconds", "histogram",
             "Engine enqueue-to-dequeue wait, merged across shards.");
  out.histogram("emmark_engine_queue_wait_seconds", {}, queue_wait);
  out.family("emmark_engine_exec_seconds", "histogram",
             "Engine request execution time, merged across shards.");
  out.histogram("emmark_engine_exec_seconds", {}, exec);

  out.family("emmark_store_events_total", "counter",
             "Lifetime shard-store cache events.");
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ModelStore::Stats stats = shards_[i]->store.stats();
    const std::pair<const char*, uint64_t> events[] = {
        {"hit", stats.hits},
        {"miss", stats.misses},
        {"build", stats.builds},
        {"eviction", stats.evictions}};
    for (const auto& [event, value] : events) {
      obs::Labels labels = shard_label(i);
      labels.emplace_back("event", event);
      out.sample("emmark_store_events_total", labels, value);
    }
  }
  std::vector<ModelStore::Stats> store_stats;
  store_stats.reserve(shards_.size());
  for (const auto& shard : shards_) store_stats.push_back(shard->store.stats());
  out.family("emmark_store_resident_entries", "gauge",
             "Models resident in the shard store.");
  for (size_t i = 0; i < store_stats.size(); ++i) {
    out.sample("emmark_store_resident_entries", shard_label(i),
               static_cast<uint64_t>(store_stats[i].resident));
  }
  out.family("emmark_store_resident_bytes", "gauge",
             "Code-buffer bytes resident in the shard store.");
  for (size_t i = 0; i < store_stats.size(); ++i) {
    out.sample("emmark_store_resident_bytes", shard_label(i),
               store_stats[i].resident_bytes);
  }
  out.family("emmark_store_build_seconds", "histogram",
             "Cold zoo build duration, merged across shards.");
  out.histogram("emmark_store_build_seconds", {}, build);
  out.family("emmark_store_lookup_hit_seconds", "histogram",
             "Warm store lookup duration, merged across shards.");
  out.histogram("emmark_store_lookup_hit_seconds", {}, hit);
  out.family("emmark_store_miss_to_ready_seconds", "histogram",
             "Miss-to-ready duration (lookup start until the build landed), "
             "merged across shards.");
  out.histogram("emmark_store_miss_to_ready_seconds", {}, miss);

  std::string text = out.text();
  text += "# EOF";
  return text;
}

std::unique_ptr<RequestRouter::Session> RequestRouter::open_session() {
  return std::unique_ptr<Session>(new Session(*this));
}

// --- Session -----------------------------------------------------------------

RequestRouter::Session::~Session() {
  // A session abandoned mid-flight (connection reset) discards its
  // unflushed results: the finalizers are dropped, not run -- running
  // them would block this thread (the server's event loop) on engine
  // futures for a peer that is gone. Engine-side work stays memory-safe
  // without them: every submitted request keeps its context alive via a
  // shared_ptr capture (the model / sources factories and insert's
  // artifact-save callback), so a still-executing request never dangles.
  pending_.clear();
}

void RequestRouter::Session::advance_pending() {
  for (PendingOutput& slot : pending_) {
    if (slot.advance) slot.advance();
  }
}

void RequestRouter::Session::flush_pending(bool block, const LineSink& emit) {
  while (!pending_.empty()) {
    if (!block && !pending_.front().ready()) break;
    PendingOutput slot = std::move(pending_.front());
    pending_.pop_front();
    emit(slot.finalize());
  }
}

void RequestRouter::Session::poll(const LineSink& emit) {
  advance_pending();
  flush_pending(/*block=*/false, emit);
}

void RequestRouter::Session::finish(const LineSink& emit) {
  advance_pending();
  flush_pending(/*block=*/true, emit);
  if (quit_) {
    emit("{\"cmd\":\"quit\",\"ok\":true,\"served\":" + std::to_string(submitted_) +
         "}");
  }
}

bool RequestRouter::Session::handle_line(const std::string& line,
                                         const LineSink& emit) {
  const RouterConfig& config = router_.config_;

  // Skip blanks and comment lines.
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty() || tokens[0][0] == '#') {
    poll(emit);
    return !quit_;
  }
  const std::string cmd = tokens[0];
  if (config.echo) std::fprintf(stderr, "[serve] %s\n", line.c_str());

  const EngineVerb* verb = find_engine_verb(cmd);
  std::string id;
  try {
    Params params = parse_params(tokens);
    id = params.get("id", "req-" + std::to_string(++auto_id_));

    if (verb != nullptr) {
      // Check the whole line before any side effect (docs/PROTOCOL.md
      // §3): a rejected line starts no build, takes no claims and is not
      // counted submitted. Admission control (--max-queued) sheds when the
      // home shard's engine backlog plus its deferred (parsed-but-
      // unsubmitted) slots are at the bound. Per shard: a burst into one
      // shard sheds without touching warm traffic homed on the others.
      const ModelSpec spec = resolve_spec(params, config.train_steps_cap);
      const size_t index = router_.shard_for(spec);
      Shard& home = router_.shard(index);
      if (config.max_queued > 0) {
        const size_t load = home.deferred.load(std::memory_order_relaxed) +
                            home.engine.pending();
        if (load >= config.max_queued) {
          router_.metrics_->shed[index]->inc();
          throw OverloadError("overloaded: shard " + std::to_string(index) +
                              " has " + std::to_string(load) +
                              " queued requests (bound " +
                              std::to_string(config.max_queued) +
                              "); retry later");
        }
      }
      if (const std::string missing = first_missing(*verb, params);
          !missing.empty()) {
        throw std::invalid_argument("missing parameter: " + missing);
      }
      auto ctx = std::make_shared<EngineRequest>();
      ctx->verb = verb;
      ctx->id = id;
      ctx->params = std::move(params);
      if (verb->parse != nullptr) verb->parse(*ctx);

      // The line is accepted: arm the slot, claim its artifact paths and
      // start the build. Cold builds run on the pool behind the store's
      // shared future; the engine submission happens from this session's
      // advance path once the future resolves, so intake never stalls on
      // zoo training and no engine worker parks on a build.
      ctx->engine = &home.engine;
      ctx->stamps.parse = std::chrono::steady_clock::now();
      ctx->deferred.arm(home.deferred);
      ctx->build = home.store.get_async(spec);
      ctx->seq = ++slot_seq_;
      for (const std::string& name : verb->reads) {
        ctx->reads.push_back(artifact_key(ctx->params.get(name, "")));
        pending_reads_.emplace(ctx->reads.back(), ctx->seq);
      }
      for (const std::string& name : verb->writes) {
        const std::string path = ctx->params.get(name, "");
        if (path.empty()) continue;
        ctx->writes.push_back(artifact_key(path));
        pending_writes_.emplace(ctx->writes.back(), ctx->seq);
      }
      ++submitted_;

      // A reader defers behind earlier writers of its paths; a writer also
      // behind earlier readers (they must load the old bytes) and writers
      // (last-writer-wins in request order). A read/write pair on one path
      // therefore chains in request order instead of deadlocking.
      auto advance = [this, ctx] {
        if (!claimed_before(pending_writes_, ctx->reads, ctx->seq) &&
            !claimed_before(pending_writes_, ctx->writes, ctx->seq) &&
            !claimed_before(pending_reads_, ctx->writes, ctx->seq)) {
          ctx->verb->submit(ctx, /*block=*/false);
        }
      };
      advance();
      pending_.push_back(PendingOutput{
          std::move(advance),
          [ctx] {
            return !ctx->fail_error.empty() ||
                   (ctx->submitted && future_ready(ctx->settled));
          },
          [this, ctx]() -> std::string {
            // Blocking is the contract here: finalizers run in request
            // order, so every earlier claim on these paths has already
            // been released (its reads/writes happened before it settled)
            // and the gate can be bypassed.
            ctx->verb->submit(ctx, /*block=*/true);
            const bool built = ctx->fail_error.empty();
            if (built) ctx->settled.wait();
            const bool ok = built && ctx->ok;
            ++(ok ? completed_ : failed_);
            record_request(*router_.metrics_,
                           static_cast<size_t>(ctx->verb - kEngineVerbs),
                           ctx->stamps, ok);
            // The paths stop being owed once the response flushed.
            release_claims(pending_reads_, ctx->reads, ctx->seq);
            release_claims(pending_writes_, ctx->writes, ctx->seq);
            return built ? ctx->response
                         : error_line(ctx->id, ctx->verb->name, ctx->fail_error);
          }});
    } else if (cmd == "quit") {
      quit_ = true;
    } else if (cmd == "stats") {
      // Deferred like every other verb (the line flushes in request
      // order), but the snapshot is computed at flush time and is *live*:
      // it settles only this session's earlier slots -- by virtue of
      // flushing after them -- and never drains the router. Another
      // session's in-flight work shows up as engine pending counts
      // instead of stalling this response behind it.
      pending_.push_back(PendingOutput{
          /*advance=*/{}, [] { return true; },
          [this, id]() -> std::string {
            const std::vector<ShardSnapshot> shards = router_.shard_stats();
            ModelStore::Stats total;
            size_t engine_pending = 0;
            for (const ShardSnapshot& snap : shards) {
              total.hits += snap.store.hits;
              total.misses += snap.store.misses;
              total.builds += snap.store.builds;
              total.evictions += snap.store.evictions;
              total.resident += snap.store.resident;
              total.resident_bytes += snap.store.resident_bytes;
              engine_pending += snap.engine_pending;
            }
            std::ostringstream json;
            json << "{\"id\":\"" << json_escape(id)
                 << "\",\"cmd\":\"stats\",\"ok\":true"
                 << ",\"store\":{\"hits\":" << total.hits
                 << ",\"misses\":" << total.misses
                 << ",\"builds\":" << total.builds
                 << ",\"evictions\":" << total.evictions
                 << ",\"resident\":" << total.resident
                 << ",\"resident_bytes\":" << total.resident_bytes
                 << ",\"capacity\":"
                 << router_.config_.store_capacity * shards.size() << "}"
                 << ",\"engine\":{\"submitted\":" << submitted_
                 << ",\"completed\":" << completed_ << ",\"failed\":" << failed_
                 << ",\"pending\":" << engine_pending << "}"
                 << ",\"shards\":[";
            for (size_t i = 0; i < shards.size(); ++i) {
              const ShardSnapshot& snap = shards[i];
              json << (i ? "," : "") << "{\"shard\":" << i
                   << ",\"store\":{\"hits\":" << snap.store.hits
                   << ",\"misses\":" << snap.store.misses
                   << ",\"builds\":" << snap.store.builds
                   << ",\"evictions\":" << snap.store.evictions
                   << ",\"resident\":" << snap.store.resident
                   << ",\"resident_bytes\":" << snap.store.resident_bytes << "}"
                   << ",\"engine\":{\"submitted\":" << snap.engine.submitted
                   << ",\"completed\":" << snap.engine.completed
                   << ",\"failed\":" << snap.engine.failed
                   << ",\"cancelled\":" << snap.engine.cancelled
                   << ",\"pending\":" << snap.engine_pending << "}}";
            }
            json << "]}";
            return json.str();
          }});
    } else if (cmd == "metrics") {
      // Prometheus text exposition (docs/PROTOCOL.md §5): the one verb
      // whose response is multi-line, terminated by a `# EOF` line. The
      // slot flushes in request order like any other, and the snapshot is
      // live like `stats` -- computed at flush, never draining anyone.
      // Scrapes do not count into submitted_ (the stats JSON stays
      // byte-compatible whether or not anyone scrapes).
      pending_.push_back(PendingOutput{
          /*advance=*/{}, [] { return true; },
          [this]() -> std::string { return router_.metrics_text(); }});
    } else {
      throw std::invalid_argument("unknown command: " + cmd + " (known: " +
                                  engine_verb_names() +
                                  " stats metrics quit)");
    }
  } catch (const OverloadError& e) {
    // Structured fast-fail: a normal error line plus "shed":true so
    // clients can tell overload from request failure, and the per-verb
    // failure counters move with it (the shed counter already did).
    ++failed_;
    const size_t index = static_cast<size_t>(verb - kEngineVerbs);
    router_.metrics_->requests[index]->inc();
    router_.metrics_->failures[index]->inc();
    const std::string json = error_line(id, cmd, e.what(), "shed");
    pending_.push_back(PendingOutput{{}, [] { return true; },
                                     [json]() -> std::string { return json; }});
  } catch (const std::exception& e) {
    ++failed_;
    const std::string json =
        error_line(id.empty() ? "req-" + std::to_string(++auto_id_) : id, cmd,
                   e.what());
    pending_.push_back(PendingOutput{{}, [] { return true; },
                                     [json]() -> std::string { return json; }});
  }
  advance_pending();
  flush_pending(/*block=*/false, emit);
  return !quit_;
}

}  // namespace emmark
