#include "net/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "obs/merge.h"

namespace emmark {

namespace {

using Clock = std::chrono::steady_clock;

/// A worker that stays up this long resets its respawn backoff streak.
constexpr int kHealthyAfterMs = 2000;
/// A spawned worker must answer the handshake within this window or it is
/// killed and counted as a failure.
constexpr int kHandshakeTimeoutMs = 30000;

/// First u64 after `"key":` in a shallow JSON line; 0 if absent. The
/// stats/quit merges only need the router's own fixed-shape output, so a
/// real JSON parser would be dead weight here.
uint64_t find_u64(const std::string& s, const std::string& quoted_key) {
  const size_t at = s.find("\"" + quoted_key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(s.c_str() + at + quoted_key.size() + 3, nullptr, 10);
}

std::string find_string(const std::string& s, const std::string& quoted_key) {
  const std::string needle = "\"" + quoted_key + "\":\"";
  const size_t at = s.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  std::string out;
  for (size_t i = start; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out += s[i + 1];
      ++i;
      continue;
    }
    if (s[i] == '"') break;
    out += s[i];
  }
  return out;
}

const char* const kHandshakeId = "__sup_handshake__";

}  // namespace

// ---------------------------------------------------------------------------

struct Supervisor::Impl : FrontDoorBackend {
  class FleetSession;

  // One queued response for one client request, filled either locally
  // (fast-fail retryable errors) or by worker completions. Responses flush
  // strictly in request order per session.
  struct Slot {
    bool ready = false;
    std::string text;  // one response line / merged exposition, no '\n'
    std::string id, cmd;
    // Fan-out bookkeeping (stats/metrics/quit).
    size_t awaiting = 0;
    std::vector<std::string> parts;  // indexed by source (worker, or +1)
    uint64_t served = 0;
  };

  // One Unix-socket connection to a worker: either the per-worker
  // control link (session == nullptr; carries the handshake) or a lazily
  // opened per-(session, worker) proxy link. Responses on a link are
  // matched to expectations strictly FIFO -- the worker session
  // guarantees request-order responses, so no request ids are needed on
  // the wire.
  struct PendingRead {
    bool until_eof = false;  // multi-line response ending with "# EOF"
    std::function<void(std::vector<std::string>&&, bool ok)> done;
  };

  struct Link {
    int fd = -1;
    size_t worker = 0;
    FleetSession* session = nullptr;  // nullptr: control link
    std::string in, out;
    std::deque<PendingRead> reads;
    std::vector<std::string> multi;  // accumulating until_eof lines
    bool closing = false;            // close once reads drain (post-quit)
    bool dead = false;
  };

  struct WorkerProc {
    size_t index = 0;
    uint64_t generation = 0;
    std::string socket_path;
    pid_t pid = -1;
    enum class State { kDown, kConnecting, kHandshaking, kReady, kBackoff };
    State state = State::kDown;
    int failures = 0;       // consecutive spawn/serve failures
    bool ever_resolved = false;  // first spawn reached ready-or-failed
    Clock::time_point spawned_at{};
    Clock::time_point next_spawn{};
    Clock::time_point handshake_deadline{};
    // Published for the cross-thread accessors.
    std::atomic<pid_t> pub_pid{-1};
    std::atomic<bool> pub_ready{false};
    std::atomic<uint64_t> pub_respawns{0};
    std::atomic<int> pub_backoff_ms{0};
  };

  /// One client connection's conversation with the fleet: ring routing
  /// over worker links, with `stats`/`metrics`/`quit` fanned out and
  /// merged.
  class FleetSession : public ProtocolSession {
   public:
    explicit FleetSession(Impl& sup) : sup_(sup) {}

    ~FleetSession() override {
      // Responses for a vanished client: discard.
      for (auto& link : sup_.links) {
        if (link->session == this && !link->dead) {
          link->dead = true;
          link->reads.clear();
        }
      }
    }

    bool handle_line(const std::string& line, const LineSink& emit) override {
      route_line(line);
      poll(emit);
      return !quitting_;
    }

    void poll(const LineSink& emit) override {
      while (!slots_.empty() && slots_.front()->ready) {
        emit(slots_.front()->text);
        slots_.pop_front();
      }
    }

    /// Worker responses arrive through the loop, so finish cannot wait for
    /// them; the front door calls it once nothing is in flight.
    void finish(const LineSink& emit) override { poll(emit); }

    size_t inflight() const override { return slots_.size(); }
    bool quit_seen() const override { return quitting_; }

   private:
    void route_line(const std::string& line) {
      const std::vector<std::string> tokens = tokenize(line);
      if (tokens.empty() || tokens[0][0] == '#') return;  // no response

      auto slot = std::make_shared<Slot>();
      slot->cmd = tokens[0];
      slot->id = request_id(tokens);
      slots_.push_back(slot);

      if (slot->cmd == "quit") {
        quitting_ = true;
        start_quit(slot);
      } else if (slot->cmd == "metrics") {
        sup_.start_metrics(*this, slot);
      } else if (slot->cmd == "stats") {
        sup_.start_stats(*this, slot, line);
      } else {
        // Engine verbs, unknown commands, malformed lines: one owning
        // worker (shard 0 for anything unroutable) produces the canonical
        // response.
        sup_.forward_to_worker(*this, slot, sup_.route_shard(tokens), line);
      }
    }

    void start_quit(const std::shared_ptr<Slot>& slot) {
      for (auto& link : sup_.links) {
        if (link->dead || link->closing || link->session != this) continue;
        link->out += "quit\n";
        link->closing = true;  // close once the quit response arrives
        ++slot->awaiting;
        link->reads.push_back(PendingRead{
            false, [slot](std::vector<std::string>&& lines, bool ok) {
              if (ok && !lines.empty()) {
                slot->served += find_u64(lines[0], "served");
              }
              if (--slot->awaiting == 0) {
                slot->text = "{\"cmd\":\"quit\",\"ok\":true,\"served\":" +
                             std::to_string(slot->served) + "}";
                slot->ready = true;
              }
            }});
      }
      if (slot->awaiting == 0) {
        slot->text = "{\"cmd\":\"quit\",\"ok\":true,\"served\":0}";
        slot->ready = true;
      }
    }

    Impl& sup_;
    std::deque<std::shared_ptr<Slot>> slots_;
    bool quitting_ = false;  // saw quit; later input is ignored
  };

  SupervisorConfig cfg;
  ShardRouter ring;
  obs::MetricsRegistry registry;
  std::vector<obs::Gauge*> up_gauges;
  std::vector<obs::Counter*> respawn_counters;
  std::vector<obs::Counter*> retryable_counters;

  std::string socket_dir;
  bool own_socket_dir = false;

  std::vector<std::unique_ptr<WorkerProc>> workers;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<Link*> polled_links;  // this cycle's extra fds, in order
  // Last member: its connections' sessions reference the links above.
  std::unique_ptr<FrontDoor> door;

  explicit Impl(SupervisorConfig config)
      : cfg(std::move(config)),
        ring(cfg.router.shards == 0 ? 1 : cfg.router.shards) {
    if (cfg.router.shards == 0) cfg.router.shards = 1;

    for (size_t i = 0; i < cfg.router.shards; ++i) {
      const std::string shard = std::to_string(i);
      up_gauges.push_back(&registry.gauge(
          "emmark_supervisor_worker_up",
          "1 while the shard's worker process is serving.", {{"shard", shard}}));
      respawn_counters.push_back(&registry.counter(
          "emmark_supervisor_respawns_total",
          "Worker respawns (spawns beyond each shard's first).",
          {{"shard", shard}}));
      retryable_counters.push_back(&registry.counter(
          "emmark_supervisor_retryable_errors_total",
          "Requests failed with a retryable error because the shard's "
          "worker was down.",
          {{"shard", shard}}));
    }
    FrontDoor::Metrics door_metrics;
    door_metrics.accepted =
        &registry.counter("emmark_supervisor_connections_accepted_total",
                          "Front-door connections accepted since start.");
    door_metrics.connections = &registry.gauge(
        "emmark_supervisor_connections", "Front-door connections open.");

    if (cfg.socket_dir.empty()) {
      socket_dir = (std::filesystem::temp_directory_path() /
                    ("emmark-sup-" + std::to_string(::getpid())))
                       .string();
      own_socket_dir = true;
    } else {
      socket_dir = cfg.socket_dir;
    }
    std::filesystem::create_directories(socket_dir);

    door = std::make_unique<FrontDoor>(cfg, *this, door_metrics);

    workers.reserve(cfg.router.shards);
    for (size_t i = 0; i < cfg.router.shards; ++i) {
      workers.push_back(std::make_unique<WorkerProc>());
      workers.back()->index = i;
      spawn(*workers.back());
    }
  }

  ~Impl() override {
    door.reset();  // closes the clients while the links still exist
    for (auto& l : links) {
      if (l->fd >= 0) ::close(l->fd);
    }
    for (auto& w : workers) {
      if (w->pid > 0) {
        ::kill(w->pid, SIGKILL);
        ::waitpid(w->pid, nullptr, 0);
      }
      if (!w->socket_path.empty()) ::unlink(w->socket_path.c_str());
    }
    if (own_socket_dir) {
      std::error_code ec;
      std::filesystem::remove_all(socket_dir, ec);
    }
  }

  // ---- the front door's per-cycle hooks ----------------------------------

  std::unique_ptr<ProtocolSession> open_session() override {
    return std::make_unique<FleetSession>(*this);
  }

  bool accepting() const override {
    // Hold the front door until every worker's first spawn has resolved
    // (ready, or failed into backoff): a client connecting during the
    // startup race would see spurious retryable errors.
    for (const auto& w : workers) {
      if (!w->ever_resolved) return false;
    }
    return true;
  }

  void before_poll(bool draining, std::vector<pollfd>& fds) override {
    // No respawns while draining: a worker dying now just fails its
    // remaining requests retryable.
    reap_workers();
    advance_worker_states(/*allow_spawn=*/!draining);
    polled_links.clear();
    for (auto& l : links) {
      if (l->dead) continue;
      short events = POLLIN;
      if (!l->out.empty()) events |= POLLOUT;
      fds.push_back({l->fd, events, 0});
      polled_links.push_back(l.get());
    }
  }

  void after_events(const pollfd* fds, size_t count) override {
    for (size_t i = 0; i < count; ++i) {
      Link& l = *polled_links[i];
      const short revents = fds[i].revents;
      if (l.dead) continue;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) && !read_link(l)) {
        fail_link(l);
      } else if ((revents & POLLOUT) && !flush_link(l)) {
        fail_link(l);
      }
    }
    // Opportunistic link writes (freshly enqueued requests should not
    // wait a poll interval), then drop finished links.
    flush_links();
    links.erase(std::remove_if(links.begin(), links.end(),
                               [](const std::unique_ptr<Link>& l) {
                                 if (l->dead ||
                                     (l->closing && l->reads.empty())) {
                                   if (l->fd >= 0) ::close(l->fd);
                                   return true;
                                 }
                                 return false;
                               }),
                links.end());
  }

  void after_pump() override {
    // Requests enqueued by the pump pass go on the wire now instead of
    // waiting out a poll interval.
    flush_links();
  }

  // ---- worker lifecycle ----------------------------------------------------

  std::string worker_binary() const {
    return cfg.worker_cmd.empty() ? "/proc/self/exe" : cfg.worker_cmd;
  }

  void spawn(WorkerProc& w) {
    ++w.generation;
    if (!w.socket_path.empty()) ::unlink(w.socket_path.c_str());
    w.socket_path = socket_dir + "/w" + std::to_string(w.index) + ".g" +
                    std::to_string(w.generation) + ".sock";

    std::vector<std::string> argv = {
        worker_binary(), "shard-worker",
        "--socket", w.socket_path,
        "--shard", std::to_string(w.index),
        "--max-inflight", std::to_string(cfg.max_inflight_per_conn),
        "--cache", cfg.router.cache_dir,
        "--capacity", std::to_string(cfg.router.store_capacity),
        "--max-bytes", std::to_string(cfg.router.max_resident_bytes),
        "--train-cap", std::to_string(cfg.router.train_steps_cap),
        "--base-seed", std::to_string(cfg.router.base_seed),
        "--min-wer", std::to_string(cfg.router.min_wer_pct),
        "--max-queued", std::to_string(cfg.router.max_queued),
        "--store-ttl", std::to_string(cfg.router.store_ttl_sec),
    };
    if (cfg.router.echo) argv.push_back("--echo");

    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "[supervisor] fork for shard %zu failed: %s\n",
                   w.index, strerror(errno));
      worker_failed(w);
      return;
    }
    if (pid == 0) {
      // Child. Die with the supervisor (covers a SIGKILLed parent that
      // never runs its teardown), then become the worker. Environment is
      // inherited on purpose: EMMARK_TEST_CRASH_ON set by the test
      // harness must reach the worker.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      std::vector<char*> cargv;
      cargv.reserve(argv.size() + 1);
      for (auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
      cargv.push_back(nullptr);
      ::execv(cargv[0], cargv.data());
      std::fprintf(stderr, "[shard-worker %zu] execv %s: %s\n", w.index,
                   cargv[0], strerror(errno));
      ::_exit(127);
    }

    if (w.generation > 1) {
      w.pub_respawns.fetch_add(1, std::memory_order_relaxed);
      respawn_counters[w.index]->inc();
    }
    w.pid = pid;
    w.pub_pid.store(pid, std::memory_order_relaxed);
    w.spawned_at = Clock::now();
    w.handshake_deadline =
        w.spawned_at + std::chrono::milliseconds(kHandshakeTimeoutMs);
    w.state = WorkerProc::State::kConnecting;
  }

  Link* open_link(size_t worker_index, FleetSession* session) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string& path = workers[worker_index]->socket_path;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return nullptr;
    }
    ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    // Blocking connect: for a listening Unix socket this completes as
    // soon as the kernel queues it in the backlog -- it does not wait for
    // the worker to accept(), so it cannot stall the loop.
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return nullptr;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    auto link = std::make_unique<Link>();
    link->fd = fd;
    link->worker = worker_index;
    link->session = session;
    links.push_back(std::move(link));
    return links.back().get();
  }

  void try_handshake(WorkerProc& w) {
    Link* link = open_link(w.index, nullptr);
    if (link == nullptr) return;  // socket not up yet; retry next cycle
    link->out += std::string("stats id=") + kHandshakeId + "\n";
    const uint64_t gen = w.generation;
    link->reads.push_back(PendingRead{
        false, [this, &w, gen](std::vector<std::string>&& lines, bool ok) {
          if (w.generation != gen) return;  // stale generation
          if (ok && !lines.empty() &&
              lines[0].find("\"ok\":true") != std::string::npos) {
            w.state = WorkerProc::State::kReady;
            w.ever_resolved = true;
            w.pub_ready.store(true, std::memory_order_relaxed);
            w.pub_backoff_ms.store(0, std::memory_order_relaxed);
            up_gauges[w.index]->set(1);
          }
          // On !ok the death path has already scheduled the respawn.
        }});
    w.state = WorkerProc::State::kHandshaking;
  }

  /// Consecutive-failure backoff, capped. Shift guarded against overflow.
  int backoff_ms_for(int failures) const {
    int64_t ms = cfg.respawn_backoff_ms;
    for (int i = 1; i < failures && ms < cfg.respawn_backoff_max_ms; ++i) {
      ms *= 2;
    }
    return static_cast<int>(
        std::min<int64_t>(ms, cfg.respawn_backoff_max_ms));
  }

  void schedule_respawn(WorkerProc& w, bool was_healthy) {
    w.failures = was_healthy ? 1 : w.failures + 1;
    w.ever_resolved = true;
    const int delay = backoff_ms_for(w.failures);
    w.next_spawn = Clock::now() + std::chrono::milliseconds(delay);
    w.state = WorkerProc::State::kBackoff;
    w.pub_backoff_ms.store(delay, std::memory_order_relaxed);
  }

  /// The worker's process is gone (reaped) or being discarded: fail all
  /// in-flight requests on it with retryable errors and arm the backoff.
  void worker_down(WorkerProc& w) {
    const bool was_healthy =
        w.state == WorkerProc::State::kReady &&
        Clock::now() - w.spawned_at >=
            std::chrono::milliseconds(kHealthyAfterMs);
    w.pid = -1;
    w.pub_pid.store(-1, std::memory_order_relaxed);
    w.pub_ready.store(false, std::memory_order_relaxed);
    up_gauges[w.index]->set(0);
    for (auto& link : links) {
      if (link->worker == w.index) fail_link(*link);
    }
    if (!w.socket_path.empty()) ::unlink(w.socket_path.c_str());
    schedule_respawn(w, was_healthy);
  }

  /// Spawn-side failure (fork error, handshake timeout): kill whatever
  /// half-started and treat as a down worker.
  void worker_failed(WorkerProc& w) {
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);  // prompt: SIGKILL cannot be blocked
    }
    worker_down(w);
  }

  void reap_workers() {
    for (auto& wp : workers) {
      WorkerProc& w = *wp;
      if (w.pid <= 0) continue;
      int status = 0;
      if (::waitpid(w.pid, &status, WNOHANG) == w.pid) {
        std::fprintf(stderr,
                     "[supervisor] shard %zu worker pid %d exited (%s %d); "
                     "respawning\n",
                     w.index, static_cast<int>(w.pid),
                     WIFSIGNALED(status) ? "signal" : "status",
                     WIFSIGNALED(status) ? WTERMSIG(status)
                                         : WEXITSTATUS(status));
        worker_down(w);
      }
    }
  }

  void advance_worker_states(bool allow_spawn) {
    const auto now = Clock::now();
    for (auto& wp : workers) {
      WorkerProc& w = *wp;
      switch (w.state) {
        case WorkerProc::State::kDown:
          if (allow_spawn) spawn(w);
          break;
        case WorkerProc::State::kBackoff:
          if (allow_spawn && now >= w.next_spawn) spawn(w);
          break;
        case WorkerProc::State::kConnecting:
          if (now > w.handshake_deadline) {
            std::fprintf(stderr,
                         "[supervisor] shard %zu worker never came up; "
                         "killing\n",
                         w.index);
            worker_failed(w);
          } else {
            try_handshake(w);
          }
          break;
        case WorkerProc::State::kHandshaking:
          if (now > w.handshake_deadline) {
            std::fprintf(stderr,
                         "[supervisor] shard %zu handshake timed out; "
                         "killing\n",
                         w.index);
            worker_failed(w);
          }
          break;
        case WorkerProc::State::kReady:
          break;
      }
    }
  }

  // ---- routing -------------------------------------------------------------

  std::string retryable_error(const std::string& id, const std::string& cmd,
                              size_t shard) {
    retryable_counters[shard]->inc();
    return error_line(id, cmd,
                      "shard " + std::to_string(shard) +
                          " worker unavailable (respawning); retry later",
                      "retryable");
  }

  /// Home shard for a request line, by the session's own spec resolution
  /// (check_request). Anything unparseable routes to shard 0, whose
  /// worker then produces the canonical error bytes.
  size_t route_shard(const std::vector<std::string>& tokens) {
    try {
      const RequestCheck check =
          check_request(tokens, cfg.router.train_steps_cap);
      return check.spec ? ring.shard_for(check.spec->key()) : 0;
    } catch (const std::exception&) {
      return 0;
    }
  }

  Link* link_for(FleetSession& session, size_t worker_index) {
    for (auto& link : links) {
      if (!link->dead && !link->closing && link->session == &session &&
          link->worker == worker_index) {
        return link.get();
      }
    }
    return open_link(worker_index, &session);
  }

  void forward_to_worker(FleetSession& session, const std::shared_ptr<Slot>& slot,
                         size_t shard, const std::string& line) {
    WorkerProc& w = *workers[shard];
    Link* link = (w.state == WorkerProc::State::kReady)
                     ? link_for(session, shard)
                     : nullptr;
    if (link == nullptr) {
      slot->text = retryable_error(slot->id, slot->cmd, shard);
      slot->ready = true;
      return;
    }
    link->out += line;
    link->out += '\n';
    link->reads.push_back(PendingRead{
        false, [this, slot, shard](std::vector<std::string>&& lines, bool ok) {
          slot->text = ok && !lines.empty()
                           ? lines[0]
                           : retryable_error(slot->id, slot->cmd, shard);
          slot->ready = true;
        }});
  }

  void start_metrics(FleetSession& session, const std::shared_ptr<Slot>& slot) {
    // parts[0] = the supervisor's own series; parts[1+i] = worker i.
    slot->parts.assign(workers.size() + 1, "");
    obs::Exposition own;
    registry.expose(own);
    slot->parts[0] = own.text();
    for (size_t i = 0; i < workers.size(); ++i) {
      if (workers[i]->state != WorkerProc::State::kReady) continue;
      Link* link = link_for(session, i);
      if (link == nullptr) continue;
      link->out += "metrics\n";
      ++slot->awaiting;
      link->reads.push_back(PendingRead{
          true, [slot, i](std::vector<std::string>&& lines, bool ok) {
            if (ok) {
              std::string part;
              for (const auto& l : lines) {
                part += l;
                part += '\n';
              }
              slot->parts[1 + i] = std::move(part);
            }
            if (--slot->awaiting == 0) finalize_metrics(*slot);
          }});
    }
    if (slot->awaiting == 0) finalize_metrics(*slot);
  }

  static void finalize_metrics(Slot& slot) {
    slot.text = obs::merge_expositions(slot.parts) + "# EOF";
    slot.ready = true;
  }

  void start_stats(FleetSession& session, const std::shared_ptr<Slot>& slot,
                   const std::string& line) {
    slot->parts.assign(workers.size(), "");
    for (size_t i = 0; i < workers.size(); ++i) {
      if (workers[i]->state != WorkerProc::State::kReady) continue;
      Link* link = link_for(session, i);
      if (link == nullptr) continue;
      link->out += line;
      link->out += '\n';
      ++slot->awaiting;
      link->reads.push_back(PendingRead{
          false, [slot, i](std::vector<std::string>&& lines, bool ok) {
            if (ok && !lines.empty()) slot->parts[i] = std::move(lines[0]);
            if (--slot->awaiting == 0) finalize_stats(*slot);
          }});
    }
    if (slot->awaiting == 0) finalize_stats(*slot);
  }

  static void finalize_stats(Slot& slot) {
    // Reassemble the single-process `stats` shape (router.cpp) from the
    // per-worker single-shard snapshots: top-level store/engine sums, and
    // the shards array concatenated with each worker's lone shard entry
    // renumbered to its ring index.
    uint64_t hits = 0, misses = 0, builds = 0, evictions = 0, resident = 0,
             resident_bytes = 0, capacity = 0;
    uint64_t submitted = 0, completed = 0, failed = 0, pending = 0;
    std::string id;
    std::string shards_json;
    size_t present = 0;
    for (size_t i = 0; i < slot.parts.size(); ++i) {
      const std::string& part = slot.parts[i];
      if (part.empty()) continue;
      ++present;
      if (id.empty()) id = find_string(part, "id");
      capacity += find_u64(part, "capacity");
      submitted += find_u64(part, "submitted");
      completed += find_u64(part, "completed");
      failed += find_u64(part, "failed");
      const size_t arr = part.find("\"shards\":[");
      if (arr == std::string::npos) continue;
      // part ends ...,"shards":[{...}]}
      std::string inner = part.substr(arr + 10);
      if (inner.size() >= 2 && inner.compare(inner.size() - 2, 2, "]}") == 0) {
        inner.resize(inner.size() - 2);
      }
      hits += find_u64(inner, "hits");
      misses += find_u64(inner, "misses");
      builds += find_u64(inner, "builds");
      evictions += find_u64(inner, "evictions");
      resident += find_u64(inner, "resident");
      resident_bytes += find_u64(inner, "resident_bytes");
      pending += find_u64(inner, "pending");
      const std::string tag = "\"shard\":0";
      const size_t at = inner.find(tag);
      if (at != std::string::npos) {
        inner = inner.substr(0, at) + "\"shard\":" + std::to_string(i) +
                inner.substr(at + tag.size());
      }
      if (!shards_json.empty()) shards_json += ",";
      shards_json += inner;
    }
    slot.ready = true;
    if (present == 0) {
      slot.text = error_line(slot.id, "stats",
                             "no shard workers available; retry later",
                             "retryable");
      return;
    }
    slot.text =
        "{\"id\":\"" + json_escape(id) + "\",\"cmd\":\"stats\",\"ok\":true," +
        "\"store\":{\"hits\":" + std::to_string(hits) +
        ",\"misses\":" + std::to_string(misses) +
        ",\"builds\":" + std::to_string(builds) +
        ",\"evictions\":" + std::to_string(evictions) +
        ",\"resident\":" + std::to_string(resident) +
        ",\"resident_bytes\":" + std::to_string(resident_bytes) +
        ",\"capacity\":" + std::to_string(capacity) + "}," +
        "\"engine\":{\"submitted\":" + std::to_string(submitted) +
        ",\"completed\":" + std::to_string(completed) +
        ",\"failed\":" + std::to_string(failed) +
        ",\"pending\":" + std::to_string(pending) + "}," +
        "\"shards\":[" + shards_json + "]}";
  }

  // ---- link IO -------------------------------------------------------------

  void link_consume(Link& link) {
    while (!link.reads.empty()) {
      const size_t nl = link.in.find('\n');
      if (nl == std::string::npos) return;
      std::string line = link.in.substr(0, nl);
      link.in.erase(0, nl + 1);
      PendingRead& pr = link.reads.front();
      if (pr.until_eof) {
        link.multi.push_back(std::move(line));
        if (link.multi.back() != "# EOF") continue;
        auto done = std::move(pr.done);
        auto lines = std::move(link.multi);
        link.multi.clear();
        link.reads.pop_front();
        done(std::move(lines), true);
      } else {
        auto done = std::move(pr.done);
        link.reads.pop_front();
        done({std::move(line)}, true);
      }
    }
  }

  bool read_link(Link& link) {
    char chunk[8192];
    for (;;) {
      const ssize_t n = ::recv(link.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        link.in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        // A worker never half-closes a live conversation: EOF here means
        // the process died (reaped next cycle) or finished its quit.
        link_consume(link);
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    link_consume(link);
    return true;
  }

  bool flush_link(Link& link) {
    while (!link.out.empty()) {
      const ssize_t n =
          ::send(link.fd, link.out.data(), link.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        link.out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  void flush_links() {
    for (auto& l : links) {
      if (!l->dead && !l->out.empty() && !flush_link(*l)) fail_link(*l);
    }
  }

  void fail_link(Link& link) {
    if (link.dead) return;
    link.dead = true;
    auto reads = std::move(link.reads);
    link.reads.clear();
    for (auto& pr : reads) pr.done({}, false);
  }

  // ---- shutdown ------------------------------------------------------------

  int run() {
    door->run();

    // The clients are drained and closed: terminate the workers.
    for (auto& w : workers) {
      if (w->pid > 0) ::kill(w->pid, SIGTERM);
    }
    const auto kill_deadline = Clock::now() + std::chrono::seconds(5);
    for (auto& w : workers) {
      while (w->pid > 0) {
        if (::waitpid(w->pid, nullptr, WNOHANG) == w->pid) {
          w->pid = -1;
          w->pub_pid.store(-1, std::memory_order_relaxed);
          break;
        }
        if (Clock::now() >= kill_deadline) {
          ::kill(w->pid, SIGKILL);
          ::waitpid(w->pid, nullptr, 0);
          w->pid = -1;
          w->pub_pid.store(-1, std::memory_order_relaxed);
          break;
        }
        struct timespec ts = {0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
      }
      w->pub_ready.store(false, std::memory_order_relaxed);
      if (!w->socket_path.empty()) ::unlink(w->socket_path.c_str());
    }
    for (auto& l : links) {
      if (l->fd >= 0) ::close(l->fd);
    }
    links.clear();
    if (own_socket_dir) {
      std::error_code ec;
      std::filesystem::remove_all(socket_dir, ec);
    }
    return 0;
  }
};

// ---------------------------------------------------------------------------

Supervisor::Supervisor(SupervisorConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Supervisor::~Supervisor() = default;

uint16_t Supervisor::port() const { return impl_->door->port(); }

int Supervisor::run() { return impl_->run(); }

void Supervisor::request_stop() { impl_->door->request_stop(); }

size_t Supervisor::workers() const { return impl_->workers.size(); }

pid_t Supervisor::worker_pid(size_t shard) const {
  return impl_->workers[shard]->pub_pid.load(std::memory_order_relaxed);
}

bool Supervisor::worker_ready(size_t shard) const {
  return impl_->workers[shard]->pub_ready.load(std::memory_order_relaxed);
}

uint64_t Supervisor::worker_respawns(size_t shard) const {
  return impl_->workers[shard]->pub_respawns.load(std::memory_order_relaxed);
}

int Supervisor::worker_backoff_ms(size_t shard) const {
  return impl_->workers[shard]->pub_backoff_ms.load(std::memory_order_relaxed);
}

}  // namespace emmark
