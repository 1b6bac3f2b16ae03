// Supervisor: the process-shard fleet behind the front door.
//
// `emmark_cli serve --process-shards` runs one of these in the parent
// process. It spawns one shard-worker process per shard (src/cli/worker.h
// -- the unchanged router/engine/store stack behind a Unix-domain
// socket), owns the consistent-hash ring, and serves clients through the
// shared front-door loop (src/net/server.h) with a fleet session: each
// request line is proxied to the owning worker over a per-(connection,
// worker) link, and `stats`, `metrics` and `quit` fan out to every live
// worker and merge. HTTP on the same port comes from the front door, as
// for in-process `serve` (docs/PROTOCOL.md §8); `GET /metrics` returns the
// fleet-merged Prometheus exposition.
//
// Fault model: a worker dying (crash, OOM kill, SIGKILL) is detected via
// waitpid(WNOHANG) each poll cycle plus EOF on its links. Every request
// in flight on that worker fails with a structured retryable error
// (`"retryable":true`) while sibling shards keep serving untouched; the
// supervisor respawns the worker with bounded exponential backoff
// (doubling per consecutive failure up to a cap, reset after the worker
// stays healthy). Fan-out verbs (`stats`, `metrics`, `quit`) degrade to
// the live subset of workers.
//
// Threading: everything runs on the front door's loop thread -- run()
// blocks until request_stop() (callable from any thread or a signal
// handler). The worker links are extra fds on that loop, and reaping,
// respawning and link flushes are its per-cycle work. The test accessors
// read atomics published by the loop, so harnesses can watch
// pids/respawns/backoff from outside.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>

#include "cli/router.h"
#include "net/server.h"

namespace emmark {

/// The client-facing front door (its in-flight bound is also forwarded to
/// every worker), plus the fleet.
struct SupervisorConfig : ServerConfig {
  /// Binary to exec for workers. Empty = /proc/self/exe (the normal
  /// case: workers are `emmark_cli shard-worker`). Tests point it at the
  /// built emmark_cli explicitly.
  std::string worker_cmd;
  /// Directory for the per-worker Unix sockets. Empty = a fresh
  /// directory under the system temp dir, removed on shutdown.
  std::string socket_dir;

  /// Respawn backoff: first respawn after `respawn_backoff_ms`, doubling
  /// per consecutive failure up to `respawn_backoff_max_ms`. A worker
  /// that stays up longer than 2 s resets the streak; one that does not
  /// answer the handshake within 30 s is killed and counts as a failure.
  int respawn_backoff_ms = 200;
  int respawn_backoff_max_ms = 5000;

  /// Backend config forwarded to every worker (each runs it with
  /// shards=1). `router.shards` is the worker count and sizes the ring,
  /// exactly as in-process sharding does.
  RouterConfig router;
};

class Supervisor {
 public:
  /// Binds the front door and spawns the first generation of workers;
  /// throws std::runtime_error on bind failure. Handshakes complete
  /// inside run(); accepts are held until every worker's first spawn
  /// resolved (ready, or failed into backoff).
  explicit Supervisor(SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  uint16_t port() const;

  /// Serves until request_stop(), drains clients, then terminates the
  /// workers; returns 0 on a clean shutdown.
  int run();

  /// Async-signal-safe stop request.
  void request_stop();

  // -- observability / test accessors (safe from any thread) --
  size_t workers() const;
  pid_t worker_pid(size_t shard) const;      // -1 while down
  bool worker_ready(size_t shard) const;     // handshake done, serving
  uint64_t worker_respawns(size_t shard) const;  // spawns beyond the first
  int worker_backoff_ms(size_t shard) const;     // current delay, 0 if up

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace emmark
