// The front door: the one event loop behind every listening socket.
//
// `emmark_cli serve`, every process-shard worker, and the process-shard
// supervisor (src/net/supervisor.h) all serve clients through FrontDoor, a
// single-threaded poll loop. It binds the listener (TCP, or AF_UNIX for
// the workers), accepts connections, and drives each one through a
// ProtocolSession (src/cli/router.h). The loop owns everything about a
// connection except what its requests mean:
//
//   * the read and write buffers, the 1 MiB line cap, and the
//     per-connection in-flight bound: reads pause at the bound, so a
//     client that pipelines faster than requests complete is throttled by
//     TCP backpressure instead of growing an unbounded queue;
//   * transport sniffing: the first bytes decide between the
//     newline-delimited protocol and minimal HTTP/1.1 (net/http.h). An
//     HTTP request becomes one protocol line, checked with the router's
//     check_request first, so parse errors map to 400 and unknown paths to
//     404 without reaching the session (docs/PROTOCOL.md §8);
//   * responses in request order, `quit`, and the graceful-shutdown drain.
//
// Two session kinds plug in. RequestRouter::Session runs requests in
// process: SocketServer below serves `serve` and the shard workers with it.
// The supervisor's fleet session proxies requests to worker processes. A
// FrontDoorBackend hands out the sessions and adds per-cycle work and
// extra fds (the supervisor's worker links) to the loop.
//
// Heavy work never runs on the loop thread: in-process sessions run every
// verb as a lazy pipeline on the shard engines, and each poll cycle pumps
// every session without ever parking (docs/ARCHITECTURE.md, "Threading").
//
// Lifecycle: the constructor binds and listens (port() is valid
// immediately; port 0 picks an ephemeral port). run() blocks until
// request_stop() -- callable from any thread or a signal handler -- then
// shuts down gracefully: stop accepting, serve what each connection has
// already sent until every response has flushed (for at most 10 s),
// close. `quit` on a connection ends only that connection.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cli/router.h"

namespace emmark {

/// The front-door config, shared by `serve`, the workers and the
/// supervisor.
struct ServerConfig {
  /// Port to bind (0 = ephemeral; read the result from port()).
  uint16_t port = 0;
  /// Bind address. Loopback by default: the daemon protocol is
  /// unauthenticated, so exposing it wider is an explicit operator choice.
  std::string bind_addr = "127.0.0.1";
  /// Non-empty: listen on this Unix-domain socket path instead of TCP
  /// (port/bind_addr are ignored, port() reports 0). Used by the
  /// process-shard workers, which only ever talk to their supervisor on
  /// the same host. A stale file at the path is unlinked before bind; the
  /// path is unlinked again on destruction.
  std::string unix_path;
  /// Unflushed requests per connection before the loop stops reading
  /// from that socket (TCP backpressure instead of an unbounded queue).
  size_t max_inflight_per_conn = 64;
  /// Optional tap invoked with every request line before it is handed to
  /// the session. Test hook: the shard worker uses it for
  /// EMMARK_TEST_CRASH_ON fault injection (die deterministically when a
  /// chosen request arrives). Must not block.
  std::function<void(const std::string&)> line_tap;
};

/// What a FrontDoor serves: the session behind each connection, plus
/// optional per-cycle work and extra fds polled alongside the clients.
class FrontDoorBackend {
 public:
  virtual ~FrontDoorBackend() = default;

  virtual std::unique_ptr<ProtocolSession> open_session() = 0;

  /// Accepts are held while this is false (the listener stays bound).
  virtual bool accepting() const { return true; }

  /// Start of every cycle: per-cycle work, then append extra fds to poll.
  /// `draining` is true during the graceful-shutdown drain.
  virtual void before_poll(bool /*draining*/, std::vector<pollfd>& /*fds*/) {}

  /// The extra fds with their revents, after the client event pass and
  /// before the pump pass.
  virtual void after_events(const pollfd* /*fds*/, size_t /*count*/) {}

  /// After the pump pass: every session polled, responses queued.
  virtual void after_pump() {}
};

class FrontDoor {
 public:
  /// Series the loop keeps for its owner; any may be null.
  struct Metrics {
    obs::Gauge* connections = nullptr;
    obs::Counter* accepted = nullptr;
    /// Busy time per poll cycle (everything but the poll wait).
    obs::Histogram* poll_cycle = nullptr;
  };

  /// Binds and listens immediately; throws std::runtime_error on failure
  /// (port in use, bad address). `backend` must outlive the loop.
  FrontDoor(ServerConfig config, FrontDoorBackend& backend, Metrics metrics);
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// The bound port (resolves port 0 to the actual ephemeral port).
  uint16_t port() const { return port_; }

  /// Serves until request_stop(), drains, closes every connection;
  /// returns 0.
  int run();

  /// Async-signal-safe stop request.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct Connection;

  void cycle(bool draining);
  void accept_connections();

  ServerConfig config_;
  FrontDoorBackend& backend_;
  Metrics metrics_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<pollfd> fds_, extra_fds_;
};

/// The in-process front door: `emmark_cli serve` and every shard worker.
/// Each connection gets its own RequestRouter::Session, so responses are
/// byte-identical to the stdio daemon's. Registers the emmark_server_*
/// series in the router's registry.
class SocketServer : private FrontDoorBackend {
 public:
  /// `router` must outlive the server.
  SocketServer(RequestRouter& router, ServerConfig config = {});

  uint16_t port() const { return door_.port(); }

  /// Serves until request_stop(), then drains the router; returns 0.
  int run();

  void request_stop() { door_.request_stop(); }

 private:
  std::unique_ptr<ProtocolSession> open_session() override;
  void after_pump() override;

  RequestRouter& router_;
  FrontDoor door_;
};

}  // namespace emmark
