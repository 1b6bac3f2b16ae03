#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>

#include "net/http.h"

namespace emmark {

namespace {

/// Hard cap on a single request line: past this without a newline the
/// peer is not speaking the protocol and the connection is dropped.
constexpr size_t kMaxLineBytes = 1 << 20;
/// Poll timeout: the latency floor for flushing async completions to idle
/// connections.
constexpr int kPollIntervalMs = 20;
/// Graceful-shutdown budget for the drain of live connections.
constexpr int kShutdownGraceMs = 10000;

constexpr const char* kJsonType = "application/json";
constexpr const char* kMetricsType = "text/plain; version=0.0.4; charset=utf-8";

[[noreturn]] void bind_failed(int fd, const std::string& where) {
  const std::string why = strerror(errno);
  ::close(fd);
  throw std::runtime_error("bind/listen on " + where + ": " + why);
}

}  // namespace

// --- one client connection ---------------------------------------------------

struct FrontDoor::Connection {
  Connection(int fd_in, std::unique_ptr<ProtocolSession> session_in,
             const ServerConfig& config)
      : fd(fd_in),
        session(std::move(session_in)),
        max_inflight(std::max<size_t>(config.max_inflight_per_conn, 1)),
        line_tap(config.line_tap) {
    sink = [this](const std::string& text) { on_response(text); };
  }
  ~Connection() { ::close(fd); }

  /// One HTTP response slot, in request order. Local replies (400/404)
  /// are ready at once; the others wait for the session's response.
  struct HttpReply {
    bool ready = false;
    int status = 200;
    bool metrics = false;  // GET /metrics: exposition, always 200
    bool close = false;    // Connection: close after this response
    std::string body;
  };

  enum class Mode { kUnknown, kLine, kHttp };

  int fd;
  std::unique_ptr<ProtocolSession> session;
  size_t max_inflight;
  const std::function<void(const std::string&)>& line_tap;
  ProtocolSession::LineSink sink;
  std::string in, out;
  Mode mode = Mode::kUnknown;
  bool eof = false;           // the peer closed its write side
  bool http_closing = false;  // Connection: close, or an unframeable stream
  bool finished = false;      // session->finish ran
  bool dead = false;          // reset / hard error: drop without flushing
  HttpParser http;
  std::deque<HttpReply> replies;

  /// No further requests are taken; buffered input is discarded.
  bool closing() const { return http_closing || session->quit_seen(); }
  /// Requests taken whose responses have not been queued for writing.
  size_t pending() const {
    return mode == Mode::kHttp ? replies.size() : session->inflight();
  }
  bool wants_read() const {
    return !eof && !closing() && pending() < max_inflight;
  }
  bool wants_write() const { return !out.empty(); }
  bool done() const { return finished && out.empty(); }

  /// Graceful-shutdown drain: still owes a response to a request the
  /// peer already sent.
  bool busy() const {
    if (dead) return false;
    if (!out.empty() || pending() > 0) return true;
    if (finished || closing()) return false;
    return in.find(mode == Mode::kHttp ? "\r\n\r\n" : "\n") != std::string::npos;
  }

  /// Drains readable bytes (pausing at the in-flight bound) and feeds
  /// them. Returns false when the connection must be dropped.
  bool read() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in.append(chunk, static_cast<size_t>(n));
        // A newline-free stream must not grow the buffer without bound:
        // the in-flight throttle only bites on complete lines. (HTTP has
        // its own header and body limits.)
        if (mode != Mode::kHttp && in.size() > kMaxLineBytes &&
            in.find('\n') == std::string::npos) {
          return false;
        }
        // Stop slurping once saturated; the unread remainder stays in the
        // kernel buffer and throttles the peer.
        if (pending() >= max_inflight) break;
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    feed();
    return true;
  }

  /// Flushes queued output. Returns false when the connection is dead.
  bool write() {
    while (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Flushes responses that became ready since the last event, then feeds
  /// the buffered input the flush unblocked.
  void pump() {
    session->poll(sink);
    feed();
  }

 private:
  void feed() {
    if (mode == Mode::kUnknown) {
      switch (sniff_transport(in)) {
        case TransportSniff::kUndecided:
          if (!eof) return;
          mode = Mode::kLine;  // EOF before a decision: a short line client
          break;
        case TransportSniff::kHttp:
          mode = Mode::kHttp;
          break;
        case TransportSniff::kLine:
          mode = Mode::kLine;
          break;
      }
    }
    if (mode == Mode::kHttp) {
      feed_http();
    } else {
      feed_lines();
    }
    if (closing()) in.clear();
    // Input is over and nothing is pending: end the session. Waiting for
    // pending() to reach zero through pump cycles keeps the blocking
    // finish off the loop -- one connection's quit must not starve the
    // others while its last requests drain.
    if (!finished && (closing() || (eof && in.empty())) && pending() == 0) {
      session->finish(sink);
      finished = true;
    }
  }

  void hand(const std::string& line) {
    if (line_tap) line_tap(line);
    session->handle_line(line, sink);
  }

  void feed_lines() {
    while (!in.empty() && !closing() && session->inflight() < max_inflight) {
      const size_t nl = in.find('\n');
      std::string line;
      if (nl == std::string::npos) {
        // At EOF a trailing unterminated line is still fed (matching
        // std::getline in the stdio daemon).
        if (!eof) break;
        line = std::move(in);
        in.clear();
      } else {
        line = in.substr(0, nl);
        in.erase(0, nl + 1);
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      hand(line);
    }
  }

  void feed_http() {
    while (!closing() && replies.size() < max_inflight) {
      HttpRequest req;
      std::string error;
      const HttpParser::Status status = http.parse(in, req, &error);
      if (status == HttpParser::Status::kNeedMore) {
        if (eof) in.clear();  // a request cut off by EOF never completes
        break;
      }
      if (status == HttpParser::Status::kError) {
        local_reply(400, error_line("", "", error), /*close=*/true);
        http_closing = true;  // stop reading a stream we cannot frame
        break;
      }
      dispatch_http(req);
      if (req.close) http_closing = true;
    }
  }

  /// docs/PROTOCOL.md §8.3: one HTTP request -> one protocol line, or a
  /// local 400/404 that never reaches the session.
  void dispatch_http(const HttpRequest& req) {
    if (req.method == "GET" && req.target == "/metrics") {
      replies.push_back({false, 200, /*metrics=*/true, req.close, {}});
      hand("metrics");
      return;
    }
    if (req.method != "POST" || req.target.rfind("/v1/", 0) != 0) {
      local_reply(404,
                  error_line("", "", "not found: " + req.method + " " + req.target),
                  req.close);
      return;
    }
    const std::string verb = req.target.substr(4);
    if (!is_engine_verb(verb) && verb != "stats") {
      local_reply(404,
                  error_line("", verb, "unknown verb: " + verb + " (known: " +
                                           engine_verb_names() + " stats)"),
                  req.close);
      return;
    }
    if (req.body.find_first_of("\r\n") != std::string::npos) {
      local_reply(400,
                  error_line("", verb, "body must be a single line of "
                                       "key=value parameters"),
                  req.close);
      return;
    }
    const std::string line = req.body.empty() ? verb : verb + " " + req.body;
    // Parse errors map to 400 here instead of reaching the session: HTTP
    // callers get status-code semantics, line callers the session's
    // canonical error line.
    const std::vector<std::string> tokens = tokenize(line);
    try {
      const RequestCheck check = check_request(tokens, /*train_steps_cap=*/0);
      if (!check.missing.empty()) {
        local_reply(400,
                    error_line(request_id(tokens), verb,
                               "missing parameter: " + check.missing),
                    req.close);
        return;
      }
    } catch (const std::exception& e) {
      local_reply(400, error_line(request_id(tokens), verb, e.what()), req.close);
      return;
    }
    replies.push_back({false, 200, false, req.close, {}});
    hand(line);
  }

  void local_reply(int status, std::string body, bool close) {
    replies.push_back({true, status, false, close, std::move(body)});
    flush_replies();
  }

  /// The session's next response, in request order.
  void on_response(const std::string& text) {
    if (mode != Mode::kHttp) {
      out += text;
      out += '\n';
      return;
    }
    for (HttpReply& reply : replies) {
      if (reply.ready) continue;
      reply.ready = true;
      reply.body = text;
      if (!reply.metrics && (text.find("\"shed\":true") != std::string::npos ||
                             text.find("\"retryable\":true") != std::string::npos)) {
        reply.status = 503;
      }
      break;
    }
    flush_replies();
  }

  void flush_replies() {
    while (!replies.empty() && replies.front().ready) {
      const HttpReply& reply = replies.front();
      out += http_response(reply.status, reply.metrics ? kMetricsType : kJsonType,
                           reply.body + "\n", /*keep_alive=*/!reply.close);
      replies.pop_front();
    }
  }
};

// --- the loop ----------------------------------------------------------------

FrontDoor::FrontDoor(ServerConfig config, FrontDoorBackend& backend,
                     Metrics metrics)
    : config_(std::move(config)), backend_(backend), metrics_(metrics) {
  // Close-on-exec: the supervisor forks workers, which must not inherit
  // the front door or client sockets.
  constexpr int kSockFlags = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;
  if (!config_.unix_path.empty()) {
    sockaddr_un addr{};
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + config_.unix_path);
    }
    listen_fd_ = ::socket(AF_UNIX, kSockFlags, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
    addr.sun_family = AF_UNIX;
    ::strncpy(addr.sun_path, config_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a crashed run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(listen_fd_, SOMAXCONN) < 0) {
      bind_failed(listen_fd_, config_.unix_path);
    }
    return;
  }

  listen_fd_ = ::socket(AF_INET, kSockFlags, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("bad bind address: " + config_.bind_addr);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, SOMAXCONN) < 0) {
    bind_failed(listen_fd_,
                config_.bind_addr + ":" + std::to_string(config_.port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

FrontDoor::~FrontDoor() {
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void FrontDoor::accept_connections() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (no more pending) or transient accept error
    }
    if (config_.unix_path.empty()) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    conns_.push_back(
        std::make_unique<Connection>(fd, backend_.open_session(), config_));
    if (metrics_.accepted != nullptr) metrics_.accepted->inc();
  }
  if (metrics_.connections != nullptr) {
    metrics_.connections->set(static_cast<int64_t>(conns_.size()));
  }
}

void FrontDoor::cycle(bool draining) {
  extra_fds_.clear();
  backend_.before_poll(draining, extra_fds_);

  fds_.clear();
  const bool listening = !draining && backend_.accepting();
  if (listening) fds_.push_back({listen_fd_, POLLIN, 0});
  const size_t first_conn = fds_.size();
  for (const auto& conn : conns_) {
    short events = 0;
    if (conn->wants_read()) events |= POLLIN;
    if (conn->wants_write()) events |= POLLOUT;
    fds_.push_back({conn->fd, events, 0});
  }
  // Connections polled this cycle; accept() below appends new ones that
  // have no fds entry yet (they get their first poll next cycle).
  const size_t polled = conns_.size();
  const size_t first_extra = fds_.size();
  fds_.insert(fds_.end(), extra_fds_.begin(), extra_fds_.end());

  if (::poll(fds_.data(), fds_.size(), kPollIntervalMs) < 0) {
    for (pollfd& p : fds_) p.revents = 0;  // EINTR: just run the passes
  }
  const auto busy_start = std::chrono::steady_clock::now();

  if (listening && (fds_[0].revents & POLLIN)) accept_connections();

  // Event pass over the polled connections, the backend's fds, then a
  // pump pass for everyone: async completions must reach idle
  // connections too, and a flush may unblock buffered input.
  for (size_t i = 0; i < polled; ++i) {
    Connection& conn = *conns_[i];
    const short revents = fds_[first_conn + i].revents;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) && !conn.read()) {
      conn.dead = true;
    } else if ((revents & POLLOUT) && !conn.write()) {
      conn.dead = true;
    }
  }
  backend_.after_events(fds_.data() + first_extra, fds_.size() - first_extra);
  for (auto& conn : conns_) {
    if (conn->dead) continue;
    conn->pump();
    if (conn->wants_write() && !conn->write()) conn->dead = true;
  }
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<Connection>& c) {
                                return c->dead || c->done();
                              }),
               conns_.end());
  if (metrics_.connections != nullptr) {
    metrics_.connections->set(static_cast<int64_t>(conns_.size()));
  }
  backend_.after_pump();
  if (metrics_.poll_cycle != nullptr) {
    metrics_.poll_cycle->record_duration(std::chrono::steady_clock::now() -
                                         busy_start);
  }
}

int FrontDoor::run() {
  while (!stop_.load(std::memory_order_relaxed)) cycle(/*draining=*/false);

  // Graceful shutdown: no new connections, then serve what every live
  // connection already sent -- in-flight requests complete and their
  // responses flush -- within the grace budget, and close.
  ::close(listen_fd_);
  listen_fd_ = -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kShutdownGraceMs);
  while (std::chrono::steady_clock::now() < deadline) {
    bool busy = false;
    for (auto& conn : conns_) {
      // Pick up bytes a paused read left in the kernel buffer: requests
      // the client pipelined past the in-flight bound are still owed.
      if (!conn->dead && !conn->eof && !conn->closing() && !conn->read()) {
        conn->dead = true;  // peer gone: nothing left to flush to
      }
      busy = busy || conn->busy();
    }
    if (!busy) break;
    cycle(/*draining=*/true);
  }
  conns_.clear();
  if (metrics_.connections != nullptr) metrics_.connections->set(0);
  return 0;
}

// --- in-process backend --------------------------------------------------------

namespace {

FrontDoor::Metrics server_metrics(obs::MetricsRegistry& registry) {
  FrontDoor::Metrics m;
  m.poll_cycle = &registry.histogram(
      "emmark_server_poll_cycle_seconds",
      "Busy time per server poll cycle (event + pump passes, excluding the "
      "poll wait).");
  m.connections = &registry.gauge("emmark_server_connections",
                                  "Connections currently open.");
  m.accepted = &registry.counter("emmark_server_connections_accepted_total",
                                 "Connections accepted since start.");
  return m;
}

}  // namespace

SocketServer::SocketServer(RequestRouter& router, ServerConfig config)
    : router_(router),
      door_(std::move(config), *this, server_metrics(router.metrics_registry())) {}

int SocketServer::run() {
  const int rc = door_.run();
  router_.drain();
  return rc;
}

std::unique_ptr<ProtocolSession> SocketServer::open_session() {
  return router_.open_session();
}

void SocketServer::after_pump() { router_.sweep_stores(); }

}  // namespace emmark
