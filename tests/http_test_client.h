// Raw blocking HTTP/1.1 client for the front-door tests: just enough to
// drive the HTTP side of a `serve` port byte for byte (Content-Length
// framing, keep-alive reuse, close detection). Shared by test_http and
// test_protocol_conformance.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace emmark::testfx {

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased keys
  std::string body;
};

class HttpConn {
 public:
  HttpConn(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
  }
  ~HttpConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  void send_raw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<size_t>(n);
    }
  }

  /// Reads one framed response. Returns false on a clean EOF before any
  /// response byte (the server closed the connection).
  bool read_response(HttpResponse& r) {
    r = HttpResponse{};
    size_t head_end;
    while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!read_more()) return false;
    }
    const std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end + 4);

    size_t pos = head.find("\r\n");
    const std::string status_line = head.substr(0, pos);
    // "HTTP/1.1 200 OK"
    const size_t sp = status_line.find(' ');
    r.status = std::stoi(status_line.substr(sp + 1));
    std::string rest = (pos == std::string::npos) ? "" : head.substr(pos + 2);
    while (!rest.empty()) {
      size_t nl = rest.find("\r\n");
      std::string line = rest.substr(0, nl);
      rest = (nl == std::string::npos) ? "" : rest.substr(nl + 2);
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string key = line.substr(0, colon);
      for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
      size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      r.headers[key] = line.substr(v);
    }

    const size_t want = r.headers.count("content-length")
                            ? std::stoul(r.headers["content-length"])
                            : 0;
    while (buf_.size() < want) {
      if (!read_more()) throw std::runtime_error("EOF mid-body");
    }
    r.body = buf_.substr(0, want);
    buf_.erase(0, want);
    return true;
  }

  /// True if the server closes the connection without further bytes.
  bool at_eof() {
    HttpResponse ignored;
    return !read_response(ignored);
  }

 private:
  bool read_more() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) throw std::runtime_error("recv failed");
    if (n == 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

inline std::string get_request(const std::string& target, bool close_conn = false) {
  return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
         (close_conn ? "Connection: close\r\n" : "") + "\r\n";
}

inline std::string post_request(const std::string& target, const std::string& body,
                                bool close_conn = false) {
  return "POST " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
         "Content-Length: " + std::to_string(body.size()) + "\r\n" +
         (close_conn ? "Connection: close\r\n" : "") + "\r\n" + body;
}

}  // namespace emmark::testfx
