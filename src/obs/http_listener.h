#ifndef FRAPPE_OBS_HTTP_LISTENER_H_
#define FRAPPE_OBS_HTTP_LISTENER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace frappe::obs {

// Shared HTTP/1.0 plumbing for the embedded servers (the obs stats server
// and the query front door in src/server/): a POSIX listen socket with a
// background accept thread, bounded request parsing with socket timeouts,
// and uniform response serialization.
//
// Robustness contract (the reason this exists as one shared piece):
//   - every accepted socket gets SO_RCVTIMEO/SO_SNDTIMEO plus an overall
//     wall-clock deadline on reading one request, so a stalled or
//     byte-trickling client cannot wedge the accept thread;
//   - request head and body sizes are hard-capped (413 on breach);
//   - malformed requests are answered 400 and never reach the handler;
//   - the fault-injection sites `server.accept`, `server.read` and
//     `server.write` let tests drop connections, reads and responses at
//     will (the disarmed fast path is one relaxed atomic load).

// One parsed request. `target` is the path with the query string split off
// into `params` ("id=3&ms=100"). Of the request headers only `traceparent`
// is captured (the W3C trace-context header the query front door
// propagates); everything else is dropped after Content-Length is read.
struct HttpRequest {
  std::string method;
  std::string target;
  std::string params;
  std::string traceparent;  // raw header value; empty when absent
  std::string body;
};

struct HttpResponse {
  int code = 200;
  std::string reason = "OK";
  std::string content_type = "text/plain";
  // Extra headers beyond Content-Type/Content-Length/Connection
  // (e.g. {"Retry-After", "1"}).
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

HttpResponse JsonResponse(int code, std::string_view reason,
                          std::string body);
// Uniform JSON error shape: {"error": <detail>, "status": <code>}.
HttpResponse HttpError(int code, std::string_view reason,
                       std::string_view detail);

// Value of `key` in a query string like "id=3&ms=100"; empty when absent.
std::string_view HttpQueryParam(std::string_view params, std::string_view key);

// Minimal blocking HTTP/1.0 client for tests and in-process load tools:
// one request per connection against 127.0.0.1:`port`. Returns the raw
// response (status line + headers + body); empty string means connect,
// send or read failure (including a server-side connection drop).
// `extra_headers` is a raw header block appended verbatim to the request
// head — each entry must be "Name: value\r\n" (e.g. a traceparent).
std::string HttpFetch(uint16_t port, std::string_view method,
                      std::string_view target, std::string_view body = {},
                      int timeout_ms = 5000,
                      std::string_view extra_headers = {});

// Value of response header `name` (case-insensitive) in a raw HttpFetch
// response; empty when absent.
std::string_view HttpHeaderOf(std::string_view raw_response,
                              std::string_view name);

// Status code of a raw HttpFetch response, or 0 when unparsable/empty.
int HttpStatusOf(std::string_view raw_response);

// Body of a raw HttpFetch response (everything after the blank line).
std::string_view HttpBodyOf(std::string_view raw_response);

// An accepted connection carrying its parsed request. Move-only; closes the
// socket on destruction, so dropping a connection (load shedding without a
// response, fault injection) is just letting it go out of scope.
class HttpConnection {
 public:
  HttpConnection() = default;
  HttpConnection(int fd, HttpRequest request)
      : fd_(fd), request_(std::move(request)) {}
  ~HttpConnection() { Close(); }
  HttpConnection(HttpConnection&& other) noexcept
      : fd_(other.fd_), request_(std::move(other.request_)) {
    other.fd_ = -1;
  }
  HttpConnection& operator=(HttpConnection&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      request_ = std::move(other.request_);
      other.fd_ = -1;
    }
    return *this;
  }
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool valid() const { return fd_ >= 0; }
  const HttpRequest& request() const { return request_; }

  // Serializes, sends (bounded by the socket's SO_SNDTIMEO) and closes.
  // Returns false when the send failed or the `server.write` fault fired —
  // the client sees a dropped connection either way.
  bool Respond(const HttpResponse& response);

  void Close();

 private:
  int fd_ = -1;
  HttpRequest request_;
};

class HttpListener {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = kernel-assigned; port() tells which
    std::string bind_address = "127.0.0.1";
    int backlog = 64;
    // SO_RCVTIMEO/SO_SNDTIMEO on every accepted socket, and the overall
    // wall-clock budget for reading one full request (head + body). A
    // client that connects and stalls holds the accept thread at most this
    // long before being answered 408 (partial request) or dropped (silent).
    int socket_timeout_ms = 5000;
    size_t max_head_bytes = 8192;
    size_t max_body_bytes = 1 << 20;
  };

  // The handler runs on the accept thread with a fully-read request. It may
  // respond inline (the stats server) or move the connection into a queue
  // for a worker pool (the query server) and return immediately.
  using Handler = std::function<void(HttpConnection)>;

  // Binds, listens, and starts the accept thread. Fails with Internal on
  // bind/listen errors (port taken, bad address).
  static Result<std::unique_ptr<HttpListener>> Start(Options options,
                                                     Handler handler);

  ~HttpListener();
  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  uint16_t port() const { return port_; }

  // Stops accepting and joins the accept thread. Idempotent. Connections
  // already handed to the handler are unaffected.
  void Stop();

 private:
  HttpListener() = default;

  void AcceptLoop();

  Options options_;
  Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace frappe::obs

#endif  // FRAPPE_OBS_HTTP_LISTENER_H_
