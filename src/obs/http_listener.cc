#include "obs/http_listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/fault_injector.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace frappe::obs {

namespace {

using Clock = std::chrono::steady_clock;

Counter& AcceptedCounter() {
  static Counter& c = Registry::Global().GetCounter("server.http_accepted");
  return c;
}
Counter& ReadTimeoutCounter() {
  static Counter& c =
      Registry::Global().GetCounter("server.http_read_timeouts");
  return c;
}
Counter& BadRequestCounter() {
  static Counter& c =
      Registry::Global().GetCounter("server.http_bad_requests");
  return c;
}
Counter& IoFaultCounter() {
  static Counter& c = Registry::Global().GetCounter("server.http_io_faults");
  return c;
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

int RemainingMs(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - Clock::now())
                  .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

// Case-insensitive scan of the raw header block for `header_name`
// (lowercase). Returns the trimmed value, or empty when absent.
std::string_view FindHeaderValue(std::string_view head,
                                 std::string_view header_name) {
  size_t pos = 0;
  while (pos < head.size()) {
    size_t eol = head.find('\n', pos);
    std::string_view line = head.substr(
        pos, eol == std::string_view::npos ? head.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 1;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name = ToLower(line.substr(0, colon));
    if (name != header_name) continue;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() &&
           (value.back() == '\r' || value.back() == ' ')) {
      value.remove_suffix(1);
    }
    return value;
  }
  return {};
}

// Case-insensitive "Content-Length" scan over the raw header block.
// Returns -1 when absent or malformed.
int64_t ParseContentLength(std::string_view head) {
  std::string_view value = FindHeaderValue(head, "content-length");
  if (value.empty()) return -1;
  int64_t n = 0;
  if (!ParseInt64(value, &n) || n < 0) return -1;
  return n;
}

// Outcome of reading one request off a socket.
enum class ReadResult {
  kOk,
  kClosed,    // peer closed / nothing arrived: drop silently
  kTimeout,   // partial request then stall: answer 408
  kTooLarge,  // head or body over the cap: answer 413
  kBad,       // unparsable request line: answer 400
  kFault,     // server.read fault fired: drop silently
};

// Reads head + body with an overall wall-clock deadline. SO_RCVTIMEO is
// set as well, but the poll() deadline is the authoritative bound: a
// client trickling one byte per timeout period still cannot exceed it.
ReadResult ReadRequest(int fd, const HttpListener::Options& options,
                       HttpRequest* out) {
  if (common::FaultInjector::Global().AnyArmed() &&
      common::FaultInjector::Global().ShouldFail("server.read")) {
    IoFaultCounter().Add();
    return ReadResult::kFault;
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options.socket_timeout_ms);
  std::string data;
  char buf[2048];
  size_t head_end = std::string::npos;
  size_t head_end_len = 0;
  // Phase 1: the head, terminated by a blank line.
  while (head_end == std::string::npos) {
    if (data.size() > options.max_head_bytes) return ReadResult::kTooLarge;
    int wait = RemainingMs(deadline);
    if (wait == 0) {
      ReadTimeoutCounter().Add();
      return data.empty() ? ReadResult::kClosed : ReadResult::kTimeout;
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, wait) <= 0) {
      ReadTimeoutCounter().Add();
      return data.empty() ? ReadResult::kClosed : ReadResult::kTimeout;
    }
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return data.empty() ? ReadResult::kClosed : ReadResult::kBad;
    data.append(buf, static_cast<size_t>(n));
    if (size_t p = data.find("\r\n\r\n"); p != std::string::npos) {
      head_end = p;
      head_end_len = 4;
    } else if (size_t q = data.find("\n\n"); q != std::string::npos) {
      head_end = q;
      head_end_len = 2;
    }
  }

  std::string_view head(data.data(), head_end);
  size_t eol = head.find_first_of("\r\n");
  std::string_view request_line =
      eol == std::string_view::npos ? head : head.substr(0, eol);
  size_t sp1 = request_line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return ReadResult::kBad;
  size_t sp2 = request_line.find(' ', sp1 + 1);
  std::string_view target =
      sp2 == std::string_view::npos
          ? request_line.substr(sp1 + 1)
          : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty()) return ReadResult::kBad;

  out->method = std::string(request_line.substr(0, sp1));
  if (size_t q = target.find('?'); q != std::string_view::npos) {
    out->params = std::string(target.substr(q + 1));
    target = target.substr(0, q);
  }
  out->target = std::string(target);

  std::string_view header_block =
      head.substr(eol == std::string_view::npos ? head.size() : eol);
  out->traceparent = std::string(FindHeaderValue(header_block, "traceparent"));

  // Phase 2: the body. HTTP/1.0 POSTs carry Content-Length; without one,
  // whatever arrived with the head is the body (no further reads).
  int64_t content_length = ParseContentLength(header_block);
  out->body = data.substr(head_end + head_end_len);
  if (content_length >= 0) {
    if (static_cast<size_t>(content_length) > options.max_body_bytes) {
      return ReadResult::kTooLarge;
    }
    while (out->body.size() < static_cast<size_t>(content_length)) {
      int wait = RemainingMs(deadline);
      if (wait == 0) {
        ReadTimeoutCounter().Add();
        return ReadResult::kTimeout;
      }
      struct pollfd pfd = {fd, POLLIN, 0};
      if (poll(&pfd, 1, wait) <= 0) {
        ReadTimeoutCounter().Add();
        return ReadResult::kTimeout;
      }
      ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return ReadResult::kTimeout;
      out->body.append(buf, static_cast<size_t>(n));
    }
    out->body.resize(static_cast<size_t>(content_length));
  }
  return ReadResult::kOk;
}

// Sends `head` and then `body` with gathered writes, so a response's body
// is never copied behind its head.
void SendAll(int fd, std::string_view head, std::string_view body = {}) {
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  size_t next = 0;  // first iovec with bytes left
  while (true) {
    while (next < 2 && iov[next].iov_len == 0) ++next;
    if (next == 2) return;
    msghdr msg{};
    msg.msg_iov = iov + next;
    msg.msg_iovlen = 2 - next;
    ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return;  // SO_SNDTIMEO or peer gone: give up, caller closes
    for (size_t sent = static_cast<size_t>(n); sent > 0; ++next) {
      const size_t take = std::min(sent, iov[next].iov_len);
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + take;
      iov[next].iov_len -= take;
      sent -= take;
      if (iov[next].iov_len > 0) break;
    }
  }
}

// "HTTP/1.0 <code> <reason>\r\n<headers>\r\n\r\n": everything before the
// body.
std::string HttpResponseHead(const HttpResponse& response) {
  std::string out = "HTTP/1.0 " + std::to_string(response.code) + " " +
                    response.reason + "\r\nContent-Type: " +
                    response.content_type + "\r\nContent-Length: " +
                    std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  return out;
}

}  // namespace

HttpResponse JsonResponse(int code, std::string_view reason,
                          std::string body) {
  HttpResponse r;
  r.code = code;
  r.reason = std::string(reason);
  r.content_type = "application/json";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpError(int code, std::string_view reason,
                       std::string_view detail) {
  return JsonResponse(code, reason,
                      "{\"error\": " + JsonQuote(detail) +
                          ", \"status\": " + std::to_string(code) + "}\n");
}

std::string_view HttpQueryParam(std::string_view params,
                                std::string_view key) {
  size_t pos = 0;
  while (pos < params.size()) {
    size_t amp = params.find('&', pos);
    std::string_view pair = params.substr(
        pos,
        amp == std::string_view::npos ? params.size() - pos : amp - pos);
    pos = amp == std::string_view::npos ? params.size() : amp + 1;
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
  }
  return {};
}

std::string HttpFetch(uint16_t port, std::string_view method,
                      std::string_view target, std::string_view body,
                      int timeout_ms, std::string_view extra_headers) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  SetSocketTimeouts(fd, timeout_ms);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return {};
  }
  std::string request = std::string(method) + " " + std::string(target) +
                        " HTTP/1.0\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n" +
                        std::string(extra_headers) + "\r\n" +
                        std::string(body);
  SendAll(fd, request);
  std::string response;
  char buf[4096];
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int wait = RemainingMs(deadline);
    if (wait == 0) break;
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, wait) <= 0) break;
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF: HTTP/1.0 close delimits the response
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

int HttpStatusOf(std::string_view raw_response) {
  // "HTTP/1.0 <code> ..."
  size_t sp = raw_response.find(' ');
  if (sp == std::string_view::npos) return 0;
  int64_t code = 0;
  size_t end = raw_response.find(' ', sp + 1);
  if (end == std::string_view::npos) return 0;
  if (!ParseInt64(raw_response.substr(sp + 1, end - sp - 1), &code)) return 0;
  return static_cast<int>(code);
}

std::string_view HttpHeaderOf(std::string_view raw_response,
                              std::string_view name) {
  size_t head_end = raw_response.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    head_end = raw_response.find("\n\n");
  }
  std::string_view head = head_end == std::string_view::npos
                              ? raw_response
                              : raw_response.substr(0, head_end);
  // Skip the status line.
  size_t eol = head.find('\n');
  if (eol == std::string_view::npos) return {};
  return FindHeaderValue(head.substr(eol + 1), ToLower(name));
}

std::string_view HttpBodyOf(std::string_view raw_response) {
  if (size_t p = raw_response.find("\r\n\r\n");
      p != std::string_view::npos) {
    return raw_response.substr(p + 4);
  }
  if (size_t p = raw_response.find("\n\n"); p != std::string_view::npos) {
    return raw_response.substr(p + 2);
  }
  return {};
}

bool HttpConnection::Respond(const HttpResponse& response) {
  if (fd_ < 0) return false;
  if (common::FaultInjector::Global().AnyArmed() &&
      common::FaultInjector::Global().ShouldFail("server.write")) {
    IoFaultCounter().Add();
    Close();
    return false;
  }
  SendAll(fd_, HttpResponseHead(response), response.body);
  Close();
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<HttpListener>> HttpListener::Start(Options options,
                                                          Handler handler) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::Internal("bind " + options.bind_address + ":" +
                                     std::to_string(options.port) + ": " +
                                     std::strerror(errno));
    close(fd);
    return status;
  }
  if (listen(fd, options.backlog) != 0) {
    Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);

  // `new`: the constructor is private.
  std::unique_ptr<HttpListener> listener(new HttpListener());
  listener->options_ = std::move(options);
  listener->handler_ = std::move(handler);
  listener->listen_fd_ = fd;
  listener->port_ = ntohs(addr.sin_port);
  listener->thread_ = std::thread([l = listener.get()] { l->AcceptLoop(); });
  return listener;
}

HttpListener::~HttpListener() { Stop(); }

void HttpListener::Stop() {
  if (stop_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpListener::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Poll with a timeout so Stop() is observed promptly — close()ing a
    // blocked accept() is not reliably wakeful on all platforms.
    struct pollfd pfd = {listen_fd_, POLLIN, 0};
    int ready = poll(&pfd, 1, 200);
    if (ready <= 0) continue;
    int client = accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    if (common::FaultInjector::Global().AnyArmed() &&
        common::FaultInjector::Global().ShouldFail("server.accept")) {
      IoFaultCounter().Add();
      close(client);
      continue;
    }
    AcceptedCounter().Add();
    SetSocketTimeouts(client, options_.socket_timeout_ms);

    HttpRequest request;
    switch (ReadRequest(client, options_, &request)) {
      case ReadResult::kOk:
        handler_(HttpConnection(client, std::move(request)));
        break;
      case ReadResult::kTimeout:
        HttpConnection(client, {}).Respond(
            HttpError(408, "Request Timeout", "request read timed out"));
        break;
      case ReadResult::kTooLarge:
        BadRequestCounter().Add();
        HttpConnection(client, {}).Respond(HttpError(
            413, "Payload Too Large", "request head or body over limit"));
        break;
      case ReadResult::kBad:
        BadRequestCounter().Add();
        HttpConnection(client, {}).Respond(
            HttpError(400, "Bad Request", "bad request line"));
        break;
      case ReadResult::kClosed:
      case ReadResult::kFault:
        close(client);
        break;
    }
  }
}

}  // namespace frappe::obs
