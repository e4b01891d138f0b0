#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <optional>

namespace perfbench {
namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string http_request(const RequestSpec& spec) {
  std::string body = "{\"prompt\":[";
  for (std::size_t i = 0; i < spec.prompt.size(); ++i) {
    if (i > 0) body += ',';
    body += std::to_string(spec.prompt[i]);
  }
  body += "],\"max_new_tokens\":" + std::to_string(spec.max_new_tokens) + "}";
  return "POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A request that sees no byte for this long fails as truncated. The last
/// longdoc document waits ~35 s for its first token here; this leaves room
/// for a host several times slower.
constexpr double kStallSeconds = 120.0;

/// An in-flight request: its record, socket and last-progress stamp.
struct Active {
  RequestRecord rec;
  int fd = -1;
  std::uint64_t last_byte_ns = 0;
};

void add_spans(const RequestRecord& r, std::vector<ClientSpan>& out) {
  const std::uint64_t first_byte =
      r.stream.first_byte_ns() != 0 ? r.stream.first_byte_ns() : r.done_ns;
  out.push_back({r.id, "request", r.sent_ns, r.done_ns});
  out.push_back({r.id, "connect", r.sent_ns, r.connected_ns});
  out.push_back({r.id, "first_byte", r.connected_ns, first_byte});
  std::uint64_t prev = r.sent_ns;
  for (std::uint64_t t : r.stream.token_ns()) {
    out.push_back({r.id, prev == r.sent_ns ? "first_token" : "token", prev, t});
    prev = t;
  }
  out.push_back({r.id, "done", prev, r.done_ns});
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PhaseResult run_closed_loop(std::uint16_t port, RequestSource& source,
                            const LoadOptions& opt,
                            const lserve::obs::MetricsRegistry* metrics) {
  PhaseResult out;
  out.start_ns = now_ns();
  const auto window_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const auto stall_ns = static_cast<std::uint64_t>(kStallSeconds * 1e9);
  const std::uint64_t send_until = out.start_ns + window_ns;

  const lserve::obs::Gauge* g_pages = nullptr;
  const lserve::obs::Gauge* g_hot = nullptr;
  const lserve::obs::Gauge* g_cold = nullptr;
  if (metrics != nullptr) {
    g_pages = metrics->find_gauge("lserve_kv_pages_in_use");
    g_hot = metrics->find_gauge("lserve_kv_pages_hot");
    g_cold = metrics->find_gauge("lserve_kv_pages_cold");
  }

  std::vector<std::optional<Active>> slots(opt.callers);
  std::vector<bool> exhausted(opt.callers, false);
  std::uint64_t next_id = 1;

  const auto finish = [&](std::size_t c, std::uint64_t t) {
    Active& a = *slots[c];
    if (a.fd >= 0) ::close(a.fd);
    a.rec.done_ns = t;
    a.rec.failure = classify(a.rec.stream, a.rec.spec.max_new_tokens);
    source.completed(c, a.rec.spec, a.rec.stream.tokens());
    if (opt.trace) add_spans(a.rec, out.spans);
    out.end_ns = std::max(out.end_ns, t);
    out.requests.push_back(std::move(a.rec));
    slots[c].reset();
  };

  const auto unacknowledged = [&] {
    for (const std::optional<Active>& a : slots) {
      if (a && a->rec.stream.first_byte_ns() == 0) return true;
    }
    return false;
  };

  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_caller;
  char buf[16384];
  for (;;) {
    // Idle callers send their next request while the window is open, one
    // at a time: a caller sends only once every request in flight has its
    // first byte (the server writes the SSE head right after submit()), so
    // the scheduler admits requests in the order they were sent, not in
    // the order its event loop happens to read their sockets.
    for (std::size_t c = 0; c < opt.callers; ++c) {
      if (unacknowledged()) break;
      if (slots[c] || exhausted[c] || now_ns() >= send_until) continue;
      std::optional<RequestSpec> spec = source.next(c);
      if (!spec) {
        exhausted[c] = true;
        continue;
      }
      Active a;
      a.rec.caller = c;
      a.rec.id = next_id++;
      a.rec.spec = std::move(*spec);
      a.rec.sent_ns = now_ns();
      a.fd = connect_loopback(port);
      a.rec.connected_ns = now_ns();
      a.last_byte_ns = a.rec.connected_ns;
      slots[c] = std::move(a);
      if (slots[c]->fd < 0 ||
          !send_all(slots[c]->fd, http_request(slots[c]->rec.spec)) ||
          ::fcntl(slots[c]->fd, F_SETFL, O_NONBLOCK) != 0) {
        finish(c, now_ns());
      }
    }

    fds.clear();
    fd_caller.clear();
    for (std::size_t c = 0; c < opt.callers; ++c) {
      if (!slots[c]) continue;
      fds.push_back({slots[c]->fd, POLLIN, 0});
      fd_caller.push_back(c);
    }
    if (fds.empty()) {
      bool more = false;
      for (std::size_t c = 0; c < opt.callers; ++c) more |= !exhausted[c];
      if (!more || now_ns() >= send_until) break;
      continue;
    }
    ::poll(fds.data(), fds.size(), 5);
    const std::uint64_t t = now_ns();
    if (g_pages != nullptr) {
      out.peaks.pages = std::max(out.peaks.pages, g_pages->value());
    }
    if (g_hot != nullptr) out.peaks.hot = std::max(out.peaks.hot, g_hot->value());
    if (g_cold != nullptr) {
      out.peaks.cold = std::max(out.peaks.cold, g_cold->value());
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const std::size_t c = fd_caller[i];
      Active& a = *slots[c];
      bool ended = false;
      if (fds[i].revents != 0) {
        for (;;) {
          const ssize_t n = ::read(a.fd, buf, sizeof(buf));
          if (n > 0) {
            a.rec.stream.feed(std::string_view(buf, static_cast<std::size_t>(n)),
                              t);
            a.last_byte_ns = t;
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          ended = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
      }
      if (ended || t - a.last_byte_ns > stall_ns) finish(c, t);
    }
  }
  if (out.end_ns == 0) out.end_ns = now_ns();
  return out;
}

RequestRecord run_one(std::uint16_t port, const RequestSpec& spec) {
  class OneShot final : public RequestSource {
   public:
    explicit OneShot(const RequestSpec& spec) : spec_(spec) {}
    std::optional<RequestSpec> next(std::size_t) override {
      if (sent_) return std::nullopt;
      sent_ = true;
      return spec_;
    }
    void completed(std::size_t, const RequestSpec&,
                   std::span<const std::int32_t>) override {}

   private:
    const RequestSpec& spec_;
    bool sent_ = false;
  } source(spec);
  LoadOptions opt;
  opt.callers = 1;
  opt.seconds = kStallSeconds;  // any window: the one request goes out at once.
  return std::move(run_closed_loop(port, source, opt, nullptr).requests.at(0));
}

std::string spans_to_chrome_json(const std::vector<ClientSpan>& spans) {
  std::string s = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ClientSpan& sp = spans[i];
    if (i > 0) s += ',';
    s += "{\"name\":\"";
    s += sp.name;
    s += "\",\"ph\":\"X\",\"pid\":2,\"tid\":" + std::to_string(sp.request);
    s += ",\"ts\":" + std::to_string(sp.start_ns / 1000);
    s += ",\"dur\":" + std::to_string((sp.end_ns - sp.start_ns) / 1000);
    s += ",\"args\":{\"request\":" + std::to_string(sp.request) + "}}";
  }
  s += "]}";
  return s;
}

}  // namespace perfbench
