// Client side of one /v1/generate exchange: an incremental parser for the
// HTTP response head and its Server-Sent Events body that stamps every
// `event: token` frame with the time of the read() that completed it, and
// the failure accounting built on it.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class StreamRecorder {
 public:
  /// Feeds the bytes of one read(), which arrived at `t_ns`. Frames may
  /// split anywhere, across any number of reads.
  void feed(std::string_view bytes, std::uint64_t t_ns) {
    if (first_byte_ns_ == 0) first_byte_ns_ = t_ns;
    buf_.append(bytes);
    if (!in_body_) {
      const std::size_t end = buf_.find("\r\n\r\n");
      if (end == std::string::npos) return;
      // "HTTP/1.1 200 OK": the code starts after the first space.
      const std::size_t sp = buf_.find(' ');
      http_status_ = sp == std::string::npos || sp > end
                         ? -1
                         : std::atoi(buf_.c_str() + sp + 1);
      buf_.erase(0, end + 4);
      in_body_ = true;
    }
    if (http_status_ != 200) return;  // an error body, not an event stream.
    std::size_t pos = 0;
    while ((pos = buf_.find("\n\n")) != std::string::npos) {
      on_frame(std::string_view(buf_).substr(0, pos), t_ns);
      buf_.erase(0, pos + 2);
    }
  }

  int http_status() const noexcept { return http_status_; }
  bool saw_done() const noexcept { return done_; }
  /// The `status` field of the terminal `done` event ("" before it).
  const std::string& status() const noexcept { return status_; }
  const std::vector<std::int32_t>& tokens() const noexcept { return tokens_; }
  const std::vector<std::uint64_t>& token_ns() const noexcept {
    return token_ns_;
  }
  std::uint64_t first_byte_ns() const noexcept { return first_byte_ns_; }

 private:
  void on_frame(std::string_view frame, std::uint64_t t_ns) {
    std::string_view event;
    std::string_view data;
    while (!frame.empty()) {
      const std::size_t nl = frame.find('\n');
      const std::string_view line = frame.substr(0, nl);
      if (line.starts_with("event: ")) event = line.substr(7);
      if (line.starts_with("data: ")) data = line.substr(6);
      if (nl == std::string_view::npos) break;
      frame.remove_prefix(nl + 1);
    }
    if (event == "token") {
      tokens_.push_back(static_cast<std::int32_t>(int_field(data, "token")));
      token_ns_.push_back(t_ns);
    } else if (event == "done") {
      done_ = true;
      const std::size_t at = data.find("\"status\":\"");
      if (at != std::string_view::npos) {
        const std::string_view rest = data.substr(at + 10);
        status_ = std::string(rest.substr(0, rest.find('"')));
      }
    }
  }

  static long int_field(std::string_view data, std::string_view key) {
    std::string pat = "\"";
    pat += key;
    pat += "\":";
    const std::size_t at = data.find(pat);
    if (at == std::string_view::npos) return -1;
    return std::strtol(std::string(data.substr(at + pat.size())).c_str(),
                       nullptr, 10);
  }

  std::string buf_;
  bool in_body_ = false;
  int http_status_ = 0;
  bool done_ = false;
  std::string status_;
  std::vector<std::int32_t> tokens_;
  std::vector<std::uint64_t> token_ns_;
  std::uint64_t first_byte_ns_ = 0;
};

/// Why a request counts as failed.
enum class Failure {
  kNone,
  kHttpStatus,   ///< the response was not 200.
  kTruncated,    ///< the stream ended without a `done` event.
  kStatus,       ///< `done` carried a status other than FINISHED.
  kTokenCount,   ///< FINISHED, but not max_new_tokens token events.
  kWrongOutput,  ///< the correctness gate's solo re-generation differed.
};

inline const char* to_string(Failure f) noexcept {
  switch (f) {
    case Failure::kNone: return "none";
    case Failure::kHttpStatus: return "http_status";
    case Failure::kTruncated: return "truncated";
    case Failure::kStatus: return "status";
    case Failure::kTokenCount: return "token_count";
    case Failure::kWrongOutput: return "wrong_output";
  }
  return "?";
}

/// Classifies a finished exchange that asked for `max_new_tokens`.
inline Failure classify(const StreamRecorder& r, std::size_t max_new_tokens) {
  if (r.http_status() != 200) return Failure::kHttpStatus;
  if (!r.saw_done()) return Failure::kTruncated;
  if (r.status() != "FINISHED") return Failure::kStatus;
  if (r.tokens().size() != max_new_tokens) return Failure::kTokenCount;
  return Failure::kNone;
}

inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Appends one request's latency samples in ms: its TTFT (from `sent_ns`
/// to the first token frame) and every inter-token gap. A failed request
/// contributes one +inf sample to each, so it misses every latency limit.
inline void add_latency_samples(const StreamRecorder& r, std::uint64_t sent_ns,
                                bool failed, std::vector<double>& ttft_ms,
                                std::vector<double>& itl_ms) {
  if (failed || r.token_ns().empty()) {
    ttft_ms.push_back(kMissed);
    itl_ms.push_back(kMissed);
    return;
  }
  const std::vector<std::uint64_t>& t = r.token_ns();
  ttft_ms.push_back(static_cast<double>(t[0] - sent_ns) * 1e-6);
  for (std::size_t i = 1; i < t.size(); ++i) {
    itl_ms.push_back(static_cast<double>(t[i] - t[i - 1]) * 1e-6);
  }
}

}  // namespace perfbench
