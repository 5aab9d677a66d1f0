#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/durable_io.h"
#include "common/metrics.h"
#include "service/job_spec.h"

namespace mdc::service {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(int64_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Waits for `events` on `fd` until `deadline_ms` (absolute NowMs clock).
// OK when ready; kDeadlineExceeded when the budget runs out.
Status PollFor(int fd, short events, int64_t deadline_ms,
               const char* what) {
  while (true) {
    int64_t remaining = deadline_ms - NowMs();
    if (remaining <= 0) {
      return Status::DeadlineExceeded(std::string("client: ") + what +
                                      " timed out");
    }
    pollfd pfd{fd, events, 0};
    int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min<int64_t>(remaining, 1000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ErrnoToStatus(errno, std::string("client: poll for ") + what);
    }
    if (ready > 0) return Status::Ok();
  }
}

// Typed transport rejections that mean "not now": the daemon shed or
// reaped the connection, not the request content — reconnect and retry.
// line_too_long is content: the same line would be rejected again.
bool IsTransientTransportReply(std::string_view reply) {
  constexpr std::string_view kPrefix = "err transport ";
  if (reply.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view name = reply.substr(kPrefix.size());
  if (size_t space = name.find(' '); space != std::string_view::npos) {
    name = name.substr(0, space);
  }
  return name != TransportRejectName(TransportReject::kLineTooLong);
}

}  // namespace

ServiceClient::ServiceClient(ClientConfig config)
    : config_(std::move(config)) {
  auto address_or = ParseSocketAddress(config_.target);
  if (address_or.ok()) {
    address_ = *address_or;
  } else {
    address_status_ = address_or.status();
  }
}

ServiceClient::~ServiceClient() { Disconnect(); }

void ServiceClient::Disconnect() {
  if (fd_ >= 0) {
    while (::close(fd_) < 0 && errno == EINTR) {
    }
    fd_ = -1;
  }
  inbuf_.clear();
}

Status ServiceClient::EnsureConnected() {
  if (fd_ >= 0) return Status::Ok();
  MDC_RETURN_IF_ERROR(address_status_);
  const int64_t deadline = NowMs() + config_.connect_timeout_ms;
  int fd = -1;
  int rc = -1;
  if (address_.kind == SocketAddress::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoToStatus(errno, "client: socket(AF_UNIX)");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, address_.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return ErrnoToStatus(errno, "client: socket(AF_INET)");
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(address_.port));
    ::inet_pton(AF_INET, address_.host.c_str(), &addr.sin_addr);
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
  }
  if (rc < 0 && errno != EINPROGRESS) {
    Status status = ErrnoToStatus(errno, "client: connect " + config_.target);
    ::close(fd);
    return status;
  }
  if (rc < 0) {  // EINPROGRESS: wait for the handshake, then check it.
    if (Status status = PollFor(fd, POLLOUT, deadline, "connect");
        !status.ok()) {
      ::close(fd);
      return status;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      Status status =
          ErrnoToStatus(err != 0 ? err : errno,
                        "client: connect " + config_.target);
      ::close(fd);
      return status;
    }
  }
  fd_ = fd;
  inbuf_.clear();
  if (ever_connected_) {
    ++reconnects_;
    MDC_METRIC_INC("client.reconnects");
  }
  ever_connected_ = true;
  MDC_METRIC_INC("client.connects");
  return Status::Ok();
}

StatusOr<std::string> ServiceClient::RoundTrip(const std::string& line,
                                               int64_t timeout_ms) {
  const int64_t deadline = NowMs() + timeout_ms;
  std::string frame = line;
  frame.push_back('\n');
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        MDC_RETURN_IF_ERROR(PollFor(fd_, POLLOUT, deadline, "send"));
        continue;
      }
      return ErrnoToStatus(errno, "client: send");
    }
    sent += static_cast<size_t>(n);
  }
  while (true) {
    if (size_t pos = inbuf_.find('\n'); pos != std::string::npos) {
      std::string reply = inbuf_.substr(0, pos);
      inbuf_.erase(0, pos + 1);
      if (!reply.empty() && reply.back() == '\r') reply.pop_back();
      return reply;
    }
    if (inbuf_.size() > config_.max_reply_bytes) {
      return Status::Internal("client: reply exceeds " +
                              std::to_string(config_.max_reply_bytes) +
                              " bytes without a newline");
    }
    MDC_RETURN_IF_ERROR(PollFor(fd_, POLLIN, deadline, "recv"));
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return ErrnoToStatus(errno, "client: recv");
    }
    if (n == 0) {
      return Status::Internal("client: connection closed before reply");
    }
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

StatusOr<std::string> ServiceClient::Request(const std::string& line) {
  return RequestWithTimeout(line, config_.request_timeout_ms);
}

StatusOr<std::string> ServiceClient::RequestWithTimeout(
    const std::string& line, int64_t timeout_ms) {
  if (timeout_ms <= 0) timeout_ms = config_.request_timeout_ms;
  // Salted by the request line: two clients retrying the same incident
  // decorrelate by seed, two requests by one client decorrelate by salt.
  BackoffSequence backoff(config_.backoff_base_ms, config_.backoff_max_ms,
                          config_.backoff_jitter_seed, BackoffSalt(line));
  Status last = Status::Internal("client: no attempt made");
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      MDC_METRIC_INC("client.retries");
      SleepMs(backoff.NextDelayMs());
    }
    if (Status status = EnsureConnected(); !status.ok()) {
      last = status;
      continue;
    }
    auto reply = RoundTrip(line, timeout_ms);
    if (!reply.ok()) {
      // The connection state is unknown (half-sent request, half-read
      // reply, daemon possibly dead): drop it and retry from a fresh
      // connect. Idempotence of the retried request is the protocol's
      // job (duplicate_id), not this layer's.
      last = reply.status();
      Disconnect();
      continue;
    }
    if (IsTransientTransportReply(*reply)) {
      last = Status::Internal("client: transport rejection: " + *reply);
      Disconnect();
      continue;
    }
    return reply;
  }
  return last;
}

StatusOr<SubmitResult> ServiceClient::Submit(const std::string& spec_line) {
  MDC_ASSIGN_OR_RETURN(std::string reply,
                       Request("submit " + spec_line));
  SubmitResult result;
  result.reply = reply;
  // "ok <id> admitted" | "rejected <id> <decision>" | "err ...".
  std::vector<std::string> parts;
  {
    size_t start = 0;
    while (start <= reply.size()) {
      size_t space = reply.find(' ', start);
      if (space == std::string::npos) {
        parts.push_back(reply.substr(start));
        break;
      }
      parts.push_back(reply.substr(start, space - start));
      start = space + 1;
    }
  }
  if (parts.size() == 3 && parts[0] == "ok" && parts[2] == "admitted") {
    result.decision = AdmitDecision::kAdmitted;
    result.id = parts[1];
    return result;
  }
  if (parts.size() == 3 && parts[0] == "rejected") {
    auto decision = AdmitDecisionFromName(parts[2]);
    if (!decision.has_value()) {
      return Status::Internal("client: unknown rejection in reply '" + reply +
                              "'");
    }
    result.decision = *decision;
    result.id = parts[1];
    return result;
  }
  if (!parts.empty() && parts[0] == "err") {
    if (parts.size() >= 2 && parts[1] == "submit") {
      return Status::InvalidArgument(reply);
    }
    return Status::Internal(reply);
  }
  return Status::Internal("client: unparsable submit reply '" + reply + "'");
}

StatusOr<std::string> ServiceClient::GetStatusLine() {
  MDC_ASSIGN_OR_RETURN(std::string reply, Request("status"));
  constexpr std::string_view kPrefix = "ok status ";
  if (reply.size() < kPrefix.size() ||
      std::string_view(reply).substr(0, kPrefix.size()) != kPrefix) {
    return Status::Internal("client: unexpected status reply '" + reply + "'");
  }
  return reply.substr(kPrefix.size());
}

StatusOr<std::string> ServiceClient::GetMetricsJson() {
  MDC_ASSIGN_OR_RETURN(std::string reply, Request("metrics"));
  constexpr std::string_view kPrefix = "ok metrics ";
  if (reply.size() < kPrefix.size() ||
      std::string_view(reply).substr(0, kPrefix.size()) != kPrefix) {
    return Status::Internal("client: unexpected metrics reply '" + reply +
                            "'");
  }
  return reply.substr(kPrefix.size());
}

StatusOr<std::string> ServiceClient::GetCacheStatsLine() {
  MDC_ASSIGN_OR_RETURN(std::string reply, Request("cache stats"));
  constexpr std::string_view kPrefix = "ok cache ";
  if (reply.size() < kPrefix.size() ||
      std::string_view(reply).substr(0, kPrefix.size()) != kPrefix) {
    return Status::Internal("client: unexpected cache reply '" + reply + "'");
  }
  return reply.substr(kPrefix.size());
}

StatusOr<std::string> ServiceClient::CacheClear() {
  MDC_ASSIGN_OR_RETURN(std::string reply, Request("cache clear"));
  constexpr std::string_view kPrefix = "ok cache ";
  if (reply.size() < kPrefix.size() ||
      std::string_view(reply).substr(0, kPrefix.size()) != kPrefix) {
    return Status::Internal("client: unexpected cache reply '" + reply + "'");
  }
  return reply.substr(kPrefix.size());
}

Status ServiceClient::WaitIdle(int64_t timeout_ms) {
  MDC_ASSIGN_OR_RETURN(std::string reply,
                       RequestWithTimeout("wait", timeout_ms));
  if (reply != "ok wait idle") {
    return Status::Internal("client: unexpected wait reply '" + reply + "'");
  }
  return Status::Ok();
}

Status ServiceClient::Drain(int64_t timeout_ms) {
  MDC_ASSIGN_OR_RETURN(std::string reply,
                       RequestWithTimeout("drain", timeout_ms));
  // The daemon closes the connection right after this reply; drop our end
  // now so a later Request() reconnects instead of reading stale EOF.
  Disconnect();
  if (reply == "ok drain") return Status::Ok();
  return Status::Internal("client: drain failed: " + reply);
}

}  // namespace mdc::service
