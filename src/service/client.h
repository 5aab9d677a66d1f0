// Retrying client for the mdcd socket front-end.
//
// ServiceClient speaks the newline protocol (docs/service.md) over a
// Unix-domain or TCP connection with the supervision the daemon side
// assumes of a well-behaved caller:
//
//  - **Timeouts.** Connect and each request round-trip are bounded
//    (`connect_timeout_ms`, `request_timeout_ms`); the client never blocks
//    forever on a dead or wedged daemon.
//  - **Retry with decorrelated jitter.** A failed round-trip (connect
//    refused, send/recv error, timeout, torn connection after a daemon
//    SIGKILL, or a typed transient transport rejection such as
//    `overloaded_connections` / `draining` / a deadline reap) closes the
//    connection and retries after a BackoffSequence delay — the same
//    bounded decorrelated-jitter law the service worker uses, salted by
//    the request line so concurrent clients do not thunder together.
//    `line_too_long` is NOT retried: the same line would be rejected
//    again.
//  - **Idempotent resubmission.** Submit() leans on the journal's
//    duplicate_id semantics for an at-most-once guarantee: if the daemon
//    journaled the job but died before the ack, the retried submit is
//    answered `rejected <id> duplicate_id`, which SubmitResult::accepted()
//    treats as success — the job is durably admitted exactly once. The
//    socket kill-torture harness proves this end to end (byte-identical
//    artifacts, no duplicate execution, across daemon SIGKILLs at
//    arbitrary points in the connection).
//
// Client-side events are counted under `client.*` — deliberately outside
// the deterministic-counter prefixes (including the daemon's `net.*`):
// retry counts are a property of fault timing, not of the request script.
//
// Not thread-safe: one ServiceClient per thread (each holds one
// connection and one reply buffer).

#ifndef MDC_SERVICE_CLIENT_H_
#define MDC_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "service/admission.h"
#include "service/transport.h"

namespace mdc::service {

struct ClientConfig {
  std::string target;  // SocketAddress syntax ("unix:..." / "tcp:...").
  int64_t connect_timeout_ms = 2000;   // Per connect attempt.
  int64_t request_timeout_ms = 10000;  // Per round-trip attempt.
  int max_retries = 4;                 // Extra attempts after the first.
  // Backoff law (BackoffSequence): bounded decorrelated jitter.
  int64_t backoff_base_ms = 5;
  int64_t backoff_max_ms = 500;
  uint64_t backoff_jitter_seed = 0;
  uint64_t max_reply_bytes = 1 << 20;  // Reply-line sanity bound.
};

// Parsed reply to Submit(). `accepted()` is the idempotent contract: a
// fresh admission and a duplicate of an already-journaled id are the same
// durable outcome to a retrying caller.
struct SubmitResult {
  AdmitDecision decision = AdmitDecision::kInvalidSpec;
  std::string id;
  std::string reply;  // Raw reply line.

  bool accepted() const {
    return decision == AdmitDecision::kAdmitted ||
           decision == AdmitDecision::kDuplicateId;
  }
};

class ServiceClient {
 public:
  explicit ServiceClient(ClientConfig config);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // One protocol round-trip with the full retry/reconnect loop. Returns
  // the reply line (which may be an application-level "err ..." — those
  // are answers, not transport failures) or the last transport error once
  // retries are exhausted.
  StatusOr<std::string> Request(const std::string& line);

  // "submit <spec>" with idempotent-retry semantics (see SubmitResult).
  // Application rejections ("err submit ...", "err <id> ...") surface as
  // Status errors; typed shed decisions surface in the result.
  StatusOr<SubmitResult> Submit(const std::string& spec_line);

  // "status" -> the stats line after "ok status ".
  StatusOr<std::string> GetStatusLine();

  // "metrics" -> the one-line JSON snapshot after "ok metrics ".
  StatusOr<std::string> GetMetricsJson();

  // "cache stats" -> the stats text after "ok cache " ("off" when the
  // daemon runs with --no-cache).
  StatusOr<std::string> GetCacheStatsLine();

  // "cache clear" -> the daemon's reply payload ("cleared entries=N", or
  // "off" under --no-cache).
  StatusOr<std::string> CacheClear();

  // "wait" -> blocks (server-side) until the service is idle. Uses
  // `timeout_ms` (-1 = config request timeout) for the round-trip since a
  // busy service legitimately answers late.
  Status WaitIdle(int64_t timeout_ms = -1);

  // "drain" -> asks the daemon to drain and exit. The connection is
  // expected to close afterwards.
  Status Drain(int64_t timeout_ms = -1);

  // Drops the connection; the next Request() reconnects. Safe anytime.
  void Disconnect();

  bool connected() const { return fd_ >= 0; }
  // Totals across this client's lifetime (observability, and the torture
  // harness asserts the retry path actually ran).
  uint64_t retries() const { return retries_; }
  uint64_t reconnects() const { return reconnects_; }

 private:
  Status EnsureConnected();
  // Request() with an explicit per-attempt round-trip budget (<= 0 uses
  // the config default).
  StatusOr<std::string> RequestWithTimeout(const std::string& line,
                                           int64_t timeout_ms);
  // Send `line` + '\n', read one reply line, all within `timeout_ms` from
  // now. Any failure means the connection state is unknown — the caller
  // closes and retries.
  StatusOr<std::string> RoundTrip(const std::string& line,
                                  int64_t timeout_ms);

  const ClientConfig config_;
  SocketAddress address_;
  Status address_status_;  // Parse result of config_.target.
  int fd_ = -1;
  std::string inbuf_;  // Bytes received past the last reply line.
  bool ever_connected_ = false;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace mdc::service

#endif  // MDC_SERVICE_CLIENT_H_
