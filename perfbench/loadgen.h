// Open-loop load generator on XksClient.
//
// Each connection has one sender and one receiver thread. The sender sends
// every session's first page at its scheduled time, whether or not earlier
// replies have arrived (open loop), and sends walk continuations as soon as
// the receiver hands them over. A request is timed from when it was due —
// its scheduled time, or for a continuation the arrival of the reply that
// made it due — to its decoded reply, so a stall is charged to every
// request queued behind it. How late the sender ran is recorded too.

#ifndef XKS_PERFBENCH_LOADGEN_H_
#define XKS_PERFBENCH_LOADGEN_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/util.h"
#include "perfbench/workloads.h"
#include "src/api/search_types.h"
#include "src/common/status.h"
#include "src/obs/trace.h"

namespace perfbench {

/// One request sent, and what came back.
struct Record {
  size_t session = 0;
  /// 0 = first page; n = the n-th next_cursor page of a walk.
  size_t page = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  xks::SearchRequest request;
  /// A reply frame (response or error status) arrived for this request.
  bool answered = false;
  /// Non-OK: the server's error reply, or the transport failure.
  xks::Status status = xks::Status::OK();
  /// The response body exactly as received, plus the decoded fields the
  /// correctness check needs.
  std::string raw;
  bool served_from_cache = false;
  size_t documents_from_cache = 0;
  std::string next_cursor;
  uint64_t epoch = 0;
  std::shared_ptr<const xks::TraceSpan> trace;
  /// Set by the correctness check.
  bool correct = false;

  double latency_ms() const { return MsBetween(due, done); }
  double send_lag_ms() const { return MsBetween(due, sent); }
  bool ok() const { return answered && status.ok(); }
};

struct LoadOptions {
  double duration_s = 10;
};

/// Runs `sessions` (start times relative to now) against 127.0.0.1:`port`
/// over `connections` connections. Records are returned in no particular
/// order.
std::vector<Record> RunOpenLoop(uint16_t port,
                                const std::vector<Session>& sessions,
                                size_t connections, const LoadOptions& options);

/// Runs `sessions` one request at a time on one connection (warm-up and
/// closed-loop replay). Start times are ignored.
std::vector<Record> RunClosedLoop(uint16_t port,
                                  const std::vector<Session>& sessions);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_LOADGEN_H_
