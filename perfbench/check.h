// The correctness check, run after the timed phase: every reply's raw bytes
// must equal EncodeSearchResponse of the library's own answer to the same
// request. Two response fields are documented as observational and are
// taken from the reply before comparing — served_from_cache and
// documents_from_cache (whether the result cache answered) — plus, on the
// coordinator, the cursor token, whose format legitimately differs from a
// single node's (its presence must still agree). Every other byte must
// match.

#ifndef XKS_PERFBENCH_CHECK_H_
#define XKS_PERFBENCH_CHECK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/loadgen.h"
#include "src/api/database.h"
#include "src/api/snapshot.h"

namespace perfbench {

struct CheckResult {
  size_t checked = 0;
  size_t mismatched = 0;
  /// A one-line description of the first mismatch, for the report.
  std::string first_problem;
};

/// Single node: each successful record is compared against
/// `snapshot_for(record.epoch)`'s answer to the same request.
CheckResult CheckSingleNode(
    std::vector<Record>* records,
    const std::function<std::shared_ptr<const xks::Snapshot>(uint64_t)>&
        snapshot_for);

/// Fleet: each walk is replayed page by page on `union_db`, the one-node
/// corpus holding every shard's documents in global id order.
CheckResult CheckFleet(std::vector<Record>* records,
                       const xks::Database& union_db);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_CHECK_H_
