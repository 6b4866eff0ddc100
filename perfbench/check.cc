#include "perfbench/check.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/mutex.h"
#include "src/common/worker_pool.h"
#include "src/server/wire.h"

namespace perfbench {
namespace {

/// The library answer for a recorded request: same request, serial scan
/// (responses are identical at every parallelism) and no trace.
xks::SearchRequest ReferenceRequest(const xks::SearchRequest& sent) {
  xks::SearchRequest request = sent;
  request.max_parallelism = 1;
  request.include_trace = false;
  return request;
}

/// Whether `got` carries exactly EncodeSearchResponse(`expected`), modulo
/// the observational fields named in check.h.
bool SameBytes(xks::SearchResponse expected, const Record& got,
               bool coordinator) {
  expected.served_from_cache = got.served_from_cache;
  expected.documents_from_cache = got.documents_from_cache;
  if (coordinator) {
    if (expected.next_cursor.empty() != got.next_cursor.empty()) return false;
    expected.next_cursor = got.next_cursor;
  }
  expected.trace = got.trace;
  return xks::EncodeSearchResponse(expected) == got.raw;
}

class Tally {
 public:
  void Add(bool match, const std::string& what) {
    xks::MutexLock lock(mutex_);
    ++result_.checked;
    if (match) return;
    ++result_.mismatched;
    if (result_.first_problem.empty()) result_.first_problem = what;
  }
  CheckResult Take() {
    xks::MutexLock lock(mutex_);
    return result_;
  }

 private:
  xks::Mutex mutex_;
  CheckResult result_ XKS_GUARDED_BY(mutex_);
};

std::string Describe(const Record& record, const std::string& why) {
  return "'" + record.request.query + "' page " +
         std::to_string(record.page) + ": " + why;
}

}  // namespace

CheckResult CheckSingleNode(
    std::vector<Record>* records,
    const std::function<std::shared_ptr<const xks::Snapshot>(uint64_t)>&
        snapshot_for) {
  Tally tally;
  (void)xks::ParallelFor(records->size(), [&](size_t i) {
    Record& record = (*records)[i];
    if (!record.ok()) return xks::Status::OK();
    const std::shared_ptr<const xks::Snapshot> snapshot =
        snapshot_for(record.epoch);
    if (snapshot == nullptr) {
      tally.Add(false, Describe(record, "reply names an unknown epoch"));
      return xks::Status::OK();
    }
    xks::Result<xks::SearchResponse> expected =
        snapshot->Search(ReferenceRequest(record.request));
    record.correct =
        expected.ok() && SameBytes(std::move(expected).value(), record, false);
    tally.Add(record.correct, Describe(record, "reply bytes differ"));
    return xks::Status::OK();
  });
  return tally.Take();
}

CheckResult CheckFleet(std::vector<Record>* records,
                       const xks::Database& union_db) {
  std::map<size_t, std::vector<Record*>> walks;
  for (Record& record : *records) walks[record.session].push_back(&record);
  std::vector<std::vector<Record*>> ordered;
  for (auto& [session, pages] : walks) {
    std::sort(pages.begin(), pages.end(), [](const Record* a, const Record* b) {
      return a->page < b->page;
    });
    ordered.push_back(std::move(pages));
  }
  Tally tally;
  (void)xks::ParallelFor(ordered.size(), [&](size_t w) {
    std::string union_cursor;
    for (Record* record : ordered[w]) {
      if (!record->ok()) break;  // the walk ended here; failures count apart
      xks::SearchRequest request = ReferenceRequest(record->request);
      request.cursor = union_cursor;
      xks::Result<xks::SearchResponse> expected = union_db.Search(request);
      if (!expected.ok()) {
        tally.Add(false, Describe(*record, expected.status().ToString()));
        break;
      }
      union_cursor = expected.value().next_cursor;
      record->correct = SameBytes(std::move(expected).value(), *record, true);
      tally.Add(record->correct, Describe(*record, "reply bytes differ"));
    }
    return xks::Status::OK();
  });
  return tally.Take();
}

}  // namespace perfbench
