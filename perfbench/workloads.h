// The four perfbench workloads: their corpora, their request streams and
// the fixed rates they run at. Everything here is a pure function of the
// workload and the --seed argument; the program under test only ever sees
// the generated documents and requests.

#ifndef XKS_PERFBENCH_WORKLOADS_H_
#define XKS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/search_types.h"
#include "src/xml/dom.h"

namespace perfbench {

enum class Topology {
  kSingleNode,  ///< One XksServer over a Database (what xksd runs).
  kFleet,       ///< XksServer over CoordBackend over two shard XksServers.
};

struct WorkloadSpec {
  std::string name;
  Topology topology = Topology::kSingleNode;
  /// Client connections the open-loop schedule is spread over.
  size_t connections = 1;
  /// Nominal arrival rate: first pages (or walks) per second.
  double rate = 0;
  /// first_page_p99_ms limit a ladder step must meet (--ladder mode).
  double latency_limit_ms = 0;
  /// Fixed arrival rates --ladder mode climbs, ascending.
  std::vector<double> ladder;
  /// ReplaceDocument calls per second beside the reads (churn only).
  double write_rate = 0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One generated document of a workload corpus.
struct DocSpec {
  std::string name;
  bool xmark = false;
  double scale = 0;
  uint64_t seed = 0;
};

/// The workload's corpus, in global document-id order. Fleet workloads
/// split it in half: the first half is shard 0, the rest shard 1.
std::vector<DocSpec> CorpusDocs(const WorkloadSpec& spec, uint64_t seed);
xks::Document GenerateDoc(const DocSpec& doc);

/// Fresh replacement documents for churn writes (one per pool slot).
std::vector<DocSpec> ReplacementDocs(uint64_t seed, size_t count);

/// One open-loop arrival: a first page, followed — for walks — by up to
/// max_pages - 1 next_cursor pages, each sent when the previous reply
/// arrives.
struct Session {
  double start_s = 0;
  size_t connection = 0;
  xks::SearchRequest first;
  size_t max_pages = 1;
};

/// The workload's stream: Poisson arrivals at `rate` over `duration_s`.
std::vector<Session> MakeSessions(const WorkloadSpec& spec, uint64_t seed,
                                  double rate, double duration_s);

/// Requests run closed-loop before timing so caches, connections and
/// threads are warm. Never part of the measured stream.
std::vector<Session> WarmupSessions(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_WORKLOADS_H_
