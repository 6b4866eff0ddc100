#include "perfbench/workloads.h"

#include <algorithm>
#include <set>
#include <utility>

#include "perfbench/util.h"
#include "src/datagen/dblp_gen.h"
#include "src/datagen/workloads.h"
#include "src/datagen/xmark_gen.h"

namespace perfbench {
namespace {

// Rates and limits were set from seed-1 runs on a 4-core x86-64 host; see
// perfbench/README.md for the numbers behind them.
const std::vector<WorkloadSpec> kWorkloads = {
    {"warm-lone", Topology::kSingleNode, 1, 100, 5,
     {100, 200, 400, 800, 1600, 3200}, 0},
    {"cold-scan", Topology::kSingleNode, 2, 60, 60,
     {30, 60, 120, 180, 240, 300, 400, 500}, 0},
    {"fleet-walk", Topology::kFleet, 4, 80, 20, {40, 80, 160, 320, 640}, 0},
    {"churn", Topology::kSingleNode, 4, 100, 400, {50, 100, 200, 400, 800},
     0.5},
};

constexpr double kLoneDblpScale = 0.01;
constexpr size_t kLoneDocs = 4;
constexpr double kScanDblpScale = 0.015;
constexpr size_t kScanDblpDocs = 8;
constexpr double kScanXmarkScale = 0.4;
constexpr size_t kScanXmarkDocs = 6;
/// Walks continue for up to this many next_cursor pages.
constexpr size_t kMaxWalkContinuations = 20;

std::string JoinKeywords(const std::vector<std::string>& keywords) {
  std::string text;
  for (const std::string& word : keywords) {
    if (!text.empty()) text += ' ';
    text += word;
  }
  return text;
}

xks::SearchRequest TextRequest(const std::vector<std::string>& keywords) {
  xks::SearchRequest request;
  request.query = JoinKeywords(keywords);
  request.top_k = 10;
  return request;
}

/// Zipf(1) draw over n items (item 0 most popular).
size_t ZipfIndex(xks::Rng* rng, size_t n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += 1.0 / static_cast<double>(i + 1);
  double u = UniformUnit(rng) * total;
  for (size_t i = 0; i < n; ++i) {
    u -= 1.0 / static_cast<double>(i + 1);
    if (u < 0) return i;
  }
  return n - 1;
}

/// The 16 DBLP workload queries (Fig. 5a) in a seed-shuffled popularity
/// order, so each seed has its own hot set.
std::vector<xks::SearchRequest> PopularityOrderedDblpQueries(xks::Rng* rng) {
  std::vector<xks::SearchRequest> queries;
  for (const xks::WorkloadQuery& query : xks::DblpWorkload()) {
    queries.push_back(TextRequest(query.keywords));
  }
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng->Uniform(i)]);
  }
  return queries;
}

/// Queries deep enough for long walks: one or two keywords drawn from the
/// more frequent half of the DBLP keyword table.
std::vector<xks::SearchRequest> DeepWalkQueries() {
  std::vector<std::pair<uint64_t, std::string>> by_frequency;
  for (const xks::WorkloadKeyword& keyword : xks::DblpKeywords()) {
    by_frequency.emplace_back(keyword.paper_frequencies[0], keyword.word);
  }
  std::sort(by_frequency.rbegin(), by_frequency.rend());
  std::vector<xks::SearchRequest> queries;
  const size_t frequent = by_frequency.size() / 2;
  for (size_t i = 0; i < frequent; ++i) {
    queries.push_back(TextRequest({by_frequency[i].second}));
    if (i + 1 < frequent) {
      queries.push_back(
          TextRequest({by_frequency[i].second, by_frequency[i + 1].second}));
    }
  }
  return queries;
}

/// The shape of one cold-scan query: which keyword table, how many
/// keywords, ranked or not, ValidRTF or MaxMatch.
struct OneOffShape {
  bool xmark = false;
  size_t keywords = 2;
  bool rank = true;
  bool maxmatch = false;
};

/// Cold-scan shapes come in shuffled blocks holding every combination of
/// table (2) x keyword count 2-6 (5) x ranked/unranked (2) x pruning (three
/// ValidRTF, one MaxMatch) exactly once, so every seed's stream has the
/// same mix and only the keyword draws and the order vary.
class OneOffShapes {
 public:
  explicit OneOffShapes(xks::Rng* rng) : rng_(rng) {}

  OneOffShape Next() {
    if (next_ == block_.size()) Refill();
    return block_[next_++];
  }

 private:
  void Refill() {
    block_.clear();
    for (bool xmark : {false, true}) {
      for (size_t keywords = 2; keywords <= 6; ++keywords) {
        for (bool rank : {true, false}) {
          for (int pruning = 0; pruning < 4; ++pruning) {
            block_.push_back({xmark, keywords, rank, pruning == 3});
          }
        }
      }
    }
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_->Uniform(i)]);
    }
    next_ = 0;
  }

  xks::Rng* rng_;
  std::vector<OneOffShape> block_;
  size_t next_ = 0;
};

/// A one-off §5.1-style query of `shape`: keywords from one paper keyword
/// table, alternating between its low- and high-frequency halves.
std::vector<std::string> MixedFrequencyKeywords(xks::Rng* rng,
                                                const OneOffShape& shape) {
  const auto& table =
      shape.xmark ? xks::XmarkKeywords() : xks::DblpKeywords();
  std::vector<std::pair<uint64_t, std::string>> by_frequency;
  for (const xks::WorkloadKeyword& keyword : table) {
    by_frequency.emplace_back(keyword.paper_frequencies[0], keyword.word);
  }
  std::sort(by_frequency.begin(), by_frequency.end());
  const size_t half = by_frequency.size() / 2;
  std::set<size_t> picked;
  while (picked.size() < shape.keywords) {
    const bool low = picked.size() % 2 == 0;
    const size_t index = low ? rng->Uniform(half)
                             : half + rng->Uniform(by_frequency.size() - half);
    picked.insert(index);
  }
  std::vector<std::string> keywords;
  for (size_t index : picked) keywords.push_back(by_frequency[index].second);
  return keywords;
}

std::string OneOffKey(const xks::SearchRequest& request) {
  return request.query +
         (request.pruning == xks::PruningPolicy::kContributor ? "|mm" : "|v");
}

/// Draws a cold-scan request of the next shape that repeats no (keywords,
/// pruning) pair already in `seen` — unless the shape's few combinations
/// are used up (two XMark keywords allow only 42), then a repeat.
xks::SearchRequest OneOffRequest(xks::Rng* rng, OneOffShapes* shapes,
                                 std::set<std::string>* seen) {
  const OneOffShape shape = shapes->Next();
  xks::SearchRequest request;
  for (int attempt = 0; attempt < 64; ++attempt) {
    request = TextRequest(MixedFrequencyKeywords(rng, shape));
    request.rank = shape.rank;
    if (shape.maxmatch) request.pruning = xks::PruningPolicy::kContributor;
    if (seen->insert(OneOffKey(request)).second) break;
  }
  return request;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<DocSpec> CorpusDocs(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<DocSpec> docs;
  if (spec.name == "cold-scan") {
    for (size_t d = 0; d < kScanDblpDocs; ++d) {
      docs.push_back({"dblp-" + std::to_string(d), false, kScanDblpScale,
                      seed * 1000 + d});
    }
    for (size_t d = 0; d < kScanXmarkDocs; ++d) {
      docs.push_back({"xmark-" + std::to_string(d), true, kScanXmarkScale,
                      seed * 1000 + 500 + d});
    }
    return docs;
  }
  for (size_t d = 0; d < kLoneDocs; ++d) {
    docs.push_back(
        {"dblp-" + std::to_string(d), false, kLoneDblpScale, seed * 1000 + d});
  }
  return docs;
}

std::vector<DocSpec> ReplacementDocs(uint64_t seed, size_t count) {
  std::vector<DocSpec> docs;
  for (size_t i = 0; i < count; ++i) {
    docs.push_back({"", false, kLoneDblpScale, seed * 1000 + 100 + i});
  }
  return docs;
}

xks::Document GenerateDoc(const DocSpec& doc) {
  if (doc.xmark) {
    xks::XmarkOptions options;
    options.seed = doc.seed;
    options.scale = doc.scale;
    return xks::GenerateXmark(options);
  }
  xks::DblpOptions options;
  options.seed = doc.seed;
  options.scale = doc.scale;
  return xks::GenerateDblp(options);
}

std::vector<Session> MakeSessions(const WorkloadSpec& spec, uint64_t seed,
                                  double rate, double duration_s) {
  xks::Rng rng(seed * 7919 + 17);
  const std::vector<xks::SearchRequest> hot = PopularityOrderedDblpQueries(&rng);
  const std::vector<xks::SearchRequest> deep = DeepWalkQueries();
  OneOffShapes shapes(&rng);
  std::set<std::string> seen;
  if (spec.name == "cold-scan") {
    // Keep the warm-up's one-offs out of the measured stream.
    for (const Session& warm : WarmupSessions(spec, seed)) {
      seen.insert(OneOffKey(warm.first));
    }
  }
  std::vector<Session> sessions;
  double t = ExponentialGap(&rng, rate);
  for (size_t n = 0; t < duration_s; ++n, t += ExponentialGap(&rng, rate)) {
    Session session;
    session.start_s = t;
    session.connection = n % spec.connections;
    if (spec.name == "cold-scan") {
      session.first = OneOffRequest(&rng, &shapes, &seen);
    } else if (spec.name == "fleet-walk") {
      // Half the walks start from a Fig. 5a query, half from a deep one.
      session.first = rng.Uniform(2) == 0 ? hot[ZipfIndex(&rng, hot.size())]
                                          : deep[rng.Uniform(deep.size())];
      session.first.rank = rng.Uniform(2) == 0;
      session.max_pages = 1 + rng.Uniform(kMaxWalkContinuations + 1);
    } else {
      session.first = hot[ZipfIndex(&rng, hot.size())];
    }
    sessions.push_back(std::move(session));
  }
  return sessions;
}

std::vector<Session> WarmupSessions(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<Session> sessions;
  if (spec.name == "cold-scan") {
    xks::Rng rng(seed * 7919 + 29);
    OneOffShapes shapes(&rng);
    std::set<std::string> seen;
    for (size_t n = 0; n < 64; ++n) {
      Session session;
      session.connection = n % spec.connections;
      session.first = OneOffRequest(&rng, &shapes, &seen);
      sessions.push_back(std::move(session));
    }
    return sessions;
  }
  xks::Rng rng(seed * 7919 + 17);
  std::vector<xks::SearchRequest> requests = PopularityOrderedDblpQueries(&rng);
  if (spec.name == "fleet-walk") {
    for (const xks::SearchRequest& request : DeepWalkQueries()) {
      requests.push_back(request);
    }
  }
  for (const xks::SearchRequest& request : requests) {
    for (bool rank : {true, false}) {
      Session session;
      session.first = request;
      session.first.rank = rank;
      session.max_pages =
          spec.name == "fleet-walk" ? kMaxWalkContinuations + 1 : 1;
      session.connection = sessions.size() % spec.connections;
      sessions.push_back(std::move(session));
      if (spec.name != "fleet-walk") break;
    }
  }
  return sessions;
}

}  // namespace perfbench
