// The servers a workload runs against, hosted inside the benchmark process
// with the same default configuration structs the xksd and xks_coord
// daemons start from (ServerConfig / ServiceConfig / CoordinatorConfig /
// CoordBackendConfig), so the benchmark measures what a default deployment
// serves — including the default 1 ms batch linger.

#ifndef XKS_PERFBENCH_STACK_H_
#define XKS_PERFBENCH_STACK_H_

#include <array>
#include <memory>
#include <string>

#include "perfbench/workloads.h"
#include "src/api/database.h"
#include "src/common/result.h"
#include "src/coord/coord_service.h"
#include "src/coord/coordinator.h"
#include "src/server/server.h"

namespace perfbench {

/// Pre-generated corpus files of one workload (benchmark prep, untimed).
struct CorpusFiles {
  /// The whole corpus in one file (single node, and the fleet's reference).
  std::string whole;
  /// The fleet split: shard 0 holds the first half of the documents.
  std::array<std::string, 2> shards;
  size_t documents = 0;
  size_t shard0_documents = 0;
  /// Generated XML bytes of the corpus.
  double xml_mb = 0;
};

/// Generates the workload corpus under `dir` and saves it; with
/// `with_shards` also writes the two shard files.
xks::Result<CorpusFiles> PrepareCorpus(const WorkloadSpec& spec, uint64_t seed,
                                       const std::string& dir,
                                       bool with_shards);

/// One running deployment. Members are declared in start order so they are
/// torn down front to back: the front server first, shard databases last.
struct Stack {
  /// Single node: the served corpus.
  xks::Database db;
  /// Fleet: the shards, their servers, the coordinator and its backend.
  std::array<xks::Database, 2> shard_db;
  std::array<std::unique_ptr<xks::XksServer>, 2> shard_server;
  std::unique_ptr<xks::Coordinator> coordinator;
  std::unique_ptr<xks::CoordBackend> backend;
  /// The server clients talk to (xksd or xks_coord).
  std::unique_ptr<xks::XksServer> server;

  uint16_t port() const { return server->port(); }
};

/// Loads the corpus file(s), builds, starts the server(s) — for a fleet
/// also the coordinator and its roster sweep — and returns once `probe`
/// got a successful reply. `*setup_s` is that whole span; `*load_s` the
/// Database::Load calls inside it.
xks::Result<std::unique_ptr<Stack>> StartStack(const WorkloadSpec& spec,
                                               const CorpusFiles& files,
                                               const xks::SearchRequest& probe,
                                               double* setup_s,
                                               double* load_s);

/// Loads a Database file and builds it if needed.
xks::Result<xks::Database> LoadBuilt(const std::string& path);

}  // namespace perfbench

#endif  // XKS_PERFBENCH_STACK_H_
