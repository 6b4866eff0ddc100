#include "perfbench/stack.h"

#include <utility>
#include <vector>

#include "perfbench/util.h"
#include "src/coord/shard_map.h"
#include "src/server/client.h"
#include "src/xml/writer.h"

namespace perfbench {

xks::Result<xks::Database> LoadBuilt(const std::string& path) {
  XKS_ASSIGN_OR_RETURN(xks::Database db, xks::Database::Load(path));
  if (!db.built()) XKS_RETURN_IF_ERROR(db.Build());
  return db;
}

xks::Result<CorpusFiles> PrepareCorpus(const WorkloadSpec& spec, uint64_t seed,
                                       const std::string& dir,
                                       bool with_shards) {
  const std::vector<DocSpec> docs = CorpusDocs(spec, seed);
  CorpusFiles files;
  files.documents = docs.size();
  files.shard0_documents = docs.size() / 2;
  const std::string stem =
      dir + "/" + spec.name + "-" + std::to_string(seed);
  files.whole = stem + ".xks";
  files.shards = {stem + "-shard0.xks", stem + "-shard1.xks"};

  xks::Database whole;
  std::array<xks::Database, 2> shards;
  size_t xml_bytes = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    const xks::Document doc = GenerateDoc(docs[d]);
    xml_bytes += xks::WriteXml(doc).size();
    XKS_RETURN_IF_ERROR(whole.AddDocument(docs[d].name, doc).status());
    if (with_shards) {
      xks::Database& shard = shards[d < files.shard0_documents ? 0 : 1];
      XKS_RETURN_IF_ERROR(shard.AddDocument(docs[d].name, doc).status());
    }
  }
  files.xml_mb = static_cast<double>(xml_bytes) / (1024.0 * 1024.0);
  XKS_RETURN_IF_ERROR(whole.Build());
  XKS_RETURN_IF_ERROR(whole.Save(files.whole));
  if (with_shards) {
    for (size_t s = 0; s < 2; ++s) {
      XKS_RETURN_IF_ERROR(shards[s].Build());
      XKS_RETURN_IF_ERROR(shards[s].Save(files.shards[s]));
    }
  }
  return files;
}

namespace {

/// Calls `probe` until it succeeds (a server that just started may still
/// be sweeping its roster).
xks::Status FirstReply(uint16_t port, const xks::SearchRequest& probe) {
  XKS_ASSIGN_OR_RETURN(xks::XksClient client,
                       xks::XksClient::Connect("127.0.0.1", port, 5000));
  xks::Status last = xks::Status::OK();
  for (int attempt = 0; attempt < 50; ++attempt) {
    XKS_ASSIGN_OR_RETURN(xks::XksClient::Reply reply, client.Call(probe));
    if (reply.outcome.ok()) return xks::Status::OK();
    last = reply.outcome.status();
  }
  return last;
}

}  // namespace

xks::Result<std::unique_ptr<Stack>> StartStack(const WorkloadSpec& spec,
                                               const CorpusFiles& files,
                                               const xks::SearchRequest& probe,
                                               double* setup_s,
                                               double* load_s) {
  auto stack = std::make_unique<Stack>();
  const Clock::time_point start = Clock::now();
  double loading_ms = 0;
  if (spec.topology == Topology::kSingleNode) {
    const Clock::time_point load_start = Clock::now();
    XKS_ASSIGN_OR_RETURN(stack->db, LoadBuilt(files.whole));
    loading_ms += MsSince(load_start);
    stack->server =
        std::make_unique<xks::XksServer>(&stack->db, xks::ServerConfig{});
    XKS_RETURN_IF_ERROR(stack->server->Start());
  } else {
    std::vector<xks::ShardInfo> roster;
    for (size_t s = 0; s < 2; ++s) {
      const Clock::time_point load_start = Clock::now();
      XKS_ASSIGN_OR_RETURN(stack->shard_db[s], LoadBuilt(files.shards[s]));
      loading_ms += MsSince(load_start);
      stack->shard_server[s] = std::make_unique<xks::XksServer>(
          &stack->shard_db[s], xks::ServerConfig{});
      XKS_RETURN_IF_ERROR(stack->shard_server[s]->Start());
      xks::ShardInfo shard;
      shard.host = "127.0.0.1";
      shard.port = stack->shard_server[s]->port();
      shard.first_id =
          static_cast<xks::DocumentId>(s == 0 ? 0 : files.shard0_documents);
      shard.last_id = static_cast<xks::DocumentId>(
          (s == 0 ? files.shard0_documents : files.documents) - 1);
      roster.push_back(shard);
    }
    XKS_ASSIGN_OR_RETURN(xks::ShardMap map, xks::ShardMap::Of(roster));
    stack->coordinator = std::make_unique<xks::Coordinator>(
        std::move(map), xks::CoordinatorConfig{});
    XKS_RETURN_IF_ERROR(stack->coordinator->RefreshRoster(xks::CancelToken()));
    stack->backend = std::make_unique<xks::CoordBackend>(
        stack->coordinator.get(), xks::CoordBackendConfig{});
    stack->server = std::make_unique<xks::XksServer>(stack->backend.get(),
                                                     xks::ServerConfig{});
    XKS_RETURN_IF_ERROR(stack->server->Start());
  }
  XKS_RETURN_IF_ERROR(FirstReply(stack->port(), probe));
  *setup_s = MsSince(start) / 1000.0;
  *load_s = loading_ms / 1000.0;
  return stack;
}

}  // namespace perfbench
