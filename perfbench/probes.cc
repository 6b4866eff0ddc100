#include "perfbench/probes.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/database.h"
#include "src/common/mutex.h"
#include "src/common/worker_pool.h"
#include "src/coord/coord_service.h"
#include "src/coord/coordinator.h"
#include "src/coord/shard_map.h"
#include "src/server/client.h"
#include "src/server/service.h"
#include "src/server/wire.h"
#include "src/storage/store.h"
#include "src/xml/parser.h"
#include "src/xml/writer.h"

namespace perfbench {
namespace {

/// Share of --seconds the open-loop phase runs for.
constexpr double kPhaseShare = 0.7;
/// Share of --seconds the socket-free service replay runs for.
constexpr double kServiceShare = 0.2;
/// Caps on the closed-loop replays (requests), each also time-bounded.
constexpr size_t kReplayCap = 400;
constexpr size_t kCoordWalkCap = 60;
/// Pages the coordinator probe walks per request, enough to reach page 10.
constexpr size_t kCoordWalkPages = 12;
/// Extra walks of fleet-walk's stream the coordinator probe makes on a
/// single-node workload, whose own queries end before page 10; only their
/// page >= 10 bytes are kept.
constexpr size_t kCoordDeepWalks = 12;
constexpr size_t kWrites = 5;
constexpr size_t kParallelForCalls = 200;
/// Seed offset: every probe stream is fresh, so one-off queries are not
/// served from entries an earlier probe filled.
constexpr uint64_t kReplayStream = 2000003;

double ToMs(uint64_t us) { return static_cast<double>(us) / 1000.0; }

/// Counters read through a kStatsRequest scrape of the serving daemon.
struct Scrape {
  uint64_t worker_tasks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
};

Scrape ScrapeStats(uint16_t port) {
  Scrape scrape;
  xks::Result<xks::XksClient> client =
      xks::XksClient::Connect("127.0.0.1", port, 5000);
  if (!client.ok()) return scrape;
  xks::Frame request;
  request.kind = xks::FrameKind::kStatsRequest;
  request.request_id = 1;
  request.body = xks::EncodeStatsRequest();
  if (!client.value().SendFrame(request).ok()) return scrape;
  xks::Result<xks::Frame> reply = client.value().ReceiveFrame();
  if (!reply.ok() || reply.value().kind != xks::FrameKind::kStatsReply) {
    return scrape;
  }
  xks::Result<xks::MetricsSnapshot> stats =
      xks::DecodeStatsReply(reply.value().body);
  if (!stats.ok()) return scrape;
  scrape.worker_tasks = stats.value().CounterTotal("xks_worker_tasks_total");
  scrape.cache_hits = stats.value().CounterTotal("xks_cache_hits_total");
  scrape.cache_misses = stats.value().CounterTotal("xks_cache_misses_total");
  scrape.cache_evictions =
      stats.value().CounterTotal("xks_cache_evictions_total");
  return scrape;
}

/// Admission counters of every backend the workload's requests pass
/// through in batches: the server itself on a single node; on a fleet the
/// shard servers (the coordinator's backend runs one query per "batch").
xks::ServiceStats BatchingStats(const Stack& stack) {
  if (stack.coordinator == nullptr) return stack.server->service_stats();
  xks::ServiceStats total;
  for (const auto& shard : stack.shard_server) {
    const xks::ServiceStats s = shard->service_stats();
    total.admitted += s.admitted;
    total.batches += s.batches;
  }
  return total;
}

std::vector<Session> FirstPages(std::vector<Session> sessions) {
  for (Session& session : sessions) session.max_pages = 1;
  return sessions;
}

/// A loopback TCP relay that counts the bytes flowing from its target back
/// to its clients — placed between the coordinator and one shard so the
/// probe can see each page's shard reply bytes.
class ByteRelay {
 public:
  explicit ByteRelay(uint16_t target_port) : target_port_(target_port) {}
  ~ByteRelay() { Stop(); }
  ByteRelay(const ByteRelay&) = delete;
  ByteRelay& operator=(const ByteRelay&) = delete;

  bool Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd_, 16) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      return false;
    }
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  uint16_t port() const { return port_; }
  uint64_t bytes_to_client() const { return bytes_to_client_.load(); }

 private:
  void AcceptLoop() {
    for (;;) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client < 0) return;  // Stop() shut the listener down
      const int target = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(target_port_);
      if (target < 0 || ::connect(target, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof(addr)) != 0) {
        ::close(client);
        if (target >= 0) ::close(target);
        continue;
      }
      xks::MutexLock lock(mutex_);
      fds_.push_back(client);
      fds_.push_back(target);
      pumps_.emplace_back([this, client, target] {
        Pump(client, target, nullptr);
      });
      pumps_.emplace_back([this, client, target] {
        Pump(target, client, &bytes_to_client_);
      });
    }
  }

  static void Pump(int from, int to, std::atomic<uint64_t>* counter) {
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(from, buffer, sizeof(buffer));
      if (n <= 0) break;
      if (counter != nullptr) *counter += static_cast<uint64_t>(n);
      for (ssize_t off = 0; off < n;) {
        const ssize_t w = ::write(to, buffer + off, n - off);
        if (w <= 0) {
          ::shutdown(from, SHUT_RDWR);
          return;
        }
        off += w;
      }
    }
    ::shutdown(to, SHUT_WR);
  }

  void Stop() {
    if (listen_fd_ < 0) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    std::vector<std::thread> pumps;
    std::vector<int> fds;
    {
      xks::MutexLock lock(mutex_);
      pumps.swap(pumps_);
      fds.swap(fds_);
    }
    for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& pump : pumps) pump.join();
    for (int fd : fds) ::close(fd);
  }

  const uint16_t target_port_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<uint64_t> bytes_to_client_{0};
  std::thread accept_thread_;
  xks::Mutex mutex_;
  std::vector<std::thread> pumps_ XKS_GUARDED_BY(mutex_);
  std::vector<int> fds_ XKS_GUARDED_BY(mutex_);
};

/// QueryBackend::Submit → done latency on the workload's schedule, with no
/// socket in between: the same admission, linger and batch fan-out the
/// server runs.
Samples ServiceReplay(xks::QueryBackend* backend,
                      const std::vector<Session>& sessions) {
  struct Done {
    xks::Mutex mutex;
    xks::CondVar cv;
    size_t outstanding XKS_GUARDED_BY(mutex) = 0;
    Samples ms XKS_GUARDED_BY(mutex);
  } done;
  const Clock::time_point start = Clock::now();
  for (const Session& session : sessions) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(session.start_s));
    std::this_thread::sleep_until(due);
    {
      xks::MutexLock lock(done.mutex);
      ++done.outstanding;
    }
    const xks::Status admitted = backend->Submit(
        session.connection, session.first, xks::CancelToken(),
        [&done, due](xks::Result<xks::SearchResponse> outcome) {
          const double ms = MsBetween(due, Clock::now());
          xks::MutexLock lock(done.mutex);
          if (outcome.ok()) done.ms.Add(ms);
          --done.outstanding;
          done.cv.NotifyAll();
        });
    if (!admitted.ok()) {
      xks::MutexLock lock(done.mutex);
      --done.outstanding;
    }
  }
  xks::MutexLock lock(done.mutex);
  while (done.outstanding > 0) done.cv.Wait(lock);
  return done.ms;
}

/// Submits `request` straight into `backend` and waits for its outcome:
/// the milliseconds to done, or a negative value if it failed.
double SubmitAndWait(xks::QueryBackend* backend,
                     const xks::SearchRequest& request) {
  struct Done {
    xks::Mutex mutex;
    xks::CondVar cv;
    bool finished XKS_GUARDED_BY(mutex) = false;
    double ms XKS_GUARDED_BY(mutex) = -1;
  } done;
  const Clock::time_point t0 = Clock::now();
  const xks::Status admitted = backend->Submit(
      0, request, xks::CancelToken(),
      [&done, t0](xks::Result<xks::SearchResponse> outcome) {
        const double ms = MsSince(t0);
        xks::MutexLock lock(done.mutex);
        if (outcome.ok()) done.ms = ms;
        done.finished = true;
        done.cv.NotifyAll();
      });
  if (!admitted.ok()) return -1;
  xks::MutexLock lock(done.mutex);
  while (!done.finished) done.cv.Wait(lock);
  return done.ms;
}

/// The first direct or nested span named `name` below `span`.
const xks::TraceSpan* FindSpan(const xks::TraceSpan& span,
                               const std::string& name) {
  for (const xks::TraceSpan& child : span.children) {
    if (child.name == name) return &child;
    if (const xks::TraceSpan* found = FindSpan(child, name)) return found;
  }
  return nullptr;
}

struct ApiReplay {
  Samples search_ms;
  std::map<std::string, double> stage_ms_sum;
  size_t queries = 0;
  double keyword_nodes_ms = 0, lca_ms = 0, rtf_ms = 0, prune_ms = 0;
  double keyword_nodes = 0, rtfs = 0;
  uint64_t raw_nodes = 0, kept_nodes = 0;
  uint64_t docs_scanned = 0, docs_from_cache = 0;
  size_t failed = 0;
};

/// Single-thread Database::Search replay with the span tree and the
/// pipeline statistics on.
ApiReplay ReplayApi(const xks::Database& db,
                    const std::vector<Session>& sessions, double budget_s) {
  ApiReplay out;
  const Clock::time_point start = Clock::now();
  for (const Session& session : sessions) {
    if (out.queries >= kReplayCap || MsSince(start) > budget_s * 1000) break;
    xks::SearchRequest request = session.first;
    request.include_trace = true;
    request.include_stats = true;
    const Clock::time_point t0 = Clock::now();
    xks::Result<xks::SearchResponse> response = db.Search(request);
    const double ms = MsSince(t0);
    if (!response.ok()) {
      ++out.failed;
      continue;
    }
    const xks::SearchResponse& r = response.value();
    ++out.queries;
    out.search_ms.Add(ms);
    if (r.trace != nullptr) {
      for (const char* stage :
           {"parse", "selection", "scan", "rank", "snippet"}) {
        const xks::TraceSpan* span = r.trace->Child(stage);
        out.stage_ms_sum[stage] += span == nullptr ? 0 : ToMs(span->duration_us);
      }
    }
    out.keyword_nodes_ms += r.timings.get_keyword_nodes_ms;
    out.lca_ms += r.timings.get_lca_ms;
    out.rtf_ms += r.timings.get_rtf_ms;
    out.prune_ms += r.timings.prune_ms;
    out.keyword_nodes += static_cast<double>(r.keyword_node_count);
    out.rtfs += static_cast<double>(r.total_hits);
    out.raw_nodes += r.pruning.raw_nodes;
    out.kept_nodes += r.pruning.kept_nodes;
    out.docs_scanned += r.documents_searched;
    out.docs_from_cache += r.documents_from_cache;
  }
  return out;
}

struct CoordReplay {
  Samples search_ms, hop_max_ms, hop_remote_ms, hop_network_ms, merge_ms;
  Samples hops;
  Samples first_page_bytes, deep_page_bytes;
  size_t failed = 0;
};

/// In-process Coordinator::Search through byte-counting relays, walking
/// each request up to kCoordWalkPages pages. `deep` walks follow
/// `sessions` and add only to deep_page_bytes.
CoordReplay ReplayCoordinator(const std::array<uint16_t, 2>& shard_ports,
                              const CorpusFiles& files,
                              const std::vector<Session>& sessions,
                              const std::vector<Session>& deep,
                              double budget_s) {
  CoordReplay out;
  std::array<std::unique_ptr<ByteRelay>, 2> relays;
  std::vector<xks::ShardInfo> roster;
  for (size_t s = 0; s < 2; ++s) {
    relays[s] = std::make_unique<ByteRelay>(shard_ports[s]);
    if (!relays[s]->Start()) {
      ++out.failed;
      return out;
    }
    xks::ShardInfo shard;
    shard.host = "127.0.0.1";
    shard.port = relays[s]->port();
    shard.first_id =
        static_cast<xks::DocumentId>(s == 0 ? 0 : files.shard0_documents);
    shard.last_id = static_cast<xks::DocumentId>(
        (s == 0 ? files.shard0_documents : files.documents) - 1);
    roster.push_back(shard);
  }
  xks::Result<xks::ShardMap> map = xks::ShardMap::Of(roster);
  if (!map.ok()) {
    ++out.failed;
    return out;
  }
  auto coordinator = std::make_unique<xks::Coordinator>(
      std::move(map).value(), xks::CoordinatorConfig{});
  if (!coordinator->RefreshRoster(xks::CancelToken()).ok()) {
    ++out.failed;
    return out;
  }
  auto relayed = [&] {
    return relays[0]->bytes_to_client() + relays[1]->bytes_to_client();
  };
  const Clock::time_point start = Clock::now();
  std::vector<std::pair<const Session*, bool>> plan;  // (walk, timed)
  for (size_t i = 0; i < sessions.size() && i < kCoordWalkCap; ++i) {
    plan.emplace_back(&sessions[i], true);
  }
  for (const Session& session : deep) plan.emplace_back(&session, false);
  for (const auto& [session, timed] : plan) {
    if (timed && MsSince(start) > budget_s * 1000) continue;
    xks::SearchRequest request = session->first;
    request.include_trace = timed;
    for (size_t page = 0; page < kCoordWalkPages; ++page) {
      const uint64_t before = relayed();
      const Clock::time_point t0 = Clock::now();
      xks::Result<xks::SearchResponse> response = coordinator->Search(request);
      const double ms = MsSince(t0);
      if (!response.ok()) {
        ++out.failed;
        break;
      }
      const double bytes = static_cast<double>(relayed() - before);
      if (timed && page == 0) out.first_page_bytes.Add(bytes);
      if (page >= 9) out.deep_page_bytes.Add(bytes);
      if (timed && page == 0 && response.value().trace != nullptr) {
        const xks::TraceSpan& root = *response.value().trace;
        const xks::TraceSpan* scatter = FindSpan(root, "scatter");
        const xks::TraceSpan* slowest = nullptr;
        size_t hops = 0;
        if (scatter != nullptr) {
          for (const xks::TraceSpan& hop : scatter->children) {
            if (hop.name != "hop") continue;
            ++hops;
            if (slowest == nullptr || hop.duration_us > slowest->duration_us) {
              slowest = &hop;
            }
          }
        }
        out.search_ms.Add(ms);
        out.hops.Add(static_cast<double>(hops));
        if (slowest != nullptr) {
          const double hop_ms = ToMs(slowest->duration_us);
          const double remote_ms = slowest->children.empty()
                                       ? 0
                                       : ToMs(slowest->children[0].duration_us);
          out.hop_max_ms.Add(hop_ms);
          out.hop_remote_ms.Add(remote_ms);
          out.hop_network_ms.Add(hop_ms - remote_ms);
          out.merge_ms.Add(ms - hop_ms);
        }
      }
      if (response.value().next_cursor.empty()) break;
      request.cursor = response.value().next_cursor;
    }
  }
  coordinator.reset();  // close the channels before the relays go
  return out;
}

struct WriteProbe {
  Samples parse_ms_per_mb, shred_ms_per_mb, publish_ms;
  size_t failed = 0;
};

/// Parse, shred and ReplaceDocument on `db`, each on fresh documents.
WriteProbe ProbeWrites(xks::Database* db, uint64_t seed,
                       const std::string& name) {
  WriteProbe out;
  for (const DocSpec& spec : ReplacementDocs(seed + kReplayStream, kWrites)) {
    const std::string xml = xks::WriteXml(GenerateDoc(spec));
    const double mb = static_cast<double>(xml.size()) / (1024.0 * 1024.0);
    Clock::time_point t0 = Clock::now();
    xks::Result<xks::Document> doc = xks::ParseXml(xml);
    const double parse_ms = MsSince(t0);
    if (!doc.ok()) {
      ++out.failed;
      continue;
    }
    t0 = Clock::now();
    const xks::ShreddedStore shredded = xks::ShreddedStore::Build(doc.value());
    const double shred_ms = MsSince(t0);
    t0 = Clock::now();
    const xks::Result<xks::DocumentId> replaced =
        db->ReplaceDocument(name, doc.value());
    const double replace_ms = MsSince(t0);
    if (!replaced.ok()) {
      ++out.failed;
      continue;
    }
    out.parse_ms_per_mb.Add(parse_ms / mb);
    out.shred_ms_per_mb.Add(shred_ms / mb);
    out.publish_ms.Add(replace_ms - shred_ms);
  }
  return out;
}

double ParallelForUs() {
  Samples us;
  for (size_t i = 0; i < kParallelForCalls; ++i) {
    const Clock::time_point t0 = Clock::now();
    const xks::Result<size_t> ran = xks::ParallelFor(
        xks::WorkerPool::DefaultParallelism(),
        [](size_t) { return xks::Status::OK(); });
    const double ms = MsSince(t0);
    if (ran.ok()) us.Add(ms * 1000.0);
  }
  return us.Median();
}

double FileMb(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return static_cast<double>(size) / (1024.0 * 1024.0);
}

double Ratio(double part, double whole) { return whole == 0 ? 0 : part / whole; }

}  // namespace

int RunProbes(const ProbeContext& context, Report* report) {
  const WorkloadSpec& spec = *context.spec;
  Stack& stack = *context.stack;
  const bool fleet = spec.topology == Topology::kFleet;
  const double phase_s = context.seconds * kPhaseShare;
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatched = 0;
  auto tally = [&](const Phase& phase) {
    attempted += phase.records.size();
    failed += phase.failed;
    mismatched += phase.check.mismatched;
  };
  auto metric = [&](const std::string& name, double value,
                    const std::string& unit, size_t samples) {
    report->Metric(name, value, unit, samples, true);
  };

  // loadgen / server / cache / common / trace: one open-loop phase with
  // counters read around it. Every other session asks for its span tree,
  // so traced and untraced requests share the same mix and host load.
  std::vector<Session> sessions =
      MakeSessions(spec, context.seed, spec.rate, phase_s);
  for (size_t i = 1; i < sessions.size(); i += 2) {
    sessions[i].first.include_trace = true;
  }
  const Scrape before = ScrapeStats(stack.port());
  const xks::ServiceStats admission_before = stack.server->service_stats();
  const xks::ServiceStats batching_before = BatchingStats(stack);
  const Phase phase = context.run_phase(sessions, phase_s);
  const Scrape after = ScrapeStats(stack.port());
  const xks::ServiceStats admission_after = stack.server->service_stats();
  const xks::ServiceStats batching_after = BatchingStats(stack);
  tally(phase);

  Samples untraced_first_ms;
  Samples traced_first_ms;
  Samples reply_bytes;
  Samples encode_us;
  Samples decode_us;
  for (const Record& record : phase.records) {
    if (!record.ok() || !record.correct) continue;
    if (record.page == 0) {
      (record.request.include_trace ? traced_first_ms : untraced_first_ms)
          .Add(record.latency_ms());
    }
    if (record.request.include_trace) continue;
    reply_bytes.Add(static_cast<double>(record.raw.size()));
    xks::Result<xks::SearchResponse> response =
        xks::DecodeSearchResponse(record.raw);
    if (!response.ok()) continue;
    Clock::time_point t0 = Clock::now();
    const std::string encoded = xks::EncodeSearchResponse(response.value());
    encode_us.Add(MsSince(t0) * 1000.0);
    const std::string request = xks::EncodeSearchRequest(record.request);
    t0 = Clock::now();
    const xks::Result<xks::SearchRequest> decoded =
        xks::DecodeSearchRequest(request);
    decode_us.Add(MsSince(t0) * 1000.0);
    if (encoded != record.raw || !decoded.ok()) ++failed;
  }
  const double queries = static_cast<double>(phase.records.size());
  const double submitted =
      static_cast<double>(admission_after.submitted - admission_before.submitted);
  const double shed = static_cast<double>(
      (admission_after.shed_overload - admission_before.shed_overload) +
      (admission_after.shed_quota - admission_before.shed_quota));
  const double lookups = static_cast<double>(
      (after.cache_hits - before.cache_hits) +
      (after.cache_misses - before.cache_misses));
  const double first_p50 = untraced_first_ms.Median();

  metric("loadgen.send_lag_p99_ms", phase.send_lag_ms.Quantile(0.99), "ms",
         phase.send_lag_ms.count());
  metric("trace.overhead_pct",
         100.0 * (Ratio(traced_first_ms.Median(), first_p50) - 1.0), "%",
         traced_first_ms.count());
  metric("server.reply_bytes.mean", reply_bytes.Mean(), "bytes",
         reply_bytes.count());
  metric("server.encode_us.p50", encode_us.Median(), "us", encode_us.count());
  metric("server.decode_us.p50", decode_us.Median(), "us", decode_us.count());
  metric("server.batch_size.mean",
         Ratio(static_cast<double>(batching_after.admitted -
                                   batching_before.admitted),
               static_cast<double>(batching_after.batches -
                                   batching_before.batches)),
         "count",
         static_cast<size_t>(batching_after.batches - batching_before.batches));
  metric("server.shed_frac", Ratio(shed, submitted), "ratio",
         static_cast<size_t>(submitted));
  metric("common.worker_tasks_per_query",
         Ratio(static_cast<double>(after.worker_tasks - before.worker_tasks),
               queries),
         "count", phase.records.size());
  metric("cache.hit_ratio",
         Ratio(static_cast<double>(after.cache_hits - before.cache_hits),
               lookups),
         "ratio", static_cast<size_t>(lookups));
  metric("cache.evictions_per_1k_queries",
         1000.0 * Ratio(static_cast<double>(after.cache_evictions -
                                            before.cache_evictions),
                        queries),
         "count", phase.records.size());
  const double parallel_for_us = ParallelForUs();
  metric("common.parallel_for_us", parallel_for_us, "us", kParallelForCalls);

  // server: a probe server with the default config fronting a backend of
  // its own over the stack's corpus (or coordinator), so the same requests
  // can go through the socket and straight into the backend.
  std::unique_ptr<xks::QueryBackend> backend;
  if (fleet) {
    backend = std::make_unique<xks::CoordBackend>(stack.coordinator.get(),
                                                  xks::CoordBackendConfig{});
  } else {
    backend =
        std::make_unique<xks::QueryService>(&stack.db, xks::ServiceConfig{});
  }
  auto probe_server =
      std::make_unique<xks::XksServer>(backend.get(), xks::ServerConfig{});
  if (!probe_server->Start().ok()) return 1;
  xks::Result<xks::XksClient> client =
      xks::XksClient::Connect("127.0.0.1", probe_server->port(), 5000);
  if (!client.ok()) return 1;
  // Closed loop, one request at a time: each request once untimed (so both
  // timed calls find the same cache state), then through the socket, then
  // straight into the backend. socket = roundtrip - service, per request.
  const std::vector<Session> replay_stream = FirstPages(
      MakeSessions(spec, context.seed + kReplayStream, spec.rate,
                   context.seconds * kServiceShare));
  const size_t pairs = std::min(replay_stream.size(), kReplayCap);
  Samples roundtrip_ms;
  Samples socket_ms;
  for (size_t i = 0; i < pairs; ++i) {
    const xks::SearchRequest& request = replay_stream[i].first;
    const bool warmed = SubmitAndWait(backend.get(), request) >= 0;
    const Clock::time_point t0 = Clock::now();
    xks::Result<xks::XksClient::Reply> reply = client.value().Call(request);
    const double roundtrip = MsSince(t0);
    const double service = SubmitAndWait(backend.get(), request);
    if (!warmed || !reply.ok() || !reply.value().outcome.ok() || service < 0) {
      ++failed;
      continue;
    }
    roundtrip_ms.Add(roundtrip);
    socket_ms.Add(roundtrip - service);
  }
  // The socket-free service on the workload's open-loop schedule.
  const Samples service_ms = ServiceReplay(
      backend.get(),
      FirstPages(MakeSessions(spec, context.seed + kReplayStream + 1,
                              spec.rate, context.seconds * kServiceShare)));
  client.value().FinishSending();
  probe_server.reset();  // drains the backend
  backend.reset();

  // api / index / lca / core: single-thread library replay.
  const xks::Database& api_db = fleet ? *context.union_db : stack.db;
  const ApiReplay api = ReplayApi(
      api_db,
      FirstPages(MakeSessions(spec, context.seed + kReplayStream + 3,
                              spec.rate, context.seconds * kServiceShare)),
      context.seconds * 0.15);
  failed += api.failed;
  const double n = static_cast<double>(api.queries);

  // coord: in-process coordinator through byte-counting relays, over the
  // fleet's shards or a two-shard split of this workload's corpus.
  std::array<std::unique_ptr<xks::XksServer>, 2> split_servers;
  std::array<xks::Database, 2> split_dbs;
  std::array<uint16_t, 2> shard_ports{};
  for (size_t s = 0; s < 2; ++s) {
    if (fleet) {
      shard_ports[s] = stack.shard_server[s]->port();
      continue;
    }
    xks::Result<xks::Database> loaded = LoadBuilt(context.files->shards[s]);
    if (!loaded.ok()) return 1;
    split_dbs[s] = std::move(loaded).value();
    split_servers[s] =
        std::make_unique<xks::XksServer>(&split_dbs[s], xks::ServerConfig{});
    if (!split_servers[s]->Start().ok()) return 1;
    shard_ports[s] = split_servers[s]->port();
  }
  std::vector<Session> walks = MakeSessions(
      spec, context.seed + kReplayStream + 2, spec.rate, context.seconds);
  std::vector<Session> deep;
  if (!fleet) {
    deep = MakeSessions(*FindWorkload("fleet-walk"),
                        context.seed + kReplayStream + 4, spec.rate,
                        context.seconds);
    deep.resize(std::min(deep.size(), kCoordDeepWalks));
  }
  const CoordReplay coord = ReplayCoordinator(
      shard_ports, *context.files, walks, deep, context.seconds * 0.15);
  failed += coord.failed;
  for (auto& server : split_servers) server.reset();

  const double api_p50 = api.search_ms.Median();
  const double search_p50 = fleet ? coord.search_ms.Median() : api_p50;
  metric("server.roundtrip_ms.p50", roundtrip_ms.Median(), "ms",
         roundtrip_ms.count());
  metric("server.service_ms.p50", service_ms.Median(), "ms",
         service_ms.count());
  metric("server.service_ms.p99", service_ms.Quantile(0.99), "ms",
         service_ms.count());
  metric("server.service_overhead_ms.p50", service_ms.Median() - search_p50,
         "ms", service_ms.count());
  metric("server.socket_ms.p50", socket_ms.Median(), "ms", socket_ms.count());
  metric("api.search_ms.p50", api_p50, "ms", api.search_ms.count());
  metric("api.search_ms.p99", api.search_ms.Quantile(0.99), "ms",
         api.search_ms.count());
  for (const char* stage : {"parse", "selection", "scan", "rank", "snippet"}) {
    metric(std::string("api.stage_") + stage + "_ms",
           Ratio(api.stage_ms_sum.count(stage) ? api.stage_ms_sum.at(stage) : 0,
                 n),
           "ms", api.queries);
  }
  metric("api.docs_scanned_per_query",
         Ratio(static_cast<double>(api.docs_scanned), n), "count",
         api.queries);
  metric("api.docs_from_cache_frac",
         Ratio(static_cast<double>(api.docs_from_cache),
               static_cast<double>(api.docs_scanned)),
         "ratio", static_cast<size_t>(api.docs_scanned));
  metric("api.load_s", context.load_s, "s", 1);
  metric("index.keyword_nodes_ms", Ratio(api.keyword_nodes_ms, n), "ms",
         api.queries);
  metric("lca.ms", Ratio(api.lca_ms, n), "ms", api.queries);
  metric("core.rtf_ms", Ratio(api.rtf_ms, n), "ms", api.queries);
  metric("core.prune_ms", Ratio(api.prune_ms, n), "ms", api.queries);
  metric("core.keyword_nodes_per_query", Ratio(api.keyword_nodes, n), "count",
         api.queries);
  metric("core.rtfs_per_query", Ratio(api.rtfs, n), "count", api.queries);
  metric("core.prune_kept_frac",
         Ratio(static_cast<double>(api.kept_nodes),
               static_cast<double>(api.raw_nodes)),
         "ratio", api.queries);
  metric("storage.corpus_mb", FileMb(context.files->whole), "MiB", 1);
  metric("coord.search_ms.p50", coord.search_ms.Median(), "ms",
         coord.search_ms.count());
  metric("coord.search_ms.p99", coord.search_ms.Quantile(0.99), "ms",
         coord.search_ms.count());
  metric("coord.hop_ms_max.p50", coord.hop_max_ms.Median(), "ms",
         coord.hop_max_ms.count());
  metric("coord.hop_remote_ms.p50", coord.hop_remote_ms.Median(), "ms",
         coord.hop_remote_ms.count());
  metric("coord.hop_network_ms.p50", coord.hop_network_ms.Median(), "ms",
         coord.hop_network_ms.count());
  metric("coord.merge_ms.p50", coord.merge_ms.Median(), "ms",
         coord.merge_ms.count());
  metric("coord.hops_per_query", coord.hops.Mean(), "count",
         coord.hops.count());
  metric("coord.shard_reply_bytes.first_page", coord.first_page_bytes.Mean(),
         "bytes", coord.first_page_bytes.count());
  metric("coord.shard_reply_bytes.page10plus", coord.deep_page_bytes.Mean(),
         "bytes", coord.deep_page_bytes.count());

  // The share of first_page_p50_ms no measured layer accounts for: what is
  // left after the library search (or the coordinator's, on a fleet), the
  // server's request decode and response encode, and the batch fan-out.
  const double attributed = search_p50 + decode_us.Median() / 1000.0 +
                            encode_us.Median() / 1000.0 +
                            parallel_for_us / 1000.0;
  metric("unattributed.first_page_p50_share",
         first_p50 <= 0 ? 0 : std::max(0.0, first_p50 - attributed) / first_p50,
         "ratio", untraced_first_ms.count());

  // xml / storage / api writes last: they publish new epochs. On a fleet
  // they run on the reference corpus, which serves no traffic.
  xks::Database* write_db = fleet ? context.union_db : &stack.db;
  const WriteProbe writes =
      ProbeWrites(write_db, context.seed, CorpusDocs(spec, context.seed)[0].name);
  failed += writes.failed;
  metric("xml.parse_ms_per_mb", writes.parse_ms_per_mb.Median(), "ms/MiB",
         writes.parse_ms_per_mb.count());
  metric("storage.shred_ms_per_mb", writes.shred_ms_per_mb.Median(), "ms/MiB",
         writes.shred_ms_per_mb.count());
  metric("api.publish_ms.p50", writes.publish_ms.Median(), "ms",
         writes.publish_ms.count());

  attempted += pairs + api.queries + api.failed + kWrites;
  // At the nominal rate every request must succeed and match.
  report->Finish(mismatched == 0 && failed == 0 && attempted > 0, attempted,
                 failed);
  return 0;
}

}  // namespace perfbench
