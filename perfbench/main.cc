// xks_perfbench — client-seen search latency through xksd and xks_coord.
//
//   xks_perfbench --workload warm-lone --seed 1 --seconds 30 --trace 0
//       [--data-dir DIR] [--ladder]
//
// Generates the workload's corpus and request stream from the seed, hosts
// the servers in-process (stack.h), sets them up, warms them, then drives
// the open-loop schedule (loadgen.h) in chunks with a timed set-up of a
// spare stack after each, and checks every reply against the library
// (check.h).
// --trace 0 reports the end-to-end metrics;
// --trace 1 runs the per-layer probes instead (probes.h). Human-readable
// report lines come first; the last stdout line is the JSON result.
// --ladder climbs the workload's fixed rate ladder instead.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/check.h"
#include "perfbench/loadgen.h"
#include "perfbench/probes.h"
#include "perfbench/report.h"
#include "perfbench/stack.h"
#include "perfbench/util.h"
#include "perfbench/workloads.h"
#include "src/common/mutex.h"
#include "src/xml/parser.h"
#include "src/xml/writer.h"

namespace perfbench {
namespace {

/// The timed schedule runs in equal chunks of about kChunkSeconds, and
/// after each chunk a spare stack is set up, timed and torn down while the
/// serving stack idles, so a run's measurements are spread over its whole
/// length. On a shared host other tenants' load slows stretches of a run,
/// and the least disturbed stretch is the figure that repeats:
/// first_page_p50_ms is the first-page median of the fastest chunk and
/// setup_s the fastest set-up. Beside a writer each chunk starts its own
/// writer, so every chunk holds the same number of writes (one, at churn's
/// 0.5 writes/s).
constexpr double kChunkSeconds = 2.0;
/// Set-ups of the serving stack before the warm-up; the spares add one per
/// chunk.
constexpr size_t kSetupsBefore = 3;
constexpr size_t kMinChunkSamples = 20;
constexpr size_t kReplacementPool = 8;
/// The generator's own bound: a run whose p99 send lag exceeds it is
/// flagged as invalid in the report.
constexpr double kSendLagBoundMs = 5.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool ladder = false;
  std::string data_dir = ".bench_build/perfbench-data";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ladder") {
      args->ladder = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value);
    } else if (arg == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--data-dir") {
      args->data_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Refuses builds whose timings would not describe a deployment.
bool BuildIsMeasurable(std::string* why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
  const std::string type = XKS_PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' (need Release or RelWithDebInfo)";
    return false;
  }
  return true;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The churn writer: ReplaceDocument at a fixed rate, each with a freshly
/// parsed document, publishing one epoch per write.
class ChurnWriter {
 public:
  ChurnWriter(xks::Database* db, std::vector<std::string> pool,
              std::vector<std::string> names, double rate, double seconds)
      : db_(db),
        pool_(std::move(pool)),
        names_(std::move(names)),
        rate_(rate),
        seconds_(seconds) {
    Remember(db_->snapshot());
  }

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  ~ChurnWriter() { Join(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  std::shared_ptr<const xks::Snapshot> SnapshotAt(uint64_t epoch) {
    xks::MutexLock lock(mutex_);
    auto it = snapshots_.find(epoch);
    return it == snapshots_.end() ? nullptr : it->second;
  }
  const Samples& write_ms() const { return write_ms_; }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  void Remember(std::shared_ptr<const xks::Snapshot> snapshot) {
    xks::MutexLock lock(mutex_);
    snapshots_[snapshot->epoch()] = std::move(snapshot);
  }

  void Loop() {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0;; ++i) {
      const double at = static_cast<double>(i) / rate_;
      if (at >= seconds_) break;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at)));
      ++attempted_;
      xks::Result<xks::Document> doc = xks::ParseXml(pool_[i % pool_.size()]);
      if (!doc.ok()) {
        ++failed_;
        continue;
      }
      const Clock::time_point write_start = Clock::now();
      const xks::Result<xks::DocumentId> replaced =
          db_->ReplaceDocument(names_[i % names_.size()], doc.value());
      const double ms = MsSince(write_start);
      if (!replaced.ok()) {
        ++failed_;
        continue;
      }
      write_ms_.Add(ms);
      Remember(db_->snapshot());
    }
  }

  xks::Database* const db_;
  const std::vector<std::string> pool_;
  const std::vector<std::string> names_;
  const double rate_;
  const double seconds_;
  xks::Mutex mutex_;
  std::map<uint64_t, std::shared_ptr<const xks::Snapshot>> snapshots_
      XKS_GUARDED_BY(mutex_);
  /// Written by the writer thread only, read after Join().
  Samples write_ms_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::thread thread_;
};

std::vector<std::string> ReplacementXml(uint64_t seed) {
  std::vector<std::string> pool;
  for (const DocSpec& doc : ReplacementDocs(seed, kReplacementPool)) {
    pool.push_back(xks::WriteXml(GenerateDoc(doc)));
  }
  return pool;
}

Phase RunPhase(const WorkloadSpec& spec, Stack* stack,
               const std::vector<Session>& sessions, double seconds,
               ChurnWriter* writer, const xks::Database* union_db) {
  Phase phase;
  LoadOptions options;
  options.duration_s = seconds;
  const Clock::time_point start = Clock::now();
  if (writer != nullptr) writer->Start();
  phase.records = RunOpenLoop(stack->port(), sessions, spec.connections,
                              options);
  if (writer != nullptr) writer->Join();
  phase.elapsed_s = MsSince(start) / 1000.0;
  if (spec.topology == Topology::kFleet) {
    phase.check = CheckFleet(&phase.records, *union_db);
  } else if (writer != nullptr) {
    phase.check = CheckSingleNode(&phase.records, [&](uint64_t epoch) {
      return writer->SnapshotAt(epoch);
    });
  } else {
    phase.check = CheckSingleNode(&phase.records, [&](uint64_t epoch) {
      std::shared_ptr<const xks::Snapshot> snapshot = stack->db.snapshot();
      return snapshot->epoch() == epoch ? snapshot : nullptr;
    });
  }
  for (const Record& record : phase.records) {
    if (!record.ok() || !record.correct) {
      if (phase.failed++ == 0 && !record.ok()) {
        phase.first_failure = record.answered ? record.status.ToString()
                                              : "no reply";
      }
      continue;
    }
    (record.page == 0 ? phase.first_page_ms : phase.next_page_ms)
        .Add(record.latency_ms());
    phase.send_lag_ms.Add(record.send_lag_ms());
  }
  return phase;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "xks_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::string why;
  if (!BuildIsMeasurable(&why)) {
    std::fprintf(stderr, "xks_perfbench: refusing to measure a %s\n",
                 why.c_str());
    return 3;
  }
  Report report(spec->name);
  report.Note("nproc=" + std::to_string(std::thread::hardware_concurrency()) +
              " build=" + XKS_PERFBENCH_BUILD_TYPE + " compiler=" +
              Compiler() + " seed=" + std::to_string(args.seed));

  // Prep (untimed): corpus files, request stream, churn replacements.
  const bool fleet = spec->topology == Topology::kFleet;
  xks::Result<CorpusFiles> files =
      PrepareCorpus(*spec, args.seed, args.data_dir, fleet || args.trace);
  if (!files.ok()) {
    std::fprintf(stderr, "xks_perfbench: prep: %s\n",
                 files.status().ToString().c_str());
    return 1;
  }
  // The corpus files are this run's alone; nothing is left behind.
  struct RemoveOnExit {
    std::vector<std::string> paths;
    ~RemoveOnExit() {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  } cleanup{{files.value().whole, files.value().shards[0],
             files.value().shards[1]}};
  const std::vector<Session> warmup = WarmupSessions(*spec, args.seed);
  const std::vector<std::string> replacements =
      spec->write_rate > 0 ? ReplacementXml(args.seed)
                           : std::vector<std::string>{};

  // One timed set-up into `*into`, replacing the stack there.
  Samples setup_s;
  Samples load_s;
  std::unique_ptr<Stack> stack;
  auto set_up = [&](std::unique_ptr<Stack>* into) -> bool {
    into->reset();
    double seconds = 0;
    double loading = 0;
    xks::Result<std::unique_ptr<Stack>> started =
        StartStack(*spec, files.value(), warmup.front().first, &seconds,
                   &loading);
    if (!started.ok()) {
      std::fprintf(stderr, "xks_perfbench: setup: %s\n",
                   started.status().ToString().c_str());
      return false;
    }
    *into = std::move(started).value();
    setup_s.Add(seconds);
    load_s.Add(loading);
    return true;
  };
  for (size_t k = 0; k < (args.trace ? 1 : kSetupsBefore); ++k) {
    if (!set_up(&stack)) return 1;
  }

  // Warm-up: every warm-up request once, closed loop.
  for (const Record& record : RunClosedLoop(stack->port(), warmup)) {
    if (!record.ok()) {
      std::fprintf(stderr, "xks_perfbench: warm-up failed: %s\n",
                   record.status.ToString().c_str());
      return 1;
    }
  }
  malloc_trim(0);
  const double rss_mb = ResidentMb();

  // The fleet's one-node reference corpus, loaded only now so rss_mb
  // describes the deployment alone.
  std::unique_ptr<xks::Database> union_db;
  if (fleet) {
    xks::Result<xks::Database> loaded = LoadBuilt(files.value().whole);
    if (!loaded.ok()) {
      std::fprintf(stderr, "xks_perfbench: reference corpus: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    union_db = std::make_unique<xks::Database>(std::move(loaded).value());
  }

  // Churn: a fresh writer per timed phase, running as long as the phase.
  std::vector<std::string> doc_names;
  for (const DocSpec& doc : CorpusDocs(*spec, args.seed)) {
    doc_names.push_back(doc.name);
  }
  auto make_writer = [&](double seconds) -> std::unique_ptr<ChurnWriter> {
    if (spec->write_rate <= 0) return nullptr;
    return std::make_unique<ChurnWriter>(&stack->db, replacements, doc_names,
                                         spec->write_rate, seconds);
  };

  if (args.ladder) {
    // sustained_qps: the highest ladder rate whose first_page_p99_ms meets
    // the workload's limit with no failed request and no growing backlog
    // (every reply in within half a second of the schedule's end).
    double sustained = 0;
    size_t step_index = 0;
    size_t attempted = 0;
    size_t failed = 0;
    size_t mismatched = 0;
    for (double step_rate : spec->ladder) {
      const std::vector<Session> sessions =
          MakeSessions(*spec, args.seed + 1000 * ++step_index, step_rate,
                       args.seconds);
      std::unique_ptr<ChurnWriter> writer = make_writer(args.seconds);
      Phase phase = RunPhase(*spec, stack.get(), sessions, args.seconds,
                             writer.get(), union_db.get());
      attempted += phase.records.size();
      failed += phase.failed;
      mismatched += phase.check.mismatched;
      const double p99 = phase.first_page_ms.Quantile(0.99);
      const bool pass = phase.failed == 0 && p99 <= spec->latency_limit_ms &&
                        phase.elapsed_s <= args.seconds + 0.5;
      report.Note("ladder rate=" + std::to_string(step_rate) +
                  " first_page_p99_ms=" + std::to_string(p99) +
                  " n=" + std::to_string(phase.first_page_ms.count()) +
                  " failed=" + std::to_string(phase.failed) +
                  " elapsed_s=" + std::to_string(phase.elapsed_s) +
                  (pass ? " pass" : " FAIL"));
      if (!pass) break;
      sustained = step_rate;
    }
    report.Metric("sustained_qps", sustained, "1/s", step_index, true);
    report.Finish(mismatched == 0 && attempted > 0, attempted, failed);
    return 0;
  }

  if (!args.trace) {
    // One stream over the whole timed span, cut by start time into chunks.
    const size_t chunks = std::max<size_t>(
        1, static_cast<size_t>(std::lround(args.seconds / kChunkSeconds)));
    const double chunk_s = args.seconds / static_cast<double>(chunks);
    const std::vector<Session> stream =
        MakeSessions(*spec, args.seed, spec->rate, args.seconds);
    size_t attempted = 0;
    size_t failed = 0;
    size_t mismatched = 0;
    std::string first_problem;
    std::string first_failure;
    Samples first_page_ms;
    Samples next_page_ms;
    Samples send_lag_ms;
    Samples write_ms;
    std::vector<double> chunk_p50_ms;  // in run order
    for (size_t k = 0; k < chunks; ++k) {
      const double from = chunk_s * static_cast<double>(k);
      std::vector<Session> sessions;
      for (const Session& session : stream) {
        if (session.start_s < from || session.start_s >= from + chunk_s) {
          continue;
        }
        sessions.push_back(session);
        sessions.back().start_s -= from;
      }
      std::unique_ptr<ChurnWriter> writer = make_writer(chunk_s);
      const Phase phase = RunPhase(*spec, stack.get(), sessions, chunk_s,
                                   writer.get(), union_db.get());
      attempted += phase.records.size();
      failed += phase.failed;
      mismatched += phase.check.mismatched;
      if (first_problem.empty()) first_problem = phase.check.first_problem;
      if (first_failure.empty()) first_failure = phase.first_failure;
      first_page_ms.Add(phase.first_page_ms);
      next_page_ms.Add(phase.next_page_ms);
      send_lag_ms.Add(phase.send_lag_ms);
      if (phase.first_page_ms.count() >= kMinChunkSamples) {
        chunk_p50_ms.push_back(phase.first_page_ms.Median());
      }
      if (writer != nullptr) {
        attempted += writer->attempted();
        failed += writer->failed();
        write_ms.Add(writer->write_ms());
        writer.reset();  // it holds snapshots of the serving stack
      }
      std::unique_ptr<Stack> spare;
      if (!set_up(&spare)) return 1;
    }
    if (chunk_p50_ms.empty()) {
      // No latency to report: never stand in a 0 for it.
      std::fprintf(stderr,
                   "xks_perfbench: no chunk of the schedule got %zu "
                   "successful first pages (%zu requests, %zu failed)\n",
                   kMinChunkSamples, attempted, failed);
      return 1;
    }
    std::string medians = "chunk first-page medians (ms):";
    for (double ms : chunk_p50_ms) medians += " " + std::to_string(ms);
    report.Note(medians);
    report.Metric("first_page_p50_ms",
                  *std::min_element(chunk_p50_ms.begin(), chunk_p50_ms.end()),
                  "ms", first_page_ms.count(), true);
    report.Metric("first_page_p90_ms", first_page_ms.Quantile(0.9), "ms",
                  first_page_ms.count(), false);
    report.Metric("first_page_p99_ms", first_page_ms.Quantile(0.99), "ms",
                  first_page_ms.count(), false);
    report.Metric("setup_s", setup_s.Quantile(0), "s", setup_s.count(), true);
    report.Metric("rss_mb", rss_mb, "MiB", 1, true);
    if (!next_page_ms.empty()) {
      report.Metric("next_page_p50_ms", next_page_ms.Median(), "ms",
                    next_page_ms.count(), false);
      report.Metric("next_page_p99_ms", next_page_ms.Quantile(0.99), "ms",
                    next_page_ms.count(), false);
    }
    if (!write_ms.empty()) {
      report.Metric("write_p50_ms", write_ms.Median(), "ms", write_ms.count(),
                    false);
      report.Metric("write_p95_ms", write_ms.Quantile(0.95), "ms",
                    write_ms.count(), false);
    }
    report.Metric("failed_frac",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "ratio", attempted, false);
    report.Metric("loadgen.send_lag_p99_ms", send_lag_ms.Quantile(0.99), "ms",
                  send_lag_ms.count(), false);
    if (send_lag_ms.Quantile(0.99) > kSendLagBoundMs) {
      report.Note("INVALID: generator fell behind its schedule (send lag "
                  "p99 above 5 ms)");
    }
    if (!first_problem.empty()) report.Note("MISMATCH: " + first_problem);
    if (!first_failure.empty()) report.Note("FAILED: " + first_failure);
    // At the nominal rate every request must succeed and match.
    report.Finish(mismatched == 0 && failed == 0, attempted, failed);
    return 0;
  }

  ProbeContext context;
  context.spec = spec;
  context.seed = args.seed;
  context.seconds = args.seconds;
  context.stack = stack.get();
  context.files = &files.value();
  context.load_s = load_s.Median();
  context.union_db = union_db.get();
  context.run_phase = [&](const std::vector<Session>& sessions,
                          double seconds) {
    std::unique_ptr<ChurnWriter> writer = make_writer(seconds);
    return RunPhase(*spec, stack.get(), sessions, seconds, writer.get(),
                    context.union_db);
  };
  return RunProbes(context, &report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--data-dir DIR] [--ladder]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
