#include "perfbench/loadgen.h"

#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/mutex.h"
#include "src/server/client.h"

namespace perfbench {
namespace {

/// How long past the schedule outstanding replies are waited for; requests
/// still unanswered then count as missing.
constexpr double kDrainTimeoutSeconds = 10;

/// A request ready to go out: a scheduled first page or a continuation.
struct Pending {
  size_t session = 0;
  size_t page = 0;
  Clock::time_point due;
  xks::SearchRequest request;
};

/// One client connection's shared state.
struct Connection {
  explicit Connection(xks::XksClient c) : client(std::move(c)) {}

  xks::XksClient client;
  xks::Mutex mutex;
  xks::CondVar cv;
  /// Continuations the receiver made due; the sender sends them next.
  std::deque<Pending> ready XKS_GUARDED_BY(mutex);
  /// Records of this connection; a deque so references stay valid.
  std::deque<Record> records XKS_GUARDED_BY(mutex);
  std::unordered_map<uint64_t, size_t> by_id XKS_GUARDED_BY(mutex);
  /// Sessions started whose last page has not been answered.
  size_t active XKS_GUARDED_BY(mutex) = 0;
  bool receiver_done XKS_GUARDED_BY(mutex) = false;
};

void ApplyReply(Record* record, xks::XksClient::Reply reply,
                Clock::time_point now) {
  record->done = now;
  record->answered = true;
  if (!reply.outcome.ok()) {
    record->status = reply.outcome.status();
    return;
  }
  const xks::SearchResponse& response = reply.outcome.value();
  record->raw = std::move(reply.raw_response);
  record->served_from_cache = response.served_from_cache;
  record->documents_from_cache = response.documents_from_cache;
  record->next_cursor = response.next_cursor;
  record->epoch = response.epoch;
  record->trace = response.trace;
}

void ReceiverLoop(Connection* conn, const std::vector<Session>& sessions) {
  for (;;) {
    xks::Result<xks::XksClient::Reply> reply = conn->client.Receive();
    const Clock::time_point now = Clock::now();
    if (!reply.ok()) break;  // EOF after FinishSending, or aborted
    xks::MutexLock lock(conn->mutex);
    auto it = conn->by_id.find(reply.value().request_id);
    if (it == conn->by_id.end()) continue;
    Record& record = conn->records[it->second];
    conn->by_id.erase(it);
    ApplyReply(&record, std::move(reply).value(), now);
    const Session& session = sessions[record.session];
    if (record.ok() && !record.next_cursor.empty() &&
        record.page + 1 < session.max_pages) {
      Pending next;
      next.session = record.session;
      next.page = record.page + 1;
      next.due = now;
      next.request = record.request;
      next.request.cursor = record.next_cursor;
      conn->ready.push_back(std::move(next));
    } else {
      --conn->active;
    }
    conn->cv.NotifyAll();
  }
  xks::MutexLock lock(conn->mutex);
  conn->receiver_done = true;
  conn->cv.NotifyAll();
}

void SenderLoop(Connection* conn, const std::vector<Session>& sessions,
                const std::vector<size_t>& mine, Clock::time_point start,
                const LoadOptions& options) {
  const Clock::time_point drain_deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s +
                                                kDrainTimeoutSeconds));
  size_t next = 0;
  uint64_t next_id = 1;
  bool clean = true;
  for (;;) {
    Pending pending;
    bool have = false;
    uint64_t wire_id = 0;
    {
      xks::MutexLock lock(conn->mutex);
      for (;;) {
        if (!conn->ready.empty()) {
          pending = std::move(conn->ready.front());
          conn->ready.pop_front();
          have = true;
          break;
        }
        if (conn->receiver_done) break;
        if (next < mine.size()) {
          const Session& session = sessions[mine[next]];
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(session.start_s));
          if (Clock::now() >= due) {
            pending.session = mine[next];
            pending.due = due;
            pending.request = session.first;
            ++conn->active;
            ++next;
            have = true;
            break;
          }
          conn->cv.WaitUntil(lock, due);
          continue;
        }
        if (conn->active == 0) break;
        if (Clock::now() >= drain_deadline) {
          clean = false;
          break;
        }
        conn->cv.WaitUntil(lock, drain_deadline);
      }
      if (have) {
        wire_id = next_id++;
        Record record;
        record.session = pending.session;
        record.page = pending.page;
        record.due = pending.due;
        record.request = pending.request;
        record.sent = Clock::now();
        conn->by_id[wire_id] = conn->records.size();
        conn->records.push_back(std::move(record));
      }
    }
    if (!have) break;
    const xks::Status sent = conn->client.Send(wire_id, pending.request);
    if (!sent.ok()) {
      xks::MutexLock lock(conn->mutex);
      auto it = conn->by_id.find(wire_id);
      if (it != conn->by_id.end()) {
        conn->records[it->second].status = sent;
        conn->by_id.erase(it);
        --conn->active;
      }
    }
  }
  {
    // Sessions the schedule never reached (the connection died) are
    // attempted requests that failed.
    xks::MutexLock lock(conn->mutex);
    for (; next < mine.size(); ++next) {
      Record record;
      record.session = mine[next];
      record.request = sessions[mine[next]].first;
      record.status = xks::Status::Unavailable("never sent");
      conn->records.push_back(std::move(record));
    }
  }
  if (clean) {
    conn->client.FinishSending();
  } else {
    conn->client.Abort();
  }
}

}  // namespace

std::vector<Record> RunOpenLoop(uint16_t port,
                                const std::vector<Session>& sessions,
                                size_t connections,
                                const LoadOptions& options) {
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<std::vector<size_t>> assigned(connections);
  for (size_t i = 0; i < sessions.size(); ++i) {
    assigned[sessions[i].connection % connections].push_back(i);
  }
  for (size_t c = 0; c < connections; ++c) {
    xks::Result<xks::XksClient> client =
        xks::XksClient::Connect("127.0.0.1", port, 5000);
    if (!client.ok()) return {};
    conns.push_back(std::make_unique<Connection>(std::move(client).value()));
  }
  // Leave the threads time to start before the first arrival is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    Connection* conn = conns[c].get();
    threads.emplace_back(ReceiverLoop, conn, std::cref(sessions));
    threads.emplace_back(SenderLoop, conn, std::cref(sessions),
                         std::cref(assigned[c]), start, std::cref(options));
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Record> records;
  for (auto& conn : conns) {
    xks::MutexLock lock(conn->mutex);
    for (Record& record : conn->records) records.push_back(std::move(record));
  }
  return records;
}

std::vector<Record> RunClosedLoop(uint16_t port,
                                  const std::vector<Session>& sessions) {
  std::vector<Record> records;
  xks::Result<xks::XksClient> client =
      xks::XksClient::Connect("127.0.0.1", port, 5000);
  if (!client.ok()) return records;
  for (size_t s = 0; s < sessions.size(); ++s) {
    xks::SearchRequest request = sessions[s].first;
    for (size_t page = 0; page < sessions[s].max_pages; ++page) {
      Record record;
      record.session = s;
      record.page = page;
      record.request = request;
      record.due = record.sent = Clock::now();
      xks::Result<xks::XksClient::Reply> reply = client.value().Call(request);
      if (!reply.ok()) {
        record.status = reply.status();
        records.push_back(std::move(record));
        return records;
      }
      ApplyReply(&record, std::move(reply).value(), Clock::now());
      const bool more = record.ok() && !record.next_cursor.empty();
      request.cursor = record.next_cursor;
      records.push_back(std::move(record));
      if (!more) break;
    }
  }
  return records;
}

}  // namespace perfbench
