// serve::Server end to end: fair-share admission (flood vs trickle),
// deadline-aware and backlog rejection, graceful drain (no internal
// errors, journal-resume parity with BatchRunner), the file-queue and
// socket transports (including hostile clients and fd exhaustion), and
// the NDJSON protocol codecs.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nshot/batch.hpp"
#include "nshot/journal.hpp"
#include "serve/file_queue.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/json_value.hpp"
#include "util/strings.hpp"

namespace nshot::serve {
namespace {

namespace fs = std::filesystem;

/// Base server options for the tests: synthesis-only (fast), quiet.
ServeOptions quiet_serve() {
  ServeOptions options;
  options.pipeline.collect_observability = false;
  options.pipeline.verify_conformance = false;
  options.pipeline.stress_test = false;
  return options;
}

WireRequest gen_request(const std::string& client, const std::string& id, int seed) {
  WireRequest wire;
  wire.client = client;
  wire.request.id = id;
  wire.request.kind = "synthesis";
  wire.request.spec = "gen:" + std::to_string(seed);
  return wire;
}

/// Scratch directory unique to the test, wiped on construction.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("nshot_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A blocking raw connection to `path` (-1 when socket() or connect()
/// fails), for clients that misbehave in ways SocketClient cannot.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_raw(int fd, const std::string& data) {
  for (std::size_t sent = 0; sent < data.size();) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Next line from a raw connection, waiting at most `timeout`; empty on
/// timeout or EOF (so a server that never answers fails the test instead
/// of hanging it).
std::string recv_within(int fd, LineSplitter& buffer, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string line;
  while (!buffer.next(line)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd ready{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&ready, 1, static_cast<int>(left.count())) <= 0) return "";
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return "";
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return line;
}

std::string error_code_of(const std::string& response_line) {
  const JsonValue doc = parse_json(response_line, "response");
  const JsonValue* error = doc.find("error");
  return error ? error->string_or("code", "") : "";
}

/// Threads of this process (Linux).
int thread_count() {
  int threads = 0;
  for ([[maybe_unused]] const auto& task : fs::directory_iterator("/proc/self/task")) ++threads;
  return threads;
}

/// Lowers this process's soft RLIMIT_NOFILE to just above its highest
/// open descriptor plus `headroom`; restores the old limit on destruction.
class FdLimit {
 public:
  explicit FdLimit(int headroom) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    int highest = 0;
    for (const auto& entry : fs::directory_iterator("/proc/self/fd"))
      highest = std::max(highest, std::stoi(entry.path().filename().string()));
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(highest + 1 + headroom);
    ::setrlimit(RLIMIT_NOFILE, &lowered);
    ::getrlimit(RLIMIT_NOFILE, &lowered);  // what actually took effect
    soft_ = static_cast<int>(std::min<rlim_t>(lowered.rlim_cur, 1 << 20));
  }
  ~FdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  FdLimit(const FdLimit&) = delete;
  FdLimit& operator=(const FdLimit&) = delete;

  int soft() const { return soft_; }

 private:
  rlimit saved_{};
  int soft_ = 0;
};

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, RoundTripsARequestLine) {
  WireRequest wire;
  wire.client = "ci";
  wire.request.id = "r1";
  wire.request.kind = "conformance";
  wire.request.spec = "bench:chu133";
  wire.request.overrides["seed"] = "7";
  wire.request.overrides["deadline_ms"] = "2000";

  const WireRequest parsed = parse_request(request_json(wire));
  EXPECT_EQ(parsed.client, "ci");
  EXPECT_EQ(parsed.request.id, "r1");
  EXPECT_EQ(parsed.request.kind, "conformance");
  EXPECT_EQ(parsed.request.spec, "bench:chu133");
  EXPECT_EQ(parsed.request.overrides, wire.request.overrides);
}

TEST(ProtocolTest, CanonicalizesJsonOverrideValues) {
  const WireRequest wire = parse_request(
      R"({"id":"r","client":"c","spec":"bench:chu133",)"
      R"("overrides":{"seed":7,"exact":true,"deadline_ms":"1500"}})");
  EXPECT_EQ(wire.request.overrides.at("seed"), "7");
  EXPECT_EQ(wire.request.overrides.at("exact"), "1");
  EXPECT_EQ(wire.request.overrides.at("deadline_ms"), "1500");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("not json"), Error);
  EXPECT_THROW(parse_request(R"({"client":"c"})"), Error);  // no spec
  EXPECT_THROW(parse_request(R"({"client":"c","spec":"a","g_text":"b"})"), Error);
  EXPECT_THROW(parse_request(R"({"client":"c","spec":"a","bogus":1})"), Error);
  EXPECT_THROW(parse_request(R"({"client":"c","spec":"a","overrides":{"nope":1}})"), Error);
  // Over the request-size cap: rejected on length, before any parsing.
  const std::string padded =
      R"({"client":"c","spec":")" + std::string(kMaxParserLine, 'a') + R"("})";
  EXPECT_THROW(parse_request(padded), Error);
}

// Wire errors name the source file that raised them, never the build
// directory it was compiled in.
TEST(ProtocolTest, RejectionMessagesCarryNoBuildPath) {
  try {
    parse_request("{}");
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("protocol.cpp:", 0), 0u) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
  }
}

TEST(ProtocolTest, LineSplitterSplitsAcrossChunksAndCapsLines) {
  LineSplitter splitter(4);
  std::string line;
  splitter.append("ab\nc", 4);
  ASSERT_TRUE(splitter.next(line));
  EXPECT_EQ(line, "ab");
  EXPECT_FALSE(splitter.next(line));
  splitter.append("d\n\nef", 5);
  ASSERT_TRUE(splitter.next(line));
  EXPECT_EQ(line, "cd");
  ASSERT_TRUE(splitter.next(line));
  EXPECT_EQ(line, "");
  EXPECT_FALSE(splitter.next(line));
  // Over the cap: the head comes out at once, the tail is dropped up to
  // its newline, and the next line is whole again.
  splitter.append("ghi", 3);
  ASSERT_TRUE(splitter.next(line));
  EXPECT_EQ(line, "efghi");
  splitter.append("jklmnop", 7);
  EXPECT_FALSE(splitter.next(line));
  splitter.append("q\nrs\n", 6);
  ASSERT_TRUE(splitter.next(line));
  EXPECT_EQ(line, "rs");
  EXPECT_FALSE(splitter.next(line));
}

// ---------------------------------------------------------------------------
// Server core
// ---------------------------------------------------------------------------

TEST(ServerTest, ExecutesRequestsAndJournalsThem) {
  const fs::path dir = test_dir("journal");
  ServeOptions options = quiet_serve();
  options.journal_path = (dir / "journal.jsonl").string();
  {
    Server server(options);
    const Response ok = server.enqueue(gen_request("a", "good", 7)).get();
    EXPECT_TRUE(ok.outcome.ok());
    WireRequest bad;
    bad.client = "a";
    bad.request.id = "bad";
    bad.request.spec = "bench:no-such-benchmark";
    const Response failed = server.enqueue(bad).get();
    EXPECT_FALSE(failed.outcome.ok());
    EXPECT_EQ(failed.outcome.stage, "load");
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 2);
    EXPECT_EQ(stats.completed, 2);
    EXPECT_EQ(stats.failed, 1);
  }
  // A second incarnation sees both terminal lines.
  Server reborn(options);
  EXPECT_NE(reborn.journaled("good"), "");
  EXPECT_NE(reborn.journaled("bad"), "");
  EXPECT_EQ(reborn.journaled("never-ran"), "");
}

TEST(ServerTest, RejectsWhenTheBacklogIsFull) {
  ServeOptions options = quiet_serve();
  options.admission.max_inflight = 1;
  options.admission.max_queue = 2;
  Server server(options);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    const std::string id = std::string("q").append(std::to_string(i));
    futures.push_back(server.enqueue(gen_request("a", id, 7)));
  }
  int rejected = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (response.outcome.code == ErrorCode::kResourceExhausted) {
      EXPECT_EQ(response.outcome.stage, "admission");
      EXPECT_EQ(response.attempts, 0);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(server.stats().rejected, rejected);
}

// Deadline-aware rejection, at the queue level where it is deterministic:
// with a known backlog and service estimate, a deadline below the
// projected queue wait is turned away with resource_exhausted while a
// generous one is admitted.
TEST(AdmissionTest, RejectsHopelessDeadlinesUpFront) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.initial_service_ms = 1000.0;
  FairShareQueue queue(options);
  std::string reason;
  for (int i = 0; i < 4; ++i) {
    Ticket filler;
    filler.seq = static_cast<std::uint64_t>(i + 1);
    filler.id = "fill" + std::to_string(i);
    filler.client = "a";
    filler.klass = "batch";
    ASSERT_TRUE(queue.offer(filler, &reason)) << reason;
  }
  Ticket doomed;
  doomed.seq = 99;
  doomed.id = "doomed";
  doomed.client = "a";
  doomed.klass = "batch";
  doomed.deadline_ms = 1.0;  // projected wait: 4 queued x 1000 ms each
  EXPECT_FALSE(queue.offer(doomed, &reason));
  EXPECT_NE(reason.find("deadline"), std::string::npos) << reason;
  doomed.deadline_ms = 1e8;
  EXPECT_TRUE(queue.offer(doomed, &reason)) << reason;
}

// The fairness contract: a flood client saturating its share must not
// starve a trickle client.  With one worker slot the dispatch order is
// deterministic round-robin, so the trickle requests overtake the
// flood's backlog.  A plug request blocking on a FIFO holds the slot
// until every request is queued (the round-robin starts from a fully
// populated backlog), and completion order is read from the journal —
// written in dispatch-completion order under the server lock, so it is
// immune to completion-callback thread scheduling.
TEST(ServerTest, FairShareKeepsTheTrickleClientResponsive) {
  const fs::path dir = test_dir("fairshare");
  const fs::path fifo = dir / "plug.fifo";
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);

  ServeOptions options = quiet_serve();
  options.admission.max_inflight = 1;
  options.journal_path = (dir / "journal.jsonl").string();
  Server server(options);

  WireRequest plug;
  plug.client = "flood";
  plug.request.id = "plug";
  plug.request.spec = "file:" + fifo.string();  // open blocks until we write
  server.enqueue(plug, [](const Response&) {});

  std::vector<std::promise<void>> done(14);
  int slot = 0;
  auto track = [&](int slot_index) {
    return [&done, slot_index](const Response&) { done[slot_index].set_value(); };
  };
  for (int i = 0; i < 12; ++i)
    server.enqueue(gen_request("flood", "flood" + std::to_string(i), 7), track(slot++));
  for (int i = 0; i < 2; ++i)
    server.enqueue(gen_request("trickle", "trickle" + std::to_string(i), 7), track(slot++));
  {
    std::ofstream unblock(fifo);  // releases the plug; backlog is complete
    unblock << "not a valid .g file\n";
  }
  for (auto& promise : done) promise.get_future().wait();
  server.drain();

  // Completion ranks (journal order, plug excluded).
  std::vector<std::string> order;
  std::ifstream journal(options.journal_path);
  std::string line;
  while (std::getline(journal, line)) {
    const std::string id = parse_json(line, "journal line").string_or("id", "");
    if (id != "plug") order.push_back(id);
  }
  ASSERT_EQ(order.size(), 14u);
  int max_trickle = -1, max_flood = -1;
  for (int rank = 0; rank < 14; ++rank) {
    if (order[rank].rfind("trickle", 0) == 0) max_trickle = rank;
    else max_flood = rank;
  }
  // Round-robin interleaves the trickle requests with the flood instead
  // of appending them behind its 12-deep backlog: both trickle requests
  // finish in the first half, and the trickle client's worst completion
  // rank (its p99 — it only has two samples) beats the flood's.
  std::string joined;
  for (const std::string& id : order) joined += id + " ";
  EXPECT_LT(max_trickle, 7) << "trickle starved behind the flood backlog: " << joined;
  EXPECT_LT(max_trickle, max_flood) << joined;
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

// Mid-flight drain: whatever already started finishes and is journaled,
// everything still queued is evicted as resource_exhausted/"draining"
// (never internal), and a serial BatchRunner pointed at the same journal
// resumes exactly the completed prefix.
TEST(DrainTest, EvictsQueuedWorkAndKeepsJournalParityWithBatchRunner) {
  const fs::path dir = test_dir("drain");
  ServeOptions options = quiet_serve();
  options.admission.max_inflight = 1;
  options.journal_path = (dir / "journal.jsonl").string();
  Server server(options);

  // Seeds whose generated STGs all synthesize cleanly, so resume parity
  // is over an all-green batch.
  const int seeds[] = {100, 101, 102, 103, 104, 106, 107, 108};
  std::string manifest;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) {
    const std::string id = "run" + std::to_string(i);
    manifest += id + " gen:" + std::to_string(seeds[i]) + "\n";
    futures.push_back(server.enqueue(gen_request("ci", id, seeds[i])));
  }
  futures.front().wait();  // at least one request is mid/post-flight
  server.drain();

  int completed = 0, evicted = 0;
  for (auto& future : futures) {
    const Response response = future.get();
    if (response.outcome.ok()) {
      ++completed;
    } else {
      EXPECT_NE(response.outcome.code, ErrorCode::kInternal) << response.outcome.message;
      ASSERT_EQ(response.outcome.code, ErrorCode::kResourceExhausted);
      EXPECT_EQ(response.outcome.stage, "admission");
      EXPECT_EQ(response.outcome.message.rfind("draining", 0), 0u) << response.outcome.message;
      ++evicted;
    }
  }
  EXPECT_GE(completed, 1);
  EXPECT_EQ(completed + evicted, 8);
  // Post-drain submissions are turned away, not executed.
  const Response late = server.enqueue(gen_request("ci", "late", 999)).get();
  EXPECT_EQ(late.outcome.code, ErrorCode::kResourceExhausted);

  // BatchRunner resumes the server's journal: it skips exactly the
  // completed runs and finishes the evicted ones.
  BatchOptions bopt;
  bopt.pipeline = quiet_serve().pipeline;
  bopt.pipeline.verify_conformance = false;
  bopt.journal_path = options.journal_path;
  BatchRunner runner(bopt);
  const BatchSummary summary = runner.run(BatchRunner::parse_manifest(manifest));
  EXPECT_EQ(summary.total, 8);
  EXPECT_EQ(summary.resumed, completed);
  EXPECT_EQ(summary.executed, evicted);
  EXPECT_EQ(summary.succeeded, 8);
}

TEST(DrainTest, DrainIsIdempotentAndCountsRejections) {
  Server server(quiet_serve());
  server.drain();
  server.drain();
  EXPECT_TRUE(server.draining());
  const Response response = server.enqueue(gen_request("a", "r", 7)).get();
  EXPECT_EQ(response.outcome.code, ErrorCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rejected, 1);
}

// Ids and messages come from wire clients, so the journal must round-trip
// any string: a server and a BatchRunner resuming from it read back the
// exact id and failure message, and no id aliases another's line.
TEST(JournalTest, ResumesIdsAndMessagesWithQuotesBackslashesAndNewlines) {
  const fs::path dir = test_dir("journal_escapes");
  ServeOptions options = quiet_serve();
  options.journal_path = (dir / "journal.jsonl").string();
  const std::vector<std::string> ids = {"job\"1", "back\\slash", "two\nlines"};
  std::vector<Response> first;
  {
    Server server(options);
    for (const std::string& id : ids) {
      WireRequest wire;
      wire.request.id = id;
      wire.request.spec = "bench:" + id;  // fails; the message quotes the id
      first.push_back(server.enqueue(wire).get());
    }
  }
  Server reborn(options);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_FALSE(first[i].outcome.ok());
    ASSERT_NE(first[i].outcome.message.find(ids[i]), std::string::npos);
    const std::string line = reborn.journaled(ids[i]);
    ASSERT_NE(line, "") << ids[i];
    const BatchRunResult resumed = journal_result(ids[i], line);
    EXPECT_EQ(resumed.code, first[i].outcome.code);
    EXPECT_EQ(resumed.stage, first[i].outcome.stage);
    EXPECT_EQ(resumed.message, first[i].outcome.message);
  }
  EXPECT_EQ(reborn.journaled("job\\"), "");  // what a scan to the first quote reads

  BatchOptions bopt;
  bopt.pipeline = quiet_serve().pipeline;
  bopt.journal_path = options.journal_path;
  std::vector<BatchEntry> entries;
  for (const std::string& id : ids) entries.push_back(BatchEntry{id, "bench:" + id, {}});
  const BatchSummary summary = BatchRunner(bopt).run(entries);
  EXPECT_EQ(summary.resumed, 3);
  EXPECT_EQ(summary.executed, 0);
  ASSERT_EQ(summary.runs.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(summary.runs[i].id, ids[i]);
    EXPECT_EQ(summary.runs[i].message, first[i].outcome.message);
  }
}

// ---------------------------------------------------------------------------
// File-queue transport
// ---------------------------------------------------------------------------

TEST(FileQueueTest, AnswersRequestsResumesAndRestoresDrainEvictions) {
  const fs::path dir = test_dir("filequeue");
  const fs::path queue = dir / "q";
  fs::create_directories(queue);
  ServeOptions options = quiet_serve();
  options.journal_path = (dir / "journal.jsonl").string();

  auto drop = [&](const std::string& name, const std::string& line) {
    std::ofstream out(queue / (name + ".req.json"));
    out << line << "\n";
  };
  drop("a", R"({"id":"a","client":"ci","kind":"synthesis","spec":"gen:7"})");
  drop("b", R"({"id":"b","client":"ci","spec":"bench:no-such"})");
  drop("c", R"(this is not json)");
  drop("e", R"({"id":"e","client":"ci","spec":")" + std::string(4 * kMaxParserLine, 'a') + R"("})");

  {
    Server server(options);
    FileQueueOptions fq;
    fq.dir = queue.string();
    FileQueueWorker worker(fq, server);
    EXPECT_EQ(worker.scan_once(), 4);
    server.drain();  // waits for in-flight completions
    EXPECT_EQ(server.stats().rejected, 2);  // the malformed and the oversized request
  }
  auto read_response = [&](const std::string& name) {
    std::ifstream in(queue / (name + ".resp.json"));
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parse_json(buffer.str(), name);
  };
  EXPECT_TRUE(read_response("a").bool_or("ok", false));
  EXPECT_FALSE(read_response("b").bool_or("ok", true));
  const JsonValue malformed = read_response("c");
  EXPECT_FALSE(malformed.bool_or("ok", true));
  EXPECT_EQ(malformed.at("error").string_or("code", ""), "input_invalid");
  EXPECT_EQ(read_response("e").at("error").string_or("code", ""), "input_invalid");

  // Re-drop "a": the journal answers it without executing.
  fs::remove(queue / "a.resp.json");
  drop("a", R"({"id":"a","client":"ci","kind":"synthesis","spec":"gen:7"})");
  {
    Server server(options);
    FileQueueOptions fq;
    fq.dir = queue.string();
    FileQueueWorker worker(fq, server);
    EXPECT_EQ(worker.scan_once(), 1);
    EXPECT_EQ(server.stats().resumed, 1);
    EXPECT_EQ(server.stats().accepted, 0);
  }
  EXPECT_TRUE(read_response("a").bool_or("resumed", false));

  // A drain eviction restores the .req.json for the next incarnation.
  drop("d", R"({"id":"d","client":"ci","kind":"synthesis","spec":"gen:11"})");
  {
    Server server(options);
    server.drain();  // draining before the scan -> everything is evicted
    FileQueueOptions fq;
    fq.dir = queue.string();
    FileQueueWorker worker(fq, server);
    worker.scan_once();
  }
  EXPECT_TRUE(fs::exists(queue / "d.req.json"));
  EXPECT_FALSE(fs::exists(queue / "d.resp.json"));
}

// ---------------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------------

TEST(SocketTest, ServesConcurrentClientsOverTheSocket) {
  const fs::path dir = test_dir("socket");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);

  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      SocketClient client(path);
      for (int i = 0; i < 3; ++i) {
        const std::string id = "c" + std::to_string(c) + "-" + std::to_string(i);
        const std::string line = client.roundtrip(gen_request("client" + std::to_string(c), id, 7));
        const JsonValue doc = parse_json(line, "response");
        if (doc.bool_or("ok", false) && doc.string_or("id", "") == id) ++ok_count;
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  listener.stop();
  server.drain();
  EXPECT_EQ(ok_count.load(), 12);
  EXPECT_EQ(server.stats().completed, 12);
  EXPECT_EQ(server.stats().failed, 0);
}

TEST(SocketTest, StopWakesAListenerBlockedInAccept) {
  const fs::path dir = test_dir("socket_stop");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  // Let the accept thread block in accept(), then stop from another thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto stopped = std::async(std::launch::async, [&] { listener.stop(); });
  ASSERT_EQ(stopped.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  stopped.get();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_THROW(SocketClient client(path), Error);
  listener.stop();  // idempotent
  server.drain();
}


// Every connection is served by the listener's one loop thread.
TEST(SocketTest, OneLoopThreadServesEveryConnection) {
  const fs::path dir = test_dir("socket_threads");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  std::vector<std::unique_ptr<SocketClient>> clients;
  clients.push_back(std::make_unique<SocketClient>(path));
  ASSERT_NE(clients.front()->roundtrip(gen_request("a", "warm", 7)), "");  // pool is up
  const int threads = thread_count();
  for (int c = 1; c < 20; ++c) {
    clients.push_back(std::make_unique<SocketClient>(path));
    const std::string id = std::string("c").append(std::to_string(c));
    ASSERT_NE(clients.back()->roundtrip(gen_request("a", id, 7)), "");
  }
  EXPECT_EQ(thread_count(), threads);
  clients.clear();
  listener.stop();
  server.drain();
}

// A socket server restarted on the same journal answers an id the journal
// already holds as resumed instead of executing it again, as the file
// queue does.
TEST(SocketTest, ResumesJournaledIdsAcrossIncarnations) {
  const fs::path dir = test_dir("socket_resume");
  const std::string path = (dir / "serve.sock").string();
  ServeOptions options = quiet_serve();
  options.journal_path = (dir / "journal.jsonl").string();
  std::vector<std::string> answers;
  std::vector<ServeStats> stats;
  for (int incarnation = 0; incarnation < 2; ++incarnation) {
    Server server(options);
    SocketListener listener(path, server);
    {
      SocketClient client(path);
      answers.push_back(client.roundtrip(gen_request("a", "same", 7)));
    }
    listener.stop();
    server.drain();
    stats.push_back(server.stats());
  }
  const JsonValue first = parse_json(answers[0], "first answer");
  const JsonValue second = parse_json(answers[1], "second answer");
  EXPECT_TRUE(first.bool_or("ok", false)) << answers[0];
  EXPECT_FALSE(first.bool_or("resumed", false)) << answers[0];
  EXPECT_TRUE(second.bool_or("ok", false)) << answers[1];
  EXPECT_TRUE(second.bool_or("resumed", false)) << answers[1];
  EXPECT_EQ(second.string_or("id", ""), "same");
  EXPECT_EQ(stats[0].completed, 1);
  EXPECT_EQ(stats[0].resumed, 0);
  EXPECT_EQ(stats[1].accepted, 0);
  EXPECT_EQ(stats[1].completed, 0);
  EXPECT_EQ(stats[1].resumed, 1);

  std::ifstream journal(options.journal_path);
  int lines = 0;
  for (std::string line; std::getline(journal, line);)
    if (parse_json(line, "journal line").string_or("id", "") == "same") ++lines;
  EXPECT_EQ(lines, 1);
}

// Lines that fail parse_request are answered input_invalid and counted in
// the server's rejected stat, like admission rejections.
TEST(SocketTest, CountsParseRejections) {
  const fs::path dir = test_dir("socket_rejected");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  SocketClient client(path);
  for (const std::string bad : {"not json", "{}", R"({"client":"c","spec":"a","bogus":1})"}) {
    client.send_line(bad);
    EXPECT_EQ(error_code_of(client.recv_line()), "input_invalid") << bad;
  }
  EXPECT_EQ(server.stats().rejected, 3);
  listener.stop();
  server.drain();
}

// A client that half-closes after its last request (shutdown(SHUT_WR))
// still gets every response it is owed; then the server closes its end.
TEST(SocketTest, AnswersAClientThatHalfClosesAfterSending) {
  const fs::path dir = test_dir("socket_halfclose");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_raw(fd, request_json(gen_request("a", "half", 7)) + "\nnot json\n"));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  LineSplitter buffer;
  std::vector<std::string> codes;
  for (int i = 0; i < 2; ++i) {
    const std::string line = recv_within(fd, buffer, std::chrono::seconds(30));
    ASSERT_NE(line, "") << "response " << i << " never arrived";
    codes.push_back(error_code_of(line));
  }
  std::sort(codes.begin(), codes.end());
  EXPECT_EQ(codes, (std::vector<std::string>{"", "input_invalid"}));
  pollfd closed{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&closed, 1, 10000), 1) << "the server kept the connection open";
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // EOF
  ::close(fd);
  listener.stop();
  server.drain();
}

// A client that writes a flood of bad lines and never reads its responses
// must not wedge the server: the loop stops reading it once its outbound
// buffer is full, and stop() still returns promptly.
TEST(SocketTest, StopReturnsWhileAClientNeverReads) {
  const fs::path dir = test_dir("socket_unread");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  std::string block;  // whole 256-byte invalid lines
  while (block.size() < 65536) block += std::string(255, 'x') + "\n";
  std::size_t written = 0;
  while (written < (std::size_t{1} << 20)) {
    pollfd writable{fd, POLLOUT, 0};
    if (::poll(&writable, 1, 2000) <= 0) break;  // the server stopped reading
    const std::size_t at = written % block.size();
    const ssize_t n = ::send(fd, block.data() + at, block.size() - at, MSG_NOSIGNAL);
    if (n > 0) written += static_cast<std::size_t>(n);
  }
  EXPECT_GE(written, std::size_t{1} << 20);
  auto stopped = std::async(std::launch::async, [&] { listener.stop(); });
  const bool prompt = stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  ::close(fd);  // releases a server that is blocked writing to this client
  stopped.get();
  EXPECT_TRUE(prompt) << "stop() waited on a client that never reads";
  server.drain();
}

// SocketClient::pipeline interleaves sending and receiving: a batch whose
// requests and responses each pass the server's 1 MiB outbound cap
// completes, and every id comes back exactly once.  A client that sent
// everything before reading would leave both sides waiting on each other.
TEST(SocketTest, PipelinesABatchWhoseResponsesPassTheOutboundCap) {
  const fs::path dir = test_dir("socket_pipeline");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);

  // Long ids, echoed by every response, make ~5 MiB of responses.
  constexpr int kRequests = 160;
  const std::string padding(32 << 10, 'p');
  std::string requests;
  for (int i = 0; i < kRequests; ++i)
    requests += request_json(gen_request("a", std::to_string(i) + "-" + padding, 7)) + "\n";

  // The request stream arrives through a socket pair (not a pipe), so a
  // writer left behind by a failed test gets EPIPE instead of SIGPIPE.
  int input[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, input), 0);
  std::thread writer([&] {
    send_raw(input[1], requests);
    ::close(input[1]);
  });

  std::vector<int> seen(kRequests, 0);
  std::size_t response_bytes = 0;
  SocketClient client(path);
  auto done = std::async(std::launch::async, [&] {
    client.pipeline(input[0], [&](const std::string& line) {
      response_bytes += line.size();
      const JsonValue doc = parse_json(line, "response");
      const std::string id = doc.string_or("id", "");
      const int index = std::stoi(id.substr(0, id.find('-')));
      if (index >= 0 && index < kRequests && doc.bool_or("ok", false)) ++seen[index];
    });
  });
  const bool finished = done.wait_for(std::chrono::seconds(120)) == std::future_status::ready;
  if (!finished) listener.stop();  // releases the client with an error
  EXPECT_TRUE(finished) << "the pipelined batch never completed";
  EXPECT_NO_THROW(done.get());
  ::shutdown(input[0], SHUT_RDWR);  // releases a writer the client stopped reading
  writer.join();
  ::close(input[0]);

  EXPECT_GT(response_bytes, std::size_t{4} << 20);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), kRequests);
  listener.stop();
  server.drain();
  EXPECT_EQ(server.stats().completed, kRequests);
}

// One client pipelining far more requests than the server's backlog holds
// (default options: max_queue 256, 2 in flight per client) is slowed down,
// not turned away: the listener stops reading the connection while it has
// its cap of requests in the server, so every line comes back ok.
TEST(SocketTest, PipelinedBurstPastTheBacklogIsSlowedNotRejected) {
  const fs::path dir = test_dir("socket_burst");
  const std::string path = (dir / "serve.sock").string();
  const ServeOptions defaults;
  Server server(defaults);
  SocketListener listener(path, server);

  constexpr int kRequests = 5000;
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    WireRequest wire;
    wire.request.id = std::to_string(i);
    wire.request.kind = "synthesis";
    wire.request.spec = "bench:chu133";
    requests += request_json(wire) + "\n";
  }

  int input[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, input), 0);
  std::thread writer([&] {
    send_raw(input[1], requests);
    ::close(input[1]);
  });

  std::vector<int> seen(kRequests, 0);
  std::string first_failure;
  SocketClient client(path);
  auto done = std::async(std::launch::async, [&] {
    client.pipeline(input[0], [&](const std::string& line) {
      const JsonValue doc = parse_json(line, "response");
      const int index = std::stoi(doc.string_or("id", "-1"));
      if (doc.bool_or("ok", false) && index >= 0 && index < kRequests)
        ++seen[index];
      else if (first_failure.empty())
        first_failure = line;
    });
  });
  const bool finished = done.wait_for(std::chrono::seconds(120)) == std::future_status::ready;
  if (!finished) listener.stop();  // releases the client with an error
  EXPECT_TRUE(finished) << "the pipelined burst never completed";
  EXPECT_NO_THROW(done.get());
  ::shutdown(input[0], SHUT_RDWR);  // releases a writer the client stopped reading
  writer.join();
  ::close(input[0]);

  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), kRequests) << first_failure;
  listener.stop();
  server.drain();
  EXPECT_EQ(server.stats().completed, kRequests);
  EXPECT_EQ(server.stats().rejected, 0);
}

// A 4 MiB unterminated line is rejected once, as soon as it passes the
// request-size cap; its tail is dropped up to the newline, after which the
// same connection is served again, and so is a new one.
TEST(SocketTest, RejectsAnOverlongLineOnceAndKeepsServing) {
  const fs::path dir = test_dir("socket_overlong");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);
  LineSplitter buffer;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(send_raw(fd, std::string(std::size_t{4} << 20, 'x')));
  const std::string rejected = recv_within(fd, buffer, std::chrono::seconds(1));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  ASSERT_NE(rejected, "") << "no response before the newline";
  EXPECT_EQ(error_code_of(rejected), "input_invalid");

  ASSERT_TRUE(send_raw(fd, "tail\n" + request_json(gen_request("a", "after", 7)) + "\n"));
  const std::string after = recv_within(fd, buffer, std::chrono::seconds(30));
  ASSERT_NE(after, "");
  const JsonValue doc = parse_json(after, "response");
  EXPECT_EQ(doc.string_or("id", ""), "after");
  EXPECT_TRUE(doc.bool_or("ok", false)) << after;
  ::close(fd);

  SocketClient fresh(path);
  const JsonValue next = parse_json(fresh.roundtrip(gen_request("a", "fresh", 7)), "response");
  EXPECT_TRUE(next.bool_or("ok", false));
  EXPECT_EQ(server.stats().rejected, 1);
  listener.stop();
  server.drain();
}

// Closed connections give their fd back at once, and running out of fds
// only pauses accept(): with the soft fd limit lowered, twice that many
// sequential connections are answered, and after accept() has failed with
// EMFILE while the fd table is full, freeing it lets a new connection in.
TEST(SocketTest, SurvivesTheFdLimit) {
  const fs::path dir = test_dir("socket_fds");
  const std::string path = (dir / "serve.sock").string();
  Server server(quiet_serve());
  SocketListener listener(path, server);
  const std::string request = request_json(gen_request("a", "r", 7)) + "\n";
  {
    FdLimit limit(16);
    ASSERT_LT(limit.soft(), 1024) << "could not lower RLIMIT_NOFILE";
    for (int i = 0; i < 2 * limit.soft(); ++i) {
      const int fd = raw_connect(path);
      ASSERT_GE(fd, 0) << "connection " << i << " of " << 2 * limit.soft();
      LineSplitter buffer;
      ASSERT_TRUE(send_raw(fd, request));
      const std::string reply = recv_within(fd, buffer, std::chrono::seconds(10));
      ::close(fd);
      ASSERT_NE(reply, "") << "connection " << i << " of " << 2 * limit.soft() << " unanswered";
    }

    // Hold two answered connections, fill the rest of the fd table, and
    // leave one connection pending in the backlog: accept() hits EMFILE.
    std::vector<int> held;
    for (int i = 0; i < 2; ++i) {
      held.push_back(raw_connect(path));
      ASSERT_GE(held.back(), 0);
      LineSplitter buffer;
      ASSERT_TRUE(send_raw(held.back(), request));
      ASSERT_NE(recv_within(held.back(), buffer, std::chrono::seconds(10)), "");
    }
    std::vector<int> filler;
    for (int fd; (fd = ::dup(held.front())) >= 0;) filler.push_back(fd);
    ASSERT_EQ(errno, EMFILE);
    ::close(filler.back());
    filler.pop_back();
    held.push_back(raw_connect(path));  // reuses the freed fd; the server cannot accept it
    ASSERT_GE(held.back(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    for (const int fd : filler) ::close(fd);
    for (const int fd : held) ::close(fd);

    const int fd = raw_connect(path);
    ASSERT_GE(fd, 0);
    LineSplitter buffer;
    ASSERT_TRUE(send_raw(fd, request));
    EXPECT_NE(recv_within(fd, buffer, std::chrono::seconds(10)), "")
        << "the listener stopped accepting after EMFILE";
    ::close(fd);
  }
  listener.stop();
  server.drain();
}

}  // namespace
}  // namespace nshot::serve
