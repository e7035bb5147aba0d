// serve::Server end to end: fair-share admission (flood vs trickle),
// deadline-aware and backlog rejection, graceful drain (no internal
// errors, journal-resume parity with BatchRunner), the file-queue
// transport, and the NDJSON protocol codecs.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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
      R"("overrides":{"seed":7,"verify_kernels":true,"deadline_ms":"1500"}})");
  EXPECT_EQ(wire.request.overrides.at("seed"), "7");
  EXPECT_EQ(wire.request.overrides.at("verify_kernels"), "1");
  EXPECT_EQ(wire.request.overrides.at("deadline_ms"), "1500");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("not json"), Error);
  EXPECT_THROW(parse_request(R"({"client":"c"})"), Error);  // no spec
  EXPECT_THROW(parse_request(R"({"client":"c","spec":"a","g_text":"b"})"), Error);
  EXPECT_THROW(parse_request(R"({"client":"c","spec":"a","bogus":1})"), Error);
  EXPECT_THROW(parse_request(R"({"client":"c","spec":"a","overrides":{"nope":1}})"), Error);
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
  for (int i = 0; i < 10; ++i)
    futures.push_back(server.enqueue(gen_request("a", "q" + std::to_string(i), 7)));
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
    const std::string id = journal_field(line, "id");
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

  {
    Server server(options);
    FileQueueOptions fq;
    fq.dir = queue.string();
    FileQueueWorker worker(fq, server);
    EXPECT_EQ(worker.scan_once(), 3);
    server.drain();  // waits for in-flight completions
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

}  // namespace
}  // namespace nshot::serve
