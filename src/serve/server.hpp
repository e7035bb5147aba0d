// serve::Server — the concurrent batch-synthesis service core.
//
//   transports (socket / file queue / in-process)
//        │  WireRequest
//        ▼
//   fair-share admission (FairShareQueue: per-client in-flight caps,
//        │   backlog bound, deadline-aware rejection)
//        ▼
//   exec::ThreadPool::shared() workers ──► Pipeline::submit(Request)
//        │                                   (process-wide MemoCache keyed
//        │                                    on the (F,D,R) spec makes
//        ▼                                    repeated controllers warm)
//   Response  ──► journal (BatchRunner-parity JSONL) ──► completion
//                 callback (transport writes the NDJSON response)
//
// The server owns one Pipeline (and through it at most one obs::Session,
// labelled, so concurrent submits never race on the session label); every
// request runs through Pipeline::submit, so the full Error-taxonomy /
// deadline machinery of the checked path applies per-request.  Graceful
// drain: stop admitting, reject everything still queued (message prefix
// "draining" — transports restore those requests), wait for in-flight
// work, leaving a journal a later server OR a serial BatchRunner can
// resume from.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "nshot/batch.hpp"
#include "nshot/pipeline.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"

namespace nshot::serve {

struct ServeOptions {
  /// Base pipeline configuration; per-request overrides layer over it.
  PipelineOptions pipeline;
  AdmissionOptions admission;
  /// JSONL journal (same line format as BatchRunner): completed requests
  /// are skipped on restart, and a BatchRunner pointed at the same file
  /// resumes the same prefix.  Empty disables journaling.
  std::string journal_path;
  /// obs session label (non-empty: concurrent submits must not race on
  /// the first-run-names-the-session convenience).
  std::string label = "serve";
};

struct ServeStats {
  long accepted = 0;
  long rejected = 0;   // never run: unparsable, admission-rejected or drain-evicted
  long completed = 0;  // terminal responses from executed requests
  long failed = 0;     // completed with !outcome.ok()
  long resumed = 0;    // answered from the journal without executing
  int queued = 0;
  int inflight = 0;
  double service_estimate_ms = 0.0;
  long memo_hits = 0;  // process-wide (F,D,R) minimization cache
  long memo_misses = 0;

  std::string to_json() const;
};

class Server {
 public:
  using ResponseCallback = std::function<void(const Response&)>;

  explicit Server(ServeOptions options);
  ~Server();  // drains

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit a request; `done` fires exactly once with the terminal
  /// Response — immediately (admission rejection) or from a worker
  /// thread after execution.  The callback must not block.
  void enqueue(const WireRequest& wire, ResponseCallback done);

  /// Future-flavored convenience over the callback form.
  std::future<Response> enqueue(const WireRequest& wire);

  /// The journal line of a previous incarnation's terminal result for
  /// `id`, empty when none.
  std::string journaled(const std::string& id) const;

  /// Resume parity with BatchRunner, for every transport: when `id` is
  /// journaled, count it as resumed and return the wire answer — its
  /// terminal verdict with "resumed":true and no timing, since nothing
  /// ran.  Empty when `id` is not journaled: the transport enqueues it.
  std::string resume(const std::string& id);

  /// Count a request the transport could not parse (parse_request threw
  /// `message`) as rejected, and return its input_invalid response.
  Response reject_unparsable(const std::string& id, const std::string& message);

  /// Graceful drain: stop admitting, complete every queued request with a
  /// "draining" rejection, wait for in-flight requests to finish (their
  /// results are journaled normally).  Idempotent.
  void drain();
  bool draining() const;

  ServeStats stats() const;

  /// Observability pass-throughs of the owned pipeline session.
  std::string report_json() const;
  std::string trace_json() const;

 private:
  struct Job {
    WireRequest wire;
    ResponseCallback done;
  };

  void pump_locked();
  void run_job(Ticket ticket, std::shared_ptr<Job> job);
  void finish_rejected(const std::shared_ptr<Job>& job, const std::string& id, ErrorCode code,
                       const std::string& message);

  ServeOptions options_;
  Pipeline pipeline_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  FairShareQueue queue_;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;  // queued payloads by seq
  std::uint64_t next_seq_ = 1;
  int running_ = 0;  // dispatched jobs whose completion callback hasn't returned
  std::map<std::string, std::string> journaled_;  // id -> terminal line
  std::unique_ptr<std::ofstream> journal_out_;
  bool draining_ = false;
  ServeStats stats_;
};

}  // namespace nshot::serve
