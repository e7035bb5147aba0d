#include "serve/server.hpp"

#include <utility>

#include "exec/thread_pool.hpp"
#include "nshot/journal.hpp"
#include "nshot/synthesis.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace nshot::serve {

namespace {

/// Effective request deadline for admission: the override if present and
/// parsable, else the server's base RunConfig deadline.  Unparsable
/// values are treated as "no deadline" here — submit() will classify them
/// as kInputInvalid when the request actually runs.
double admission_deadline_ms(const PipelineOptions& base, const Request& request) {
  const auto it = request.overrides.find("deadline_ms");
  if (it == request.overrides.end()) return base.run.deadline_ms;
  try {
    return parse_double(it->second, 0, 1e9, "deadline_ms");
  } catch (const std::exception&) {
    return 0.0;
  }
}

PipelineOptions server_pipeline(const ServeOptions& options) {
  PipelineOptions pipeline = options.pipeline;
  pipeline.label = options.label;
  return pipeline;
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      pipeline_(server_pipeline(options_)),
      queue_(options_.admission) {
  journaled_ = read_journal(options_.journal_path);
  if (!options_.journal_path.empty()) {
    journal_out_ = std::make_unique<std::ofstream>(options_.journal_path, std::ios::app);
    NSHOT_REQUIRE(static_cast<bool>(*journal_out_),
                  "cannot open serve journal " + options_.journal_path);
  }
}

Server::~Server() { drain(); }

void Server::finish_rejected(const std::shared_ptr<Job>& job, const std::string& id,
                             ErrorCode code, const std::string& message) {
  // Called without the lock held: rejection callbacks run inline on the
  // rejecting thread.
  obs::count(obs::Counter::kServeRejected);
  job->done(rejection(id, code, message));
}

void Server::enqueue(const WireRequest& wire, ResponseCallback done) {
  auto job = std::make_shared<Job>(Job{wire, std::move(done)});
  Ticket ticket;
  ticket.id = wire.request.id;
  ticket.client = wire.client;
  ticket.klass = wire.request.kind.empty() ? "batch" : wire.request.kind;
  ticket.deadline_ms = admission_deadline_ms(options_.pipeline, wire.request);

  std::string reason;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_) {
      ++stats_.rejected;
      lock.unlock();
      finish_rejected(job, ticket.id, ErrorCode::kResourceExhausted,
                      "draining: server is shutting down");
      return;
    }
    ticket.seq = next_seq_++;
    if (!queue_.offer(ticket, &reason)) {
      ++stats_.rejected;
      lock.unlock();
      finish_rejected(job, ticket.id, ErrorCode::kResourceExhausted, reason);
      return;
    }
    ++stats_.accepted;
    jobs_[ticket.seq] = std::move(job);
    obs::count(obs::Counter::kServeAdmitted);
    pump_locked();
  }
}

std::future<Response> Server::enqueue(const WireRequest& wire) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  enqueue(wire, [promise](const Response& response) { promise->set_value(response); });
  return future;
}

void Server::pump_locked() {
  // Dispatch every currently runnable ticket onto the shared pool.  Must
  // be called with mutex_ held; re-entered from completion handlers, so
  // the queue keeps flowing without a dedicated dispatcher thread.
  while (std::optional<Ticket> ticket = queue_.take()) {
    const auto it = jobs_.find(ticket->seq);
    if (it == jobs_.end()) {  // evicted by a concurrent drain
      queue_.complete(ticket->client, 0.0);
      continue;
    }
    std::shared_ptr<Job> job = std::move(it->second);
    jobs_.erase(it);
    ++running_;
    exec::ThreadPool::shared().submit(
        [this, ticket = std::move(*ticket), job = std::move(job)]() mutable {
          run_job(std::move(ticket), std::move(job));
        });
  }
}

void Server::run_job(Ticket ticket, std::shared_ptr<Job> job) {
  const Response response = pipeline_.submit(job->wire.request);
  obs::count(obs::Counter::kServeCompleted);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.completed;
    if (!response.outcome.ok()) ++stats_.failed;
    if (journal_out_) {
      const BatchRunResult record = batch_result(response);
      *journal_out_ << journal_line(record) << "\n" << std::flush;
      journaled_[record.id] = journal_line(record);
    }
    queue_.complete(ticket.client, response.elapsed_ms);
    pump_locked();
  }
  job->done(response);
  // Only now does drain() consider the job finished: the transport's
  // completion callback (response file / socket write) has returned.  The
  // notify happens under the lock, so a drain() that returns (and lets the
  // Server be destroyed) cannot overlap it.
  std::lock_guard<std::mutex> lock(mutex_);
  --running_;
  idle_cv_.notify_all();
}

std::string Server::journaled(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = journaled_.find(id);
  return it == journaled_.end() ? std::string() : it->second;
}

std::string Server::resume(const std::string& id) {
  BatchRunResult record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = journaled_.find(id);
    if (it == journaled_.end()) return {};
    ++stats_.resumed;
    record = journal_result(id, it->second);
  }
  JsonWriter json;
  json.begin_object();
  json.key("id").value(record.id);
  json.key("ok").value(record.ok);
  json.key("resumed").value(true);
  if (!record.ok) {
    json.key("error").begin_object();
    json.key("code").value(error_code_name(record.code));
    json.key("stage").value(record.stage);
    json.key("message").value(record.message);
    json.end_object();
  }
  json.key("elapsed_ms").value(0.0);
  json.key("attempts").value(0);
  json.end_object();
  return json.str();
}

Response Server::reject_unparsable(const std::string& id, const std::string& message) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.rejected;
  return rejection(id, ErrorCode::kInputInvalid, message);
}

void Server::drain() {
  std::vector<std::pair<std::shared_ptr<Job>, std::string>> evicted;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    for (const Ticket& ticket : queue_.evict_queued()) {
      const auto it = jobs_.find(ticket.seq);
      if (it == jobs_.end()) continue;
      evicted.emplace_back(std::move(it->second), ticket.id);
      jobs_.erase(it);
      ++stats_.rejected;
    }
  }
  for (const auto& [job, id] : evicted)
    finish_rejected(job, id, ErrorCode::kResourceExhausted,
                    "draining: request evicted before execution");
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return queue_.inflight() == 0 && running_ == 0; });
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServeStats stats = stats_;
  stats.queued = queue_.queued();
  stats.inflight = queue_.inflight();
  stats.service_estimate_ms = queue_.service_estimate_ms();
  const core::MinimizationCacheStats memo = core::minimization_cache_stats();
  stats.memo_hits = memo.hits;
  stats.memo_misses = memo.misses;
  return stats;
}

std::string ServeStats::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("accepted").value(accepted);
  json.key("rejected").value(rejected);
  json.key("completed").value(completed);
  json.key("failed").value(failed);
  json.key("resumed").value(resumed);
  json.key("queued").value(queued);
  json.key("inflight").value(inflight);
  json.key("service_estimate_ms").value(service_estimate_ms);
  json.key("memo_hits").value(memo_hits);
  json.key("memo_misses").value(memo_misses);
  json.end_object();
  return json.str();
}

std::string Server::report_json() const { return pipeline_.report_json(); }

std::string Server::trace_json() const { return pipeline_.trace_json(); }

}  // namespace nshot::serve
