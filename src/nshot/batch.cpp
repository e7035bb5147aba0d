#include "nshot/batch.hpp"

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "nshot/journal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nshot {

namespace {

bool transient(ErrorCode code) {
  return code == ErrorCode::kResourceExhausted || code == ErrorCode::kDeadlineExceeded;
}

}  // namespace

BatchRunner::BatchRunner(BatchOptions options) : options_(std::move(options)) {}

std::vector<BatchEntry> BatchRunner::parse_manifest(const std::string& text) {
  std::vector<BatchEntry> entries;
  std::set<std::string> seen;
  std::istringstream stream(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const std::string line = strip_comment_and_trim(raw);
    if (line.empty()) continue;
    const std::string where = "manifest line " + std::to_string(line_no);
    const std::vector<std::string> tokens = split_ws(line);
    NSHOT_REQUIRE(tokens.size() >= 2, where + ": expected '<id> <spec> [key=value ...]'");
    BatchEntry entry;
    entry.id = tokens[0];
    entry.spec = tokens[1];
    entry.line = line_no;
    NSHOT_REQUIRE(seen.insert(entry.id).second, where + ": duplicate run id '" + entry.id + "'");
    NSHOT_REQUIRE(starts_with(entry.spec, "bench:") || starts_with(entry.spec, "file:") ||
                      starts_with(entry.spec, "gen:"),
                  where + ": spec '" + entry.spec + "' must be bench:NAME, file:PATH or gen:SEED");
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const std::size_t eq = tokens[i].find('=');
      NSHOT_REQUIRE(eq != std::string::npos && eq > 0,
                    where + ": expected key=value, got '" + tokens[i] + "'");
      const std::string key = tokens[i].substr(0, eq);
      NSHOT_REQUIRE(Request::known_override_keys().count(key) != 0,
                    where + ": unknown key '" + key + "'");
      entry.params[key] = tokens[i].substr(eq + 1);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::string BatchRunner::soak_manifest(int count, std::uint64_t base_seed,
                                       const std::string& extra_params) {
  std::ostringstream out;
  out << "# soak manifest: " << count << " generated circuits, base seed " << base_seed << "\n";
  for (int i = 0; i < count; ++i) {
    out << "gen-" << i << " gen:" << run_seed(base_seed, i);
    if (!extra_params.empty()) out << " " << extra_params;
    out << "\n";
  }
  return out.str();
}

Request BatchRunner::entry_request(const BatchEntry& entry) {
  Request request;
  request.id = entry.id;
  request.spec = entry.spec;
  request.overrides = entry.params;
  return request;
}

BatchSummary BatchRunner::run(const std::vector<BatchEntry>& entries) {
  BatchSummary summary;
  summary.total = static_cast<int>(entries.size());

  // Resume: a journal line is terminal only when complete (closing brace
  // survived the crash) and carries a status for a known id.
  const std::map<std::string, std::string> journaled = read_journal(options_.journal_path);

  std::ofstream journal_out;
  if (!options_.journal_path.empty()) {
    journal_out.open(options_.journal_path, std::ios::app);
    NSHOT_REQUIRE(static_cast<bool>(journal_out),
                  "cannot open batch journal " + options_.journal_path);
  }

  // One Pipeline for the whole batch: submit() layers each entry's
  // overrides per call, so per-run Pipelines would only add session and
  // fan-out overhead.  Batch runs never own an obs session.
  PipelineOptions base = options_.pipeline;
  base.collect_observability = false;
  Pipeline pipeline(base);

  for (const BatchEntry& entry : entries) {
    if (const auto it = journaled.find(entry.id); it != journaled.end()) {
      BatchRunResult result = journal_result(entry.id, it->second);
      ++summary.resumed;
      (result.ok ? summary.succeeded : summary.failed) += 1;
      if (!result.ok) ++summary.failures_by_code[error_code_name(result.code)];
      summary.runs.push_back(std::move(result));
      continue;
    }

    if (options_.stop_after > 0 && summary.executed >= options_.stop_after) {
      summary.stopped_early = true;
      break;
    }

    const Request request = entry_request(entry);
    const auto t0 = std::chrono::steady_clock::now();
    Response response;
    int attempts = 0;
    for (int attempt = 1;; ++attempt) {
      response = pipeline.submit(request);
      attempts = attempt;
      if (response.outcome.ok() || !transient(response.outcome.code) ||
          attempt > options_.max_retries)
        break;
      ++summary.retries;
      if (options_.backoff_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(options_.backoff_ms * attempt));
    }
    BatchRunResult result = batch_result(response);
    result.attempts = attempts;
    result.elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (options_.record_payloads) result.payload = response.payload_json();
    ++summary.executed;
    (result.ok ? summary.succeeded : summary.failed) += 1;
    if (!result.ok) ++summary.failures_by_code[error_code_name(result.code)];
    if (journal_out) journal_out << journal_line(result) << "\n" << std::flush;
    summary.runs.push_back(std::move(result));
  }
  return summary;
}

std::string BatchSummary::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("total").value(total);
  json.key("executed").value(executed);
  json.key("succeeded").value(succeeded);
  json.key("failed").value(failed);
  json.key("resumed").value(resumed);
  json.key("retries").value(retries);
  json.key("stopped_early").value(stopped_early);
  json.key("failures_by_code").begin_object();
  for (const auto& [code, count] : failures_by_code) json.key(code).value(count);
  json.end_object();
  json.key("runs").begin_array();
  for (const BatchRunResult& run : runs) {
    json.begin_object();
    json.key("id").value(run.id);
    json.key("ok").value(run.ok);
    json.key("resumed").value(run.resumed);
    json.key("attempts").value(run.attempts);
    json.key("elapsed_ms").value(run.elapsed_ms);
    if (!run.ok) {
      json.key("code").value(error_code_name(run.code));
      json.key("stage").value(run.stage);
      json.key("message").value(run.message);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

}  // namespace nshot
