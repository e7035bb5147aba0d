#include "nshot/journal.hpp"

#include <fstream>

#include "util/json.hpp"
#include "util/json_value.hpp"

namespace nshot {

std::string journal_line(const BatchRunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("id").value(result.id);
  json.key("status").value(result.ok ? "ok" : "failed");
  if (!result.ok) {
    json.key("code").value(error_code_name(result.code));
    json.key("stage").value(result.stage);
    json.key("message").value(result.message);
  }
  json.key("attempts").value(result.attempts);
  json.key("elapsed_ms").value(result.elapsed_ms);
  if (result.kernel_fallbacks > 0) json.key("kernel_fallbacks").value(result.kernel_fallbacks);
  json.end_object();
  return json.str();
}

std::map<std::string, std::string> read_journal(const std::string& path) {
  std::map<std::string, std::string> journaled;
  if (path.empty()) return journaled;
  std::ifstream journal(path);
  std::string line;
  while (journal && std::getline(journal, line)) {
    try {
      const JsonValue record = parse_json(line, "journal line");
      const std::string id = record.string_or("id", "");
      if (!id.empty() && !record.string_or("status", "").empty()) journaled[id] = line;
    } catch (const Error&) {  // a truncated tail (mid-write crash): not terminal
    }
  }
  return journaled;
}

BatchRunResult journal_result(const std::string& id, const std::string& line) {
  const JsonValue record = parse_json(line, "journal line");
  BatchRunResult result;
  result.id = id;
  result.resumed = true;
  result.ok = record.string_or("status", "") == "ok";
  if (!result.ok) {
    result.code = error_code_from_name(record.string_or("code", ""));
    result.stage = record.string_or("stage", "");
    result.message = record.string_or("message", "");
  }
  return result;
}

BatchRunResult batch_result(const Response& response) {
  BatchRunResult result;
  result.id = response.id;
  result.ok = response.outcome.ok();
  result.attempts = response.attempts;
  result.elapsed_ms = response.elapsed_ms;
  if (result.ok) {
    result.kernel_fallbacks = static_cast<int>(response.outcome.run->kernel_fallbacks.size());
  } else {
    result.code = response.outcome.code;
    result.stage = response.outcome.stage;
    result.message = response.outcome.message;
  }
  return result;
}

}  // namespace nshot
