#include "serve/file_queue.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "util/strings.hpp"

namespace nshot::serve {

namespace fs = std::filesystem;

namespace {

const std::string kRequestSuffix = ".req.json";
const std::string kClaimSuffix = ".req.json.claimed";

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// First line of a request file (a request is one NDJSON object; tolerate
/// a trailing newline or accidental extra blank lines).  Reads at most one
/// byte past kMaxParserLine: parse_request rejects anything longer.
std::string first_line(const fs::path& path) {
  std::string text(kMaxParserLine + 1, '\0');
  std::ifstream stream(path, std::ios::binary);
  stream.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(stream.gcount()));
  return text.substr(0, text.find('\n'));
}

void write_atomic(const fs::path& path, const std::string& body) {
  const fs::path tmp = fs::path(path.string() + ".tmp");
  {
    std::ofstream out(tmp);
    out << body << "\n";
  }
  fs::rename(tmp, path);
}

bool drain_eviction(const Response& response) {
  return response.outcome.stage == "admission" &&
         starts_with(response.outcome.message, "draining");
}

}  // namespace

FileQueueWorker::FileQueueWorker(FileQueueOptions options, Server& server)
    : options_(std::move(options)), server_(server) {
  NSHOT_REQUIRE(fs::is_directory(options_.dir),
                "file-queue directory " + options_.dir + " does not exist");
  // A claim left behind by a killed worker is a request that never got a
  // response: give it back to the queue (the journal still short-circuits
  // anything that did finish).
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().string();
    if (!ends_with(name, kClaimSuffix)) continue;
    fs::rename(entry.path(), name.substr(0, name.size() - 8));  // strip ".claimed"
  }
}

void FileQueueWorker::dispatch(const std::string& request_path) {
  const fs::path claim(request_path + ".claimed");
  {
    std::error_code ec;
    fs::rename(request_path, claim, ec);
    if (ec) return;  // raced with another worker (or the file vanished)
  }
  const std::string stem =
      request_path.substr(0, request_path.size() - kRequestSuffix.size());
  const fs::path response_path(stem + ".resp.json");

  WireRequest wire;
  try {
    wire = parse_request(first_line(claim));
  } catch (const std::exception& e) {
    const std::string id = fs::path(stem).filename().string();
    write_atomic(response_path, server_.reject_unparsable(id, e.what()).to_json());
    fs::remove(claim);
    return;
  }

  if (const std::string resumed = server_.resume(wire.request.id); !resumed.empty()) {
    write_atomic(response_path, resumed);
    fs::remove(claim);
    return;
  }

  server_.enqueue(wire, [claim, request_path, response_path](const Response& response) {
    // Completion callback — runs on a worker (or the admission) thread.
    // Must not throw; filesystem failures here would otherwise tear down
    // the pool.
    std::error_code ec;
    if (drain_eviction(response)) {
      // Never ran: put the request back for the next incarnation.
      fs::rename(claim, request_path, ec);
      return;
    }
    try {
      write_atomic(response_path, response.to_json());
    } catch (const std::exception&) {
      return;  // leave the claim as the breadcrumb
    }
    fs::remove(claim, ec);
  });
}

int FileQueueWorker::scan_once() {
  std::vector<std::string> pending;
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().string();
    if (ends_with(name, kRequestSuffix)) pending.push_back(name);
  }
  std::sort(pending.begin(), pending.end());
  for (const std::string& path : pending) dispatch(path);
  return static_cast<int>(pending.size());
}

void FileQueueWorker::run(const std::atomic<bool>& stop) {
  int idle = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (scan_once() > 0) {
      idle = 0;
      continue;
    }
    ++idle;
    if (options_.idle_exit_scans > 0 && idle >= options_.idle_exit_scans &&
        server_.stats().inflight == 0 && server_.stats().queued == 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
  }
  server_.drain();
}

}  // namespace nshot::serve
