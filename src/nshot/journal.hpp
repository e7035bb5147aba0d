// Crash-safe JSONL run journal, shared by BatchRunner and serve::Server.
//
// One complete JSON object is appended and flushed per terminal run; a
// line without its closing brace (a mid-write crash) is ignored on
// re-read, so resuming a killed batch — or a drained server picking its
// file queue back up — skips exactly the runs that finished.  Both
// drivers write the SAME line format, which is what makes a server
// journal resumable by BatchRunner and vice versa (the serve_test drain
// test asserts this parity).
#pragma once

#include <map>
#include <string>

#include "nshot/batch.hpp"

namespace nshot {

/// Journal line for a terminal result (no trailing newline).
std::string journal_line(const BatchRunResult& result);

/// Terminal lines of a journal file, keyed by run id.  Lines that do not
/// parse as JSON (truncated tails) and lines without an id/status are
/// skipped; a missing file is an empty journal (first invocation).
std::map<std::string, std::string> read_journal(const std::string& path);

/// Decode a terminal journal line back into a (resumed) result.
BatchRunResult journal_result(const std::string& id, const std::string& line);

/// Fold a Response into the journal's record type (attempts defaults to
/// the response's own count; drivers that retry overwrite it).
BatchRunResult batch_result(const Response& response);

}  // namespace nshot
