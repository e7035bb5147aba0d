// Wire protocol of the batch server: newline-delimited JSON, one request
// object per line in, one response object per line out.
//
// Request (schemas/request.schema.json):
//   {"id":"r1","client":"ci","kind":"conformance","spec":"bench:chu133",
//    "overrides":{"seed":7,"deadline_ms":2000}}
// Exactly one of "spec" (bench:NAME | file:PATH | gen:SEED) or "g_text"
// (inline .g STG text) carries the circuit.  "client" is the fair-share
// key (defaults to "anon"); override values may be JSON strings, numbers
// or booleans — they are canonicalized to the same strings a batch
// manifest would carry.
//
// Response (schemas/response.schema.json): Response::to_json() — the
// deterministic RunOutcome payload plus elapsed_ms/attempts timing.
#pragma once

#include <string>

#include "nshot/pipeline.hpp"

namespace nshot::serve {

/// A Request plus its transport-level envelope fields.
struct WireRequest {
  std::string client = "anon";  // fair-share key
  Request request;
};

/// Parse one NDJSON request line.  Throws Error(kInputInvalid) on a line
/// longer than kMaxParserLine (util/strings.hpp), with a byte-offset
/// diagnostic on malformed JSON, on unknown keys, or on a missing /
/// ambiguous spec (spec vs g_text; deeper validation happens in submit).
WireRequest parse_request(const std::string& line);

/// Encode a request as one NDJSON line (no trailing newline) — the exact
/// inverse of parse_request; load_replay and --connect use it.
std::string request_json(const WireRequest& wire);

/// A terminal Response for a request the server never ran: admission
/// rejections (resource_exhausted) and drain evictions.  `stage` is
/// "admission".
Response rejection(const std::string& id, ErrorCode code, const std::string& message);

}  // namespace nshot::serve
