// Fair-share admission for the batch server: the pure scheduling policy,
// separated from sockets and threads so serve_test can drive it
// deterministically.
//
// Model: every request belongs to a client (the fairness key) and a class
// (its request kind — synthesis | conformance | stress | batch).  The
// queue enforces
//
//  * a global backlog bound (admission beyond it is rejected
//    resource_exhausted — backpressure instead of unbounded memory),
//  * a per-client in-flight cap: take() never lets one client occupy more
//    than `per_client_inflight` workers, no matter how deep its backlog,
//  * round-robin service across clients with FIFO order within each
//    client's class queues (a client's synthesis trickle is not stuck
//    behind its own stress flood),
//  * deadline-aware rejection: when a request carries a deadline and the
//    projected queue wait (backlog ahead / service rate, using an EWMA of
//    observed service times) already exceeds it, the request is rejected
//    resource_exhausted at admission instead of timing out a worker later.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nshot::serve {

struct AdmissionOptions {
  /// Requests executing concurrently (0 = half the shared pool's workers,
  /// at least 2 — request bodies run their own parallel_for on the same
  /// pool, so saturating it with request tasks only adds queueing).
  int max_inflight = 0;
  /// Per-client in-flight cap (fair share); at least 1.
  int per_client_inflight = 2;
  /// Global backlog bound; offers beyond it are rejected.
  int max_queue = 256;
  /// EWMA smoothing for observed service times (0..1, weight of the
  /// newest observation).
  double service_ewma_alpha = 0.2;
  /// Initial service estimate before any completion was observed.
  double initial_service_ms = 50.0;
};

/// One queued request, by id: the queue schedules ids, the server owns
/// the payloads.
struct Ticket {
  std::uint64_t seq = 0;     // admission order (FIFO key)
  std::string id;            // request id (opaque here)
  std::string client;        // fairness key
  std::string klass;         // request kind; "batch" when empty
  double deadline_ms = 0.0;  // effective request deadline (0 = none)
};

class FairShareQueue {
 public:
  explicit FairShareQueue(AdmissionOptions options);

  /// Admit `ticket` or reject it with a reason ("backlog full ...",
  /// "deadline ... projected wait ...").  Admitted tickets are queued
  /// FIFO within (client, class).
  bool offer(Ticket ticket, std::string* reason);

  /// Next ticket to run, honoring the per-client in-flight cap and
  /// round-robin across clients; nullopt when nothing is runnable (empty,
  /// or every queued client is at its cap, or max_inflight reached).
  /// The returned ticket counts as in-flight until complete() is called.
  std::optional<Ticket> take();

  /// Record a completion: frees the client's in-flight slot and folds the
  /// observed service time into the EWMA.
  void complete(const std::string& client, double service_ms);

  /// Drain support: pop every still-queued ticket (they were admitted but
  /// never started — the server rejects their futures and, in file-queue
  /// mode, restores their request files for the next invocation).
  std::vector<Ticket> evict_queued();

  int queued() const { return queued_; }
  int inflight() const { return inflight_; }
  double service_estimate_ms() const { return service_ms_; }

 private:
  struct ClientState {
    // One FIFO per class, served round-robin within the client so a
    // trickle class is never starved by the same client's flood class.
    std::map<std::string, std::deque<Ticket>> by_class;
    std::vector<std::string> class_order;  // round-robin cursor basis
    std::size_t next_class = 0;
    int inflight = 0;
    int queued = 0;
  };

  std::optional<Ticket> pop_from(ClientState& client);

  AdmissionOptions options_;
  int max_inflight_;
  std::map<std::string, ClientState> clients_;
  std::vector<std::string> client_order_;  // round-robin cursor basis
  std::size_t next_client_ = 0;
  int queued_ = 0;
  int inflight_ = 0;
  double service_ms_;
};

}  // namespace nshot::serve
