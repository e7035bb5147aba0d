// Unix-domain-socket transport: the interactive serve mode.  NDJSON both
// ways — each connection writes one request object per line and receives
// one response object per line.  Responses are written in COMPLETION
// order, not submission order: pipelining clients must match responses to
// requests by "id".
//
// SocketListener owns an accept thread plus one reader thread per live
// connection; completion callbacks (worker threads) serialize writes
// through a per-connection mutex, and a shared_ptr keeps the connection
// state alive until its last in-flight response has been written (or
// dropped, when the peer hung up first).
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

namespace nshot::serve {

class SocketListener {
 public:
  /// Binds and starts accepting immediately.  Throws Error(kInternal)
  /// when the path cannot be bound (a stale socket file is replaced).
  SocketListener(std::string path, Server& server);
  ~SocketListener();  // stop()

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Stop accepting, close every connection, join the threads and remove
  /// the socket file.  Idempotent.  In-flight requests keep running in
  /// the Server; their responses are dropped (connection gone).
  void stop();

  const std::string& path() const { return path_; }

 private:
  struct Connection;
  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> connection);

  std::string path_;
  Server& server_;
  const int listen_fd_;  // immutable: accept_loop reads it without a lock
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;
  bool stopped_ = false;
};

/// Blocking NDJSON client for --connect, load_replay and the tests.
class SocketClient {
 public:
  explicit SocketClient(const std::string& path);  // throws on connect failure
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Write one request line.
  void send(const WireRequest& wire);
  void send_line(const std::string& line);

  /// Next response line (without the newline); empty on EOF.  Responses
  /// arrive in completion order — match by "id" when pipelining.
  std::string recv_line();

  /// send() + recv_line() — only valid when nothing else is pipelined.
  std::string roundtrip(const WireRequest& wire);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace nshot::serve
