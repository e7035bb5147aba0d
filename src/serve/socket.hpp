// Unix-domain-socket transport: the interactive serve mode.  NDJSON both
// ways — each connection writes one request object per line and receives
// one response object per line.  Responses are written in COMPLETION
// order, not submission order: pipelining clients must match responses to
// requests by "id".
//
// SocketListener is one poll() loop thread that owns the listening
// socket, a wake pipe and every connection (DESIGN.md §14): non-blocking
// reads, a 64 KiB line cap, a per-connection outbound buffer whose
// high-water mark pauses reading, and completion callbacks that only post
// (connection id, line) to a mailbox and wake the loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "serve/server.hpp"

namespace nshot::serve {

/// Splits a byte stream into newline-terminated lines.  A cursor marks
/// how far the buffer is known to hold no newline, so every byte is
/// scanned once however the stream is chunked.  A line longer than
/// `max_line` comes out once as its first max_line + 1 bytes, as soon as
/// they arrive; the rest of it, up to its newline, is dropped unbuffered.
class LineSplitter {
 public:
  explicit LineSplitter(std::size_t max_line = std::string::npos) : max_line_(max_line) {}

  void append(const char* data, std::size_t size);
  /// Move the next line (without its newline) into `line`; false when no
  /// complete line is buffered.
  bool next(std::string& line);

 private:
  std::size_t max_line_;
  std::string bytes_;
  std::size_t begin_ = 0;    // start of the first unconsumed line
  std::size_t scanned_ = 0;  // bytes_[begin_, scanned_) holds no newline
  bool discarding_ = false;  // dropping the rest of an over-long line
};

class SocketListener {
 public:
  /// Binds and starts accepting immediately.  Throws Error(kInternal)
  /// when the path cannot be bound (a stale socket file is replaced).
  SocketListener(std::string path, Server& server);
  ~SocketListener();  // stop()

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Stop accepting, close every connection without waiting on any peer,
  /// join the loop thread and remove the socket file.  Idempotent.
  /// In-flight requests keep running in the Server; their responses are
  /// dropped (connection gone).
  void stop();

  const std::string& path() const { return path_; }

 private:
  struct Connection;
  struct Mailbox;
  void run();
  bool read_requests(std::uint64_t id, Connection& connection);

  std::string path_;
  Server& server_;
  std::shared_ptr<Mailbox> mailbox_;  // shared with pending completion callbacks
  const int listen_fd_;
  // Loop-thread state: stop() touches it only after joining the loop.
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_id_ = 1;
  std::thread loop_;  // last: starts once everything it uses exists
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

  /// Send every non-empty line read from `input_fd` until its EOF, and
  /// hand each response line to `on_response` as it arrives.  One poll()
  /// loop interleaves the writes and the reads, so a batch whose unread
  /// responses pass the server's outbound cap cannot wedge both sides.
  /// Returns once every request is answered; throws Error(kInternal) when
  /// the server closes the connection first.
  void pipeline(int input_fd, const std::function<void(const std::string&)>& on_response);

 private:
  int fd_ = -1;
  LineSplitter buffer_;
};

}  // namespace nshot::serve
