#include "serve/socket.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace nshot::serve {

namespace {

/// Outbound bytes above which the loop stops reading a connection until
/// the peer drains them: bounds memory without dropping a response.
constexpr std::size_t kHighWater = std::size_t{1} << 20;
/// Pause before accept() is retried after the process ran out of fds.
constexpr int kAcceptBackoffMs = 50;
/// Read size; also bounds how far one read can overshoot kHighWater.
constexpr std::size_t kChunk = 4096;

int unix_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  NSHOT_REQUIRE_CODE(fd >= 0, ErrorCode::kInternal,
                     std::string("socket: ") + std::strerror(errno));
  return fd;
}

sockaddr_un socket_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  NSHOT_REQUIRE(path.size() < sizeof(addr.sun_path),
                "socket path too long: " + path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

/// A non-blocking socket bound to `path` and listening; the descriptor is
/// closed again when binding or listening fails.
int listening_socket(const std::string& path) {
  const sockaddr_un addr = socket_address(path);
  const int fd = unix_socket();
  ::unlink(path.c_str());  // replace a stale socket file
  std::string failure;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    failure = "bind " + path + ": " + std::strerror(errno);
  else if (::listen(fd, 64) != 0)
    failure = std::string("listen: ") + std::strerror(errno);
  if (!failure.empty()) ::close(fd);
  NSHOT_REQUIRE_CODE(failure.empty(), ErrorCode::kInternal, failure);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

bool retry(int error) { return error == EINTR || error == EAGAIN || error == EWOULDBLOCK; }

}  // namespace

void LineSplitter::append(const char* data, std::size_t size) {
  bytes_.erase(0, begin_);  // only the tail after the last line moves
  scanned_ -= begin_;
  begin_ = 0;
  bytes_.append(data, size);
}

bool LineSplitter::next(std::string& line) {
  for (;;) {
    const std::size_t eol = bytes_.find('\n', scanned_);
    if (eol == std::string::npos) {
      scanned_ = bytes_.size();
      if (scanned_ - begin_ <= max_line_) return false;
      const bool head = !discarding_;
      if (head) line.assign(bytes_, begin_, max_line_ + 1);
      bytes_.clear();
      begin_ = scanned_ = 0;
      discarding_ = true;
      return head;
    }
    const bool tail = discarding_;  // the end of an over-long line
    discarding_ = false;
    if (!tail) line.assign(bytes_, begin_, eol - begin_);
    begin_ = scanned_ = eol + 1;
    if (!tail) return true;
  }
}

/// Responses handed from pool workers to the loop, plus the non-blocking
/// wake pipe.  Every pending completion callback shares it, so a response
/// that lands after stop() finds a closed mailbox instead of a socket.
struct SocketListener::Mailbox {
  Mailbox() {
    NSHOT_REQUIRE_CODE(::pipe2(wake, O_NONBLOCK) == 0, ErrorCode::kInternal,
                       std::string("pipe: ") + std::strerror(errno));
  }
  ~Mailbox() {
    ::close(wake[0]);
    ::close(wake[1]);
  }
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void post(std::uint64_t connection, std::string line) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!open) return;
    responses.emplace_back(connection, std::move(line));
    if (responses.size() == 1) notify();  // otherwise a wake-up is already pending
  }
  /// Never blocks: a full pipe already holds a wake-up.
  void notify() {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake[1], &byte, 1);
  }

  int wake[2];  // read end polled by the loop, write end written by notify()
  std::mutex mutex;
  bool open = true;                                              // guarded by mutex
  std::vector<std::pair<std::uint64_t, std::string>> responses;  // guarded by mutex
};

struct SocketListener::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const int fd;
  LineSplitter in{kMaxParserLine};  // parse_request rejects an over-long line's head
  bool reading = true;              // false after the peer's EOF
  int pending = 0;                  // requests enqueued whose response has not arrived
  std::string out;                  // responses not yet written

  /// The peer finished sending and has every response it is owed.
  bool done() const { return !reading && pending == 0 && out.empty(); }

  /// Write what the socket takes now; false when the peer is gone.
  bool flush() {
    while (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      if (n < 0) return retry(errno);
      out.erase(0, static_cast<std::size_t>(n));
    }
    return true;
  }
};

SocketListener::SocketListener(std::string path, Server& server)
    : path_(std::move(path)), server_(server), mailbox_(std::make_shared<Mailbox>()),
      listen_fd_(listening_socket(path_)), loop_([this] { run(); }) {}

SocketListener::~SocketListener() { stop(); }

void SocketListener::run() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point accept_resume;  // accept() is paused until then (fd limit)
  std::vector<pollfd> fds;
  std::vector<std::pair<std::uint64_t, std::string>> responses;
  for (;;) {
    const bool accepting = Clock::now() >= accept_resume;
    fds.assign({{mailbox_->wake[0], POLLIN, 0}, {accepting ? listen_fd_ : -1, POLLIN, 0}});
    for (const auto& [id, connection] : connections_) {
      short events = 0;
      if (connection->reading && connection->out.size() <= kHighWater) events |= POLLIN;
      if (!connection->out.empty()) events |= POLLOUT;
      fds.push_back({connection->fd, events, 0});
    }
    if (::poll(fds.data(), fds.size(), accepting ? -1 : kAcceptBackoffMs) < 0) continue;

    if (fds[0].revents != 0) {
      for (char drain[64]; ::read(mailbox_->wake[0], drain, sizeof drain) == sizeof drain;) {
      }
      std::lock_guard<std::mutex> lock(mailbox_->mutex);
      if (!mailbox_->open) return;  // stop()
      responses.swap(mailbox_->responses);
    }
    for (auto& [id, line] : responses) {
      const auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // peer already gone
      it->second->out += line;
      --it->second->pending;
    }
    responses.clear();

    while (fds[1].revents != 0) {  // accept the whole backlog
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd >= 0) {
        connections_.emplace(next_id_++, std::make_unique<Connection>(fd));
      } else if (errno != EINTR && errno != ECONNABORTED) {
        if (!retry(errno))  // out of fds (EMFILE, ENFILE, ...): pause accepting
          accept_resume = Clock::now() + std::chrono::milliseconds(kAcceptBackoffMs);
        break;
      }
    }

    // The polled connections lead the map in fds order: ids only grow, so
    // the ones accepted above come after them.
    std::size_t next_fd = 2;
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& connection = *it->second;
      const short revents = next_fd < fds.size() ? fds[next_fd++].revents : 0;
      bool open = true;
      if (revents & POLLIN)
        open = read_requests(it->first, connection);
      else if (revents & (POLLHUP | POLLERR | POLLNVAL))
        open = false;  // closed both ways (a half-close reads as EOF): nothing can be delivered
      it = open && connection.flush() && !connection.done() ? std::next(it)
                                                             : connections_.erase(it);
    }
  }
}

bool SocketListener::read_requests(std::uint64_t id, Connection& connection) {
  char chunk[kChunk];
  const ssize_t n = ::recv(connection.fd, chunk, sizeof chunk, 0);
  if (n < 0) return retry(errno);
  if (n == 0) {  // EOF: the peer sent everything; stay to deliver what it is owed
    connection.reading = false;
    return true;
  }
  connection.in.append(chunk, static_cast<std::size_t>(n));
  for (std::string line; connection.in.next(line);) {
    if (line.empty()) continue;
    WireRequest wire;
    try {
      wire = parse_request(line);
    } catch (const std::exception& e) {
      connection.out += server_.reject_unparsable("", e.what()).to_json() + "\n";
      continue;
    }
    if (const std::string resumed = server_.resume(wire.request.id); !resumed.empty()) {
      connection.out += resumed + "\n";
      continue;
    }
    ++connection.pending;
    server_.enqueue(wire, [mailbox = mailbox_, id](const Response& response) {
      mailbox->post(id, response.to_json() + "\n");
    });
  }
  return true;
}

void SocketListener::stop() {
  {
    std::lock_guard<std::mutex> lock(mailbox_->mutex);
    if (!mailbox_->open) return;
    mailbox_->open = false;
    mailbox_->notify();
  }
  if (loop_.joinable()) loop_.join();
  connections_.clear();  // closes every connection fd
  ::close(listen_fd_);
  ::unlink(path_.c_str());
}

SocketClient::SocketClient(const std::string& path) {
  fd_ = unix_socket();
  const sockaddr_un addr = socket_address(path);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error(ErrorCode::kInternal, "connect " + path + ": " + detail);
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketClient::send(const WireRequest& wire) { send_line(request_json(wire)); }

void SocketClient::send_line(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    NSHOT_REQUIRE_CODE(n > 0, ErrorCode::kInternal, "server closed the connection");
    sent += static_cast<std::size_t>(n);
  }
}

std::string SocketClient::recv_line() {
  std::string line;
  while (!buffer_.next(line)) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";  // EOF
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  return line;
}

std::string SocketClient::roundtrip(const WireRequest& wire) {
  send(wire);
  return recv_line();
}

void SocketClient::pipeline(int input_fd,
                            const std::function<void(const std::string&)>& on_response) {
  LineSplitter input;
  std::string outbound;  // request bytes read but not yet sent
  std::size_t written = 0;
  bool input_open = true;
  long sent = 0, received = 0;
  std::string line;
  char chunk[65536];
  auto closed = [&] {
    return Error(ErrorCode::kInternal, "server closed the connection (" +
                                           std::to_string(received) + " of " +
                                           std::to_string(sent) + " responses)");
  };
  while (input_open || written < outbound.size() || received < sent) {
    // Read more requests only while the unsent ones stay under the cap.
    const bool want_input = input_open && outbound.size() - written < kHighWater;
    short events = 0;
    if (written < outbound.size()) events |= POLLOUT;
    if (received < sent) events |= POLLIN;
    pollfd fds[2] = {{events != 0 ? fd_ : -1, events, 0}, {want_input ? input_fd : -1, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      NSHOT_REQUIRE_CODE(errno == EINTR, ErrorCode::kInternal,
                         std::string("poll: ") + std::strerror(errno));
      continue;
    }
    if (fds[1].revents != 0) {
      const ssize_t n = ::read(input_fd, chunk, sizeof chunk);
      if (n > 0) {
        input.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        input_open = false;
        input.append("\n", 1);  // a last line without its newline still counts
      } else {
        NSHOT_REQUIRE_CODE(retry(errno), ErrorCode::kInternal,
                           std::string("read: ") + std::strerror(errno));
      }
      outbound.erase(0, written);
      written = 0;
      while (input.next(line)) {
        if (line.empty()) continue;
        outbound += line;
        outbound += '\n';
        ++sent;
      }
    }
    if (fds[0].revents & POLLOUT) {
      const ssize_t n = ::send(fd_, outbound.data() + written, outbound.size() - written,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && !retry(errno)) throw closed();
      if (n > 0) written += static_cast<std::size_t>(n);
    }
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && !retry(errno))) throw closed();
      if (n > 0) buffer_.append(chunk, static_cast<std::size_t>(n));
      while (received < sent && buffer_.next(line)) {
        ++received;
        on_response(line);
      }
    }
  }
}

}  // namespace nshot::serve
