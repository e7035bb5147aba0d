#include "serve/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

namespace nshot::serve {

namespace {

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

/// Write the whole buffer, tolerating short writes; false when the peer
/// is gone (EPIPE & friends — the caller just drops the response).
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// A socket bound to `path` and listening; the descriptor is closed again
/// when binding or listening fails.
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
  return fd;
}

}  // namespace

struct SocketListener::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    ::close(fd);  // deferred until the last in-flight callback lets go
  }

  const int fd;  // immutable: the reader thread polls it lock-free
  std::mutex write_mutex;
  bool open = true;  // guarded by write_mutex

  /// Thread-safe response write; silently drops when the peer hung up.
  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!open) return;
    if (!send_all(fd, line + "\n")) open = false;
  }

  /// Unblock the reader and stop further writes; the fd itself stays
  /// open (and harmless) until the destructor.
  void shutdown_now() {
    std::lock_guard<std::mutex> lock(write_mutex);
    open = false;
    ::shutdown(fd, SHUT_RDWR);
  }
};

SocketListener::SocketListener(std::string path, Server& server)
    : path_(std::move(path)), server_(server), listen_fd_(listening_socket(path_)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

SocketListener::~SocketListener() { stop(); }

void SocketListener::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    auto connection = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopped_) {
      connection->shutdown_now();
      return;
    }
    connections_.push_back(connection);
    readers_.emplace_back([this, connection] { reader_loop(connection); });
  }
}

void SocketListener::reader_loop(std::shared_ptr<Connection> connection) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(connection->fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or connection torn down
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (line.empty()) continue;
      WireRequest wire;
      try {
        wire = parse_request(line);
      } catch (const Error& e) {
        connection->write_line(rejection("", e.code(), e.what()).to_json());
        continue;
      } catch (const std::exception& e) {
        connection->write_line(rejection("", ErrorCode::kInputInvalid, e.what()).to_json());
        continue;
      }
      // The connection shared_ptr in the callback keeps the write path
      // alive until this request's response lands, even if the reader
      // has exited by then.
      server_.enqueue(wire, [connection](const Response& response) {
        connection->write_line(response.to_json());
      });
    }
  }
}

void SocketListener::stop() {
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // shutdown() wakes the blocked accept(); the descriptor is closed only
  // after the accept thread has exited, so it never sees a closed or
  // reused descriptor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
    readers.swap(readers_);
  }
  for (auto& connection : connections) connection->shutdown_now();
  for (std::thread& reader : readers)
    if (reader.joinable()) reader.join();
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
  NSHOT_REQUIRE_CODE(send_all(fd_, line + "\n"), ErrorCode::kInternal,
                     "server closed the connection");
}

std::string SocketClient::recv_line() {
  for (;;) {
    const std::size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      const std::string line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";  // EOF
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string SocketClient::roundtrip(const WireRequest& wire) {
  send(wire);
  return recv_line();
}

}  // namespace nshot::serve
