#include "src/svc/socket.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace psga::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path too long (" +
                             std::to_string(path.size()) + " bytes, max " +
                             std::to_string(sizeof(address.sun_path) - 1) +
                             "): " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

// Poll cadence for interruptible blocking calls: short enough that
// drain/stop is visibly prompt, long enough to stay off the profiler.
constexpr int kPollMs = 100;

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool wait_readable(int fd, int timeout_ms) {
  pollfd poller{};
  poller.fd = fd;
  poller.events = POLLIN;
  for (;;) {
    const int ready = ::poll(&poller, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    return ready > 0;
  }
}

bool write_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_line(int fd, const std::string& line) {
  return write_all(fd, line + "\n");
}

bool LineReader::read_line(std::string& out,
                          const std::function<bool()>& interrupted) {
  if (overflowed_) return false;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos && newline <= max_line_) {
      out.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return true;
    }
    if (buffer_.size() > max_line_) {
      overflowed_ = true;
      return false;
    }
    scanned_ = buffer_.size();
    if (interrupted) {
      while (!wait_readable(fd_, kPollMs)) {
        if (interrupted()) return false;
      }
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // EOF or error; a partial line is dropped
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  const sockaddr_un address = make_address(path);
  fd_ = Fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd_.valid()) throw_errno("socket(" + path + ")");
  ::unlink(path.c_str());
  if (::bind(fd_.get(), reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd_.get(), 64) != 0) throw_errno("listen(" + path + ")");
}

UnixListener::~UnixListener() {
  fd_.close();
  if (!path_.empty()) ::unlink(path_.c_str());
}

Fd UnixListener::accept(const std::function<bool()>& interrupted) {
  for (;;) {
    if (!wait_readable(fd_.get(), kPollMs)) {
      if (interrupted && interrupted()) return Fd();
      continue;
    }
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return Fd();
    }
    return Fd(client);
  }
}

Fd unix_connect(const std::string& path) {
  const sockaddr_un address = make_address(path);
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(" + path + ")");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    throw_errno("connect(" + path + ")");
  }
  return fd;
}

}  // namespace psga::svc
