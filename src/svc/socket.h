// Minimal Unix-domain stream sockets for the solver service: an RAII fd,
// a listener, a connector, and a buffered newline-framed reader.
//
// The service speaks newline-delimited JSON over SOCK_STREAM, so this
// layer only needs four things: bind/listen/accept, connect, write a
// whole line, read a whole line. Reads poll with a short timeout and
// re-check a caller-supplied stop predicate, which is how every blocking
// server thread stays interruptible without cross-thread fd shutdown
// games; writes use MSG_NOSIGNAL so a client that vanished mid-stream
// surfaces as an error return, not SIGPIPE.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>

namespace psga::svc {

/// Owning file descriptor (move-only). -1 = empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { close(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Waits until `fd` is readable. Returns false on timeout, true when
/// readable (or the peer hung up — the subsequent read reports EOF).
/// timeout_ms < 0 blocks indefinitely.
bool wait_readable(int fd, int timeout_ms);

/// Sends all of `text` (MSG_NOSIGNAL). Returns false when the peer is
/// gone (EPIPE/ECONNRESET) or on any other write error.
bool write_all(int fd, const std::string& text);

/// write_all of `line` + '\n'.
bool write_line(int fd, const std::string& line);

/// Buffered newline framing over a non-owned fd. One reader per fd —
/// the buffer holds bytes past the last returned line.
class LineReader {
 public:
  /// `max_line` caps a line's length (newline excluded); the buffer
  /// never grows much past it.
  explicit LineReader(int fd, std::size_t max_line =
                                  std::numeric_limits<std::size_t>::max())
      : fd_(fd), max_line_(max_line) {}

  /// Reads the next '\n'-terminated line (newline stripped). Returns
  /// false on EOF/error, when `interrupted` (polled between 100 ms
  /// waits) returns true before a full line arrives, or when the line
  /// outgrows `max_line` (then overflowed() is true, and the stream
  /// cannot be resynchronized: the rest of that line is never read).
  bool read_line(std::string& out,
                 const std::function<bool()>& interrupted = {});

  bool overflowed() const { return overflowed_; }

 private:
  int fd_;
  std::size_t max_line_;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< buffer_ bytes already searched for '\n'
  bool overflowed_ = false;
};

/// A bound + listening Unix-domain socket. Unlinks the path on bind (a
/// stale socket file from a crashed daemon would otherwise block every
/// restart) and again on destruction.
class UnixListener {
 public:
  /// Throws std::runtime_error (with errno text) when the path is too
  /// long for sockaddr_un or bind/listen fail.
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  /// Accepts one connection; empty Fd when `interrupted` (polled every
  /// 100 ms, same cadence as LineReader) fires first or accept fails.
  /// Without a predicate, blocks until a connection arrives.
  Fd accept(const std::function<bool()>& interrupted = {});

  const std::string& path() const { return path_; }
  int fd() const { return fd_.get(); }

 private:
  std::string path_;
  Fd fd_;
};

/// Connects to a listening Unix-domain socket; throws std::runtime_error
/// (with errno text) when nothing listens at `path`.
Fd unix_connect(const std::string& path);

}  // namespace psga::svc
