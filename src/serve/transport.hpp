// Stream transport for the hiserve protocol: Unix-domain sockets (the
// default) and TCP behind one abstraction, so the daemon/client/worker
// code never touches address families.
//
// Endpoint syntax:
//   /path/to.sock      Unix-domain stream socket (anything with a '/')
//   tcp:HOST:PORT      TCP (IPv4); HOST may be a name or dotted quad
//
// Conn wraps a connected fd: framed sends (send_frame appends to the
// socket atomically from the caller's perspective — short writes and
// EAGAIN are retried inside), framed blocking receives via an internal
// FrameDecoder, non-blocking reads for poll loops (read_into_decoder),
// and the daemon's bounded outbound write queue (queue_frame /
// flush_queue / queued_bytes).  Listener wraps a listening fd.  Both
// close on destruction; both expose the raw fd for poll().
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "serve/protocol.hpp"

namespace hidisc::serve {

// I/O failure distinct from protocol corruption: peer gone, connect
// refused, bind failure.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Conn {
 public:
  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();
  Conn(Conn&& o) noexcept;
  Conn& operator=(Conn&& o) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close();

  // Whole-frame send; throws TransportError when the peer is gone.
  void send_frame(const Frame& f);

  // Blocking receive of the next frame; nullopt = orderly EOF with no
  // partial frame buffered (a partial frame at EOF is a TransportError).
  [[nodiscard]] std::optional<Frame> recv_frame();

  // Non-blocking drain of readable bytes into the decoder (for poll
  // loops).  Returns false when the peer has hung up (EOF or reset);
  // completed frames are then still retrievable via next_frame().
  [[nodiscard]] bool read_into_decoder();
  // Next buffered frame, if a complete one has been fed.
  [[nodiscard]] std::optional<Frame> next_frame() { return dec_.next(); }

  // O_NONBLOCK toggle; the daemon keeps conns non-blocking for reads
  // (send_frame handles EAGAIN internally either way).
  void set_nonblocking(bool nb);

  // Outbound write queue (daemon side): queue_frame appends the encoded
  // frame, flush_queue makes one non-blocking drain attempt (false when
  // the peer is gone), flush_blocking drains with a deadline on exit.
  void queue_frame(const Frame& f) { outq_ += encode_frame(f); }
  [[nodiscard]] bool flush_queue();
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return outq_.size();
  }
  void flush_blocking(int timeout_ms);

 private:
  int fd_ = -1;
  FrameDecoder dec_;
  std::string outq_;
};

class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& o) noexcept;
  Listener& operator=(Listener&& o) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds + listens on `endpoint`; throws TransportError on failure.  A
  // stale Unix socket file with no live listener is silently replaced; a
  // live one is "address in use".
  static Listener listen(const std::string& endpoint);

  // Accepts one pending connection (call after poll() says readable).
  [[nodiscard]] Conn accept();

  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close();  // also unlinks the Unix socket path, when one was bound
  // For forked children that inherited the listener: close the fd WITHOUT
  // unlinking the socket path, which still belongs to the parent.
  void abandon() noexcept;

 private:
  int fd_ = -1;
  std::string unlink_path_;  // bound Unix socket file, removed on close
};

// Connects to `endpoint`; throws TransportError on failure.
[[nodiscard]] Conn connect_to(const std::string& endpoint);

// A connected AF_UNIX stream socketpair for daemon <-> forked worker.
struct SocketPair {
  Conn parent;  // daemon end
  Conn child;   // worker end
};
[[nodiscard]] SocketPair make_socketpair();

}  // namespace hidisc::serve
