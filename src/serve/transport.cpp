#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace hidisc::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError("hiserve transport: " + what + ": " +
                       std::strerror(errno));
}

bool is_tcp_endpoint(const std::string& ep) {
  return ep.rfind("tcp:", 0) == 0;
}

// "tcp:HOST:PORT" -> (host, port); throws on a malformed spec.
std::pair<std::string, std::uint16_t> split_tcp(const std::string& ep) {
  const std::string rest = ep.substr(4);
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size())
    throw TransportError("hiserve transport: bad tcp endpoint '" + ep +
                         "' (want tcp:HOST:PORT)");
  const long port = std::strtol(rest.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535)
    throw TransportError("hiserve transport: bad tcp port in '" + ep + "'");
  return {rest.substr(0, colon), static_cast<std::uint16_t>(port)};
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw TransportError("hiserve transport: unix socket path too long: " +
                         path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    const hostent* he = gethostbyname(host.c_str());
    if (!he || he->h_addrtype != AF_INET)
      throw TransportError("hiserve transport: cannot resolve host " + host);
    std::memcpy(&addr.sin_addr, he->h_addr_list[0], sizeof(addr.sin_addr));
  }
  return addr;
}

void send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w > 0) {
      data += w;
      n -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      (void)::poll(&p, 1, -1);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    throw_errno("send");
  }
}

}  // namespace

// Conn -----------------------------------------------------------------------

Conn::~Conn() { close(); }

Conn::Conn(Conn&& o) noexcept
    : fd_(o.fd_), dec_(std::move(o.dec_)), outq_(std::move(o.outq_)) {
  o.fd_ = -1;
}

Conn& Conn::operator=(Conn&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    dec_ = std::move(o.dec_);
    outq_ = std::move(o.outq_);
    o.fd_ = -1;
  }
  return *this;
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::send_frame(const Frame& f) {
  if (fd_ < 0) throw TransportError("hiserve transport: send on closed conn");
  const std::string wire = encode_frame(f);
  send_all(fd_, wire.data(), wire.size());
}

std::optional<Frame> Conn::recv_frame() {
  for (;;) {
    if (auto f = dec_.next()) return f;
    char buf[64 * 1024];
    const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
    if (r > 0) {
      dec_.feed(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_, POLLIN, 0};
      (void)::poll(&p, 1, -1);
      continue;
    }
    if (r == 0) {
      if (dec_.buffered() > 0)
        throw TransportError(
            "hiserve transport: peer closed mid-frame (truncated stream)");
      return std::nullopt;
    }
    throw_errno("recv");
  }
}

bool Conn::read_into_decoder() {
  for (;;) {
    char buf[64 * 1024];
    const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
    if (r > 0) {
      dec_.feed(buf, static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error: peer is gone
  }
}

void Conn::set_nonblocking(bool nb) {
  const int flags = fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = nb ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_, F_SETFL, want) < 0) throw_errno("fcntl(F_SETFL)");
}

bool Conn::flush_queue() {
  while (!outq_.empty()) {
    if (fd_ < 0) return false;
    const ssize_t w =
        ::send(fd_, outq_.data(), outq_.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;  // would block; poll will call us back
    if (w < 0) return false;
    outq_.erase(0, static_cast<std::size_t>(w));
  }
  return true;
}

void Conn::flush_blocking(int timeout_ms) {
  const int step = 20;
  for (int waited = 0; !outq_.empty() && waited <= timeout_ms; waited += step) {
    if (!flush_queue() || outq_.empty()) return;
    pollfd p{fd_, POLLOUT, 0};
    (void)::poll(&p, 1, step);
  }
}

// Listener -------------------------------------------------------------------

Listener::~Listener() { close(); }

Listener::Listener(Listener&& o) noexcept
    : fd_(o.fd_), unlink_path_(std::move(o.unlink_path_)) {
  o.fd_ = -1;
  o.unlink_path_.clear();
}

Listener& Listener::operator=(Listener&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    unlink_path_ = std::move(o.unlink_path_);
    o.fd_ = -1;
    o.unlink_path_.clear();
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unlink_path_.empty()) {
    ::unlink(unlink_path_.c_str());
    unlink_path_.clear();
  }
}

void Listener::abandon() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  unlink_path_.clear();  // the parent still owns the socket file
}

Listener Listener::listen(const std::string& endpoint) {
  Listener l;
  if (is_tcp_endpoint(endpoint)) {
    const auto [host, port] = split_tcp(endpoint);
    l.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (l.fd_ < 0) throw_errno("socket");
    const int one = 1;
    setsockopt(l.fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = tcp_addr(host, port);
    if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
      throw_errno("bind " + endpoint);
  } else {
    l.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (l.fd_ < 0) throw_errno("socket");
    sockaddr_un addr = unix_addr(endpoint);
    if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      if (errno != EADDRINUSE) throw_errno("bind " + endpoint);
      // A socket file exists.  Probe it: only a daemon that both accepts
      // AND answers a Hello within 300ms counts as live — a connect() that
      // succeeds against a dead-but-undrained backlog, or a hung process,
      // must not block a restart after SIGKILL.
      bool live = false;
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (probe >= 0 &&
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
              0) {
        Frame hello;
        hello.type = MsgType::Hello;
        const std::string wire = encode_frame(hello);
        if (::send(probe, wire.data(), wire.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(wire.size())) {
          pollfd p{probe, POLLIN, 0};
          if (::poll(&p, 1, 300) > 0 && (p.revents & POLLIN)) {
            char buf[4096];
            const ssize_t r = ::recv(probe, buf, sizeof buf, 0);
            if (r > 0) {
              FrameDecoder dec;
              dec.feed(buf, static_cast<std::size_t>(r));
              try {
                live = dec.next().has_value();
              } catch (const ProtocolError&) {
                live = false;  // garbage back = not a healthy daemon
              }
            }
          }
        }
      }
      if (probe >= 0) ::close(probe);
      if (live)
        throw TransportError("hiserve transport: " + endpoint +
                             " already has a live listener");
      ::unlink(endpoint.c_str());
      if (::bind(l.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
        throw_errno("bind " + endpoint);
    }
    l.unlink_path_ = endpoint;
  }
  if (::listen(l.fd_, 64) < 0) throw_errno("listen " + endpoint);
  return l;
}

Conn Listener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return Conn(fd);
    if (errno == EINTR) continue;
    throw_errno("accept");
  }
}

Conn connect_to(const std::string& endpoint) {
  // A daemon that is still starting up has a window where the endpoint
  // exists but does not accept yet (Unix: bind done, listen pending;
  // TCP: nothing bound).  Retry those two transient failures with
  // exponential backoff (10ms doubling to a 640ms cap, ~3s total) so
  // `hilab --connect` races cleanly against `hiserved &` without
  // hammering a dead endpoint; every other errno (permissions, bad
  // address) fails immediately.
  constexpr int kAttempts = 10;
  int delay_us = 10 * 1000;
  constexpr int kDelayCapUs = 640 * 1000;
  for (int attempt = 0;; ++attempt) {
    int fd = -1;
    if (is_tcp_endpoint(endpoint)) {
      const auto [host, port] = split_tcp(endpoint);
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket");
      sockaddr_in addr = tcp_addr(host, port);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        return Conn(fd);
    } else {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket");
      sockaddr_un addr = unix_addr(endpoint);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0)
        return Conn(fd);
    }
    const int saved = errno;
    ::close(fd);
    if ((saved != ECONNREFUSED && saved != ENOENT) || attempt + 1 >= kAttempts) {
      errno = saved;
      throw_errno("connect " + endpoint);
    }
    ::usleep(delay_us);
    delay_us = std::min(delay_us * 2, kDelayCapUs);
  }
}

SocketPair make_socketpair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0) throw_errno("socketpair");
  SocketPair sp;
  sp.parent = Conn(fds[0]);
  sp.child = Conn(fds[1]);
  return sp;
}

}  // namespace hidisc::serve
