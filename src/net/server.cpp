#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace ldafp::net {

namespace {

double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// One event loop: an epoll instance, a wake eventfd, the loop's
/// scoring scratch, and the connections this thread exclusively owns.
struct Server::Loop {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  /// Scoring scratch every connection of this loop serves through.
  LoopContext serve;
  /// A connection, whether EPOLLOUT interest is registered for it, and
  /// whether it is already on this wakeup's dirty list.
  struct Slot {
    std::unique_ptr<Connection> conn;
    bool write_armed = false;
    bool dirty = false;
  };
  std::unordered_map<int, Slot> conns;
  /// Connections touched in the current wakeup (fds, each at most
  /// once); service_connections walks only these.  Keeps its capacity.
  std::vector<int> dirty;
  std::mutex inbox_mu;
  std::vector<int> inbox;  ///< accepted fds awaiting adoption
  /// Connection count mirror readable from other threads.
  std::atomic<std::size_t> conn_count{0};
};

Status ServerOptions::validate() const {
  if (engine == nullptr) return Status::invalid("server needs an engine");
  if (registry == nullptr) {
    return Status::invalid("server needs a model registry");
  }
  if (io_threads < 1) {
    return Status::invalid("server needs at least one io thread");
  }
  if (max_frame_bytes < kFrameOverhead) {
    return Status::invalid("max_frame_bytes below frame overhead");
  }
  if (max_write_buffer < kFrameOverhead) {
    return Status::invalid("max_write_buffer below frame overhead");
  }
  return Status();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      metrics_(obs::metrics_of(options_.sink)) {
  throw_if_error(options_.validate());
  context_.engine = options_.engine;
  context_.registry = options_.registry;
  context_.metrics = &metrics_;
  context_.default_model = options_.default_model;
  context_.max_frame_bytes = options_.max_frame_bytes;
  context_.max_write_buffer = options_.max_write_buffer;
  context_.draining = &draining_;
}

Server::~Server() { stop(); }

void Server::start() {
  LDAFP_CHECK(!started_, "server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw IoError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("invalid bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 512) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("cannot listen on " + options_.host + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  draining_.store(false, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  loops_.clear();
  try {
    for (std::size_t i = 0; i < options_.io_threads; ++i) {
      // Owned by loops_ before its fds open, so stop() closes them.
      Loop& loop = *loops_.emplace_back(std::make_unique<Loop>());
      loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      loop.wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop.epoll_fd < 0 || loop.wake_fd < 0) {
        throw IoError("epoll/eventfd setup failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = loop.wake_fd;
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.wake_fd, &ev);
    }
    // The first loop doubles as the acceptor.
    {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    }
    for (std::size_t i = 0; i < loops_.size(); ++i) {
      Loop* loop = loops_[i].get();
      const bool acceptor = i == 0;
      loop->thread = std::thread([this, loop, acceptor] {
        run_loop(*loop, acceptor);
      });
    }
  } catch (...) {
    // Join the loops already running and close every fd opened so far.
    stop(0.0);
    throw;
  }
  started_ = true;
}

void Server::stop(double drain_seconds) {
  drain_deadline_.store(steady_now() + drain_seconds,
                        std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->wake_fd < 0) continue;
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    // Handed-off fds the loop never adopted (stop raced an in-flight
    // accept handoff).  Safe to drain here: the acceptor loop joins
    // first, so nothing pushes into an inbox after its owner joined.
    // These never became Connections, so no opened/closed accounting.
    {
      std::lock_guard lock(loop->inbox_mu);
      for (const int fd : loop->inbox) ::close(fd);
      loop->inbox.clear();
    }
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
  }
  loops_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (spare_fd_ >= 0) ::close(spare_fd_);
  spare_fd_ = -1;
  started_ = false;
}

std::size_t Server::connection_count() const {
  std::size_t total = 0;
  for (const auto& loop : loops_) {
    total += loop->conn_count.load(std::memory_order_relaxed);
  }
  return total;
}

void Server::run_loop(Loop& loop, bool is_acceptor) {
  std::vector<epoll_event> events(256);
  bool listener_armed = is_acceptor;
  while (true) {
    const bool stopping = stop_.load(std::memory_order_acquire);
    if (stopping && listener_armed) {
      // Drain phase: no new clients; existing responses still flush.
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      listener_armed = false;
    }
    if (stopping) {
      // Every request is answered inside the wakeup that read it, so
      // the drain waits only for unflushed bytes.
      bool idle = true;
      for (const auto& [fd, slot] : loop.conns) {
        if (slot.conn->wants_write()) {
          idle = false;
          break;
        }
      }
      if (idle ||
          steady_now() >=
              drain_deadline_.load(std::memory_order_acquire)) {
        break;
      }
    }

    // Loops always block: a request is scored in the wakeup that read
    // it, so nothing is ever in flight between wakeups and the timeout
    // is only an idle housekeeping tick (tightened while stopping so the
    // drain deadline is honored promptly).
    const int timeout_ms = stopping ? 10 : 200;
    const int n = ::epoll_wait(loop.epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               timeout_ms);
    metrics_.loop_wakeups.increment();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_clients(loop);
        continue;
      }
      if (fd == loop.wake_fd) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(loop.wake_fd, &drained, sizeof(drained));
        adopt_inbox(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      Loop::Slot& slot = it->second;
      if (!slot.dirty) {
        slot.dirty = true;
        loop.dirty.push_back(fd);
      }
      Connection& conn = *slot.conn;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        // Mark dead, don't close yet: closing mid-batch frees the fd
        // number, which a same-batch accept could reuse — later stale
        // events in this batch would then hit the new connection.
        // service_connections reaps once the batch is done.
        conn.mark_dead();
        continue;
      }
      if (conn.dead()) continue;
      if ((events[i].events & EPOLLIN) != 0) conn.on_readable();
      if ((events[i].events & EPOLLOUT) != 0) conn.flush();
    }
    adopt_inbox(loop);
    service_connections(loop);
  }

  // Loop exit: every connection this thread owns closes with it.
  for (const auto& [fd, slot] : loop.conns) {
    metrics_.connections_closed.increment();
    ::close(fd);
  }
  loop.conns.clear();
  loop.conn_count.store(0, std::memory_order_relaxed);
}

void Server::accept_clients(Loop& loop) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd table exhausted.  The listener is level-triggered, so
        // returning with the connection still queued would spin this
        // loop at 100% CPU.  Release the reserved spare fd, accept the
        // pending connection just to close it, then re-arm the spare.
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
          const int victim = ::accept4(listen_fd_, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (victim >= 0) ::close(victim);
          spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          if (victim >= 0) continue;
        }
        return;
      }
      return;  // EAGAIN, or transient accept failure — epoll re-arms
    }
    set_nodelay(fd);
    const std::size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) %
        loops_.size();
    Loop& dest = *loops_[target];
    if (&dest == &loop) {
      add_connection(loop, fd);
    } else {
      {
        std::lock_guard lock(dest.inbox_mu);
        dest.inbox.push_back(fd);
      }
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(dest.wake_fd, &one, sizeof(one));
    }
  }
}

void Server::adopt_inbox(Loop& loop) {
  std::vector<int> adopted;
  {
    std::lock_guard lock(loop.inbox_mu);
    adopted.swap(loop.inbox);
  }
  for (const int fd : adopted) add_connection(loop, fd);
}

void Server::add_connection(Loop& loop, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  loop.conns.emplace(
      fd, Loop::Slot{std::make_unique<Connection>(fd, &context_, &loop.serve)});
  loop.conn_count.store(loop.conns.size(), std::memory_order_relaxed);
}

void Server::close_connection(Loop& loop, int fd) {
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.conns.erase(fd);
  loop.conn_count.store(loop.conns.size(), std::memory_order_relaxed);
  metrics_.connections_closed.increment();
}

void Server::service_connections(Loop& loop) {
  // Only the connections this wakeup touched can have new output, a
  // changed write interest, or a reason to close.  Closing erases from
  // the map, never from `dirty`, so the walk stays valid.
  for (const int fd : loop.dirty) {
    auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) continue;
    Loop::Slot& slot = it->second;
    slot.dirty = false;
    Connection& conn = *slot.conn;
    if (!conn.dead()) {
      conn.flush();
      // Level-triggered EPOLLOUT only while bytes are stuck in the
      // buffer, so an idle writable socket does not spin the loop.
      const bool want = conn.wants_write() && !conn.dead();
      if (want != slot.write_armed) {
        epoll_event ev{};
        ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
        ev.data.fd = fd;
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, fd, &ev);
        slot.write_armed = want;
      }
    }
    if (conn.finished()) close_connection(loop, fd);
  }
  loop.dirty.clear();
}

}  // namespace ldafp::net
