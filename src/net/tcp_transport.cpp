#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace failsig::net {

namespace {

std::uint64_t pair_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
}

[[noreturn]] void sys_fail(const char* what) {
    throw std::runtime_error(std::string("tcp-transport: ") + what + ": " +
                             std::strerror(errno));
}

}  // namespace

TcpTransport::TcpTransport(Hooks hooks, Rng rng) : hooks_(std::move(hooks)), rng_(rng) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) sys_fail("epoll_create1");
    wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) sys_fail("eventfd");
}

TcpTransport::~TcpTransport() {
    close();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void TcpTransport::ensure_listener(NodeId node) {
    if (listeners_.contains(node.value)) return;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: the kernel picks, we publish
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) sys_fail("bind");
    if (::listen(fd, 64) < 0) sys_fail("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        sys_fail("getsockname");
    }
    listeners_[node.value] = fd;
    endpoint_map_.publish(node, SocketAddr{"127.0.0.1", ntohs(addr.sin_port)});
}

void TcpTransport::bind(Endpoint endpoint, MessageHandler handler) {
    std::lock_guard lk(topo_mu_);
    ensure_listener(endpoint.node);
    handlers_[endpoint] = std::move(handler);
}

void TcpTransport::unbind(Endpoint endpoint) {
    std::lock_guard lk(topo_mu_);
    handlers_.erase(endpoint);
}

void TcpTransport::start() {
    std::lock_guard lk(topo_mu_);
    if (started_) return;
    started_ = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) sys_fail("epoll_ctl wake");
    for (const auto& [node, fd] : listeners_) {
        epoll_event lev{};
        lev.events = EPOLLIN;
        lev.data.fd = fd;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &lev) < 0) sys_fail("epoll_ctl listen");
    }
    reactor_ = std::thread([this] { reactor_loop(); });
}

void TcpTransport::close() {
    {
        std::lock_guard lk(topo_mu_);
        if (closed_.exchange(true)) return;
    }
    stopping_.store(true);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
    if (reactor_.joinable()) reactor_.join();
    // Graceful close: connections first (senders are quiesced by the host
    // before close()), then listeners.
    {
        std::lock_guard lk(conn_mu_);
        for (auto& [key, conn] : conns_) {
            std::lock_guard ck(conn->mu);
            if (conn->fd >= 0) {
                ::shutdown(conn->fd, SHUT_RDWR);
                ::close(conn->fd);
                conn->fd = -1;
            }
        }
        conns_.clear();
    }
    {
        std::lock_guard lk(topo_mu_);
        for (auto& [node, fd] : listeners_) ::close(fd);
        listeners_.clear();
    }
    for (auto& [fd, reader] : streams_) ::close(fd);
    streams_.clear();
}

void TcpTransport::isolate(NodeId node) {
    std::lock_guard lk(fault_mu_);
    dead_nodes_.insert(node.value);
}

void TcpTransport::restore(NodeId node) {
    std::lock_guard lk(fault_mu_);
    dead_nodes_.erase(node.value);
}

bool TcpTransport::isolated(NodeId a, NodeId b) const {
    std::lock_guard lk(fault_mu_);
    return dead_nodes_.contains(a.value) || dead_nodes_.contains(b.value);
}

// --- statistics ----------------------------------------------------------

TrafficStats TcpTransport::stats() const {
    std::lock_guard lk(stats_mu_);
    return stats_;
}

void TcpTransport::reset_stats() {
    std::lock_guard lk(stats_mu_);
    stats_ = {};
    count_token_ = Payload::fresh_count_token();
}

// --- send path -----------------------------------------------------------

int TcpTransport::connect_with_backoff(NodeId dst) {
    SocketAddr target;
    {
        std::lock_guard lk(topo_mu_);
        const SocketAddr* addr = endpoint_map_.find(dst);
        if (addr == nullptr) return -1;
        target = *addr;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(target.port);
    if (inet_pton(AF_INET, target.host.c_str(), &addr.sin_addr) != 1) return -1;
    // Bounded exponential backoff: the peer's listener exists before any
    // executor runs, so refusals here mean kernel backlog pressure, not a
    // missing peer.
    Duration backoff_us = 1000;
    for (int attempt = 0; attempt < 10; ++attempt) {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) return -1;
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return fd;
        }
        ::close(fd);
        if (errno != ECONNREFUSED && errno != EINTR && errno != ETIMEDOUT) return -1;
        ::usleep(static_cast<useconds_t>(backoff_us));
        backoff_us *= 2;
    }
    return -1;
}

void TcpTransport::write_frame(int fd, const Bytes& frame) {
    std::size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n =
            ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        // Peer gone (reactor shut down / connection reset): the frame is
        // lost, which the drop counters already account for at the reactor
        // side; stop writing.
        return;
    }
}

void TcpTransport::send(Endpoint src, Endpoint dst, Payload payload) {
    {
        std::lock_guard lk(stats_mu_);
        ++stats_.messages_sent;
        stats_.bytes_sent += payload.size();
        // The socket path flattens every payload into its frame, so unlike
        // the simulator the copied bytes equal the logical bytes; bodies
        // are still counted once so encode amortization stays visible.
        stats_.payload_bytes_copied += payload.size();
        if (payload.count_body(count_token_)) {
            ++stats_.payload_bodies_encoded;
        }
    }
    // Frames to or from a torn-down node never reach the socket.
    if (closed_.load() || isolated(src.node, dst.node)) {
        std::lock_guard lk(stats_mu_);
        ++stats_.messages_dropped;
        return;
    }
    if (src.node == dst.node) {
        // In-process upcall: no socket.
        deliver(Message{src, dst, std::move(payload)}, /*from_wire=*/false);
        return;
    }

    const Bytes frame = encode_frame(src, dst, payload);
    std::shared_ptr<Conn> conn;
    {
        std::lock_guard lk(conn_mu_);
        auto& slot = conns_[pair_key(src.node, dst.node)];
        if (!slot) slot = std::make_shared<Conn>();
        conn = slot;
    }
    if (hooks_.on_wire) hooks_.on_wire();
    {
        std::lock_guard ck(conn->mu);
        if (conn->fd < 0) conn->fd = connect_with_backoff(dst.node);
        if (conn->fd < 0) {
            std::lock_guard sk(stats_mu_);
            ++stats_.messages_dropped;
            if (hooks_.on_settled) hooks_.on_settled();
            return;
        }
        write_frame(conn->fd, frame);
    }
}

void TcpTransport::connect(NodeId src, NodeId dst) {
    std::shared_ptr<Conn> conn;
    {
        std::lock_guard lk(conn_mu_);
        auto& slot = conns_[pair_key(src, dst)];
        if (!slot) slot = std::make_shared<Conn>();
        conn = slot;
    }
    std::lock_guard ck(conn->mu);
    if (conn->fd < 0) conn->fd = connect_with_backoff(dst);
}

// --- reactor -------------------------------------------------------------

void TcpTransport::reactor_loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    Bytes chunk(64 * 1024);
    while (!stopping_.load()) {
        const int n = epoll_wait(epoll_fd_, events, kMaxEvents, 100);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == wake_fd_) {
                std::uint64_t drain = 0;
                [[maybe_unused]] const auto r = ::read(wake_fd_, &drain, sizeof drain);
                continue;
            }
            bool is_listener = false;
            {
                std::lock_guard lk(topo_mu_);
                for (const auto& [node, lfd] : listeners_) {
                    if (lfd == fd) {
                        is_listener = true;
                        break;
                    }
                }
            }
            if (is_listener) {
                for (;;) {
                    const int conn_fd = ::accept4(fd, nullptr, nullptr,
                                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
                    if (conn_fd < 0) break;
                    epoll_event cev{};
                    cev.events = EPOLLIN;
                    cev.data.fd = conn_fd;
                    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn_fd, &cev) == 0) {
                        streams_.emplace(conn_fd, FrameReader{});
                    } else {
                        ::close(conn_fd);
                    }
                }
                continue;
            }
            auto stream_it = streams_.find(fd);
            if (stream_it == streams_.end()) continue;
            FrameReader& reader = stream_it->second;
            bool dead = false;
            for (;;) {
                const ssize_t got = ::read(fd, chunk.data(), chunk.size());
                if (got > 0) {
                    reader.feed(std::span(chunk.data(), static_cast<std::size_t>(got)));
                    continue;
                }
                if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (got < 0 && errno == EINTR) continue;
                dead = true;  // orderly EOF or hard error
                break;
            }
            while (auto frame = reader.next()) {
                deliver(Message{frame->src, frame->dst, Payload{std::move(frame->payload)}},
                        /*from_wire=*/true);
            }
            if (reader.failed()) {
                FAILSIG_LOG(LogLevel::kWarn, NET)
                    << "tcp reactor: poisoned stream (" << reader.error()
                    << "), closing connection";
                dead = true;
            }
            if (dead) {
                epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
                ::close(fd);
                streams_.erase(stream_it);
            }
        }
    }
}

void TcpTransport::deliver(Message msg, bool from_wire) {
    // Surges need virtual time and a timed post; without both they degrade
    // to immediate delivery.
    const bool timed = hooks_.now && hooks_.post_at;
    const TimePoint now = timed ? hooks_.now() : 0;
    const std::optional<Route> route = isolated(msg.src.node, msg.dst.node)
                                           ? std::nullopt
                                           : faults().admit(msg, rng_, now);
    MessageHandler handler;
    if (route) {
        std::lock_guard lk(topo_mu_);
        const auto it = handlers_.find(msg.dst);
        if (it != handlers_.end()) handler = it->second;
    }
    if (!handler) {
        std::lock_guard lk(stats_mu_);
        ++stats_.messages_dropped;
        if (from_wire && hooks_.on_settled) hooks_.on_settled();
        return;
    }
    const NodeId dst_node = msg.dst.node;
    TimePoint due = now + route->surge;
    if (timed && from_wire) {
        // A wire frame is never due before its link's previous one, so the
        // end of a surge cannot reorder a link. Same-node frames never surge.
        TimePoint& last = last_due_[pair_key(msg.src.node, dst_node)];
        due = std::max(due, last);
        last = due;
    }
    auto task = [this, handler = std::move(handler), msg = std::move(msg)]() mutable {
        {
            std::lock_guard lk(stats_mu_);
            ++stats_.messages_delivered;
        }
        handler(msg);
    };
    if (timed && due > now) {
        hooks_.post_at(dst_node, due, std::move(task));
    } else {
        hooks_.post(dst_node, std::move(task));
    }
    if (from_wire && hooks_.on_settled) hooks_.on_settled();
}

}  // namespace failsig::net
