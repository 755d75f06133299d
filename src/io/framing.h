// Framed socket transport for the sweep service: newline-delimited JSON
// documents over Unix-domain or local TCP stream sockets.
//
// The dist/ wire format is already exact — io::JsonValue round-trips every
// double and uint64 to the bit — so the service protocol reuses it
// verbatim: one compact JSON document per line, the same shape the shard
// result files use.  This header supplies the missing transport: RAII
// socket ownership, address parsing ("unix:/path", "tcp:port",
// "tcp:host:port"), and LineChannel, a buffered bidirectional channel
// that sends and receives whole framed documents.
//
// Error philosophy: setup failures (bad address, bind/listen/connect)
// throw sramlp::Error — the caller misconfigured something.  Peer
// behaviour (disconnects, truncated frames, garbage) is NOT exceptional
// for a server: send() returns false and receive() returns nullopt, and
// the caller treats the connection as dead.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "io/json.h"

namespace sramlp::io {

/// RAII owner of one socket file descriptor.  Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// ::shutdown both directions — unblocks a thread parked in accept() or
  /// recv() on this descriptor (close() alone does not).
  void shutdown();
  void close();

 private:
  int fd_ = -1;
};

/// Bind and listen on @p address ("unix:/path" or "tcp:port" /
/// "tcp:host:port"; TCP binds 127.0.0.1 when no host is given, port 0
/// picks an ephemeral port).  A stale Unix socket path is unlinked first.
/// Throws sramlp::Error on failure.
Socket listen_socket(const std::string& address, int backlog = 16);

/// The resolved address of a listening socket, in the same "unix:/path" /
/// "tcp:host:port" syntax connect_socket accepts — this is how a caller
/// learns the ephemeral port of "tcp:0".
std::string local_address(const Socket& listener);

/// Accept one connection; returns an invalid Socket when the listener was
/// shut down (the accept loop's exit signal) and throws on other errors.
Socket accept_connection(const Socket& listener);

/// Connect to @p address, retrying refused/missing endpoints for up to
/// @p timeout_ms (covers the daemon-still-starting race; 0 = one try).
/// Throws sramlp::Error when the deadline passes.
Socket connect_socket(const std::string& address, int timeout_ms = 0);

/// Bidirectional line-framed JSON channel over a connected socket.
/// send() is thread-safe (the service fans worker results out to client
/// channels from several threads); receive() is single-reader.
class LineChannel {
 public:
  LineChannel() = default;
  explicit LineChannel(Socket socket) : socket_(std::move(socket)) {}

  bool valid() const { return socket_.valid(); }

  /// Frame and send one document (compact dump + '\n').  Returns false on
  /// a broken/closed peer; never raises SIGPIPE.
  bool send(const JsonValue& value);

  /// Largest frame receive() accepts, newline excluded: far above the
  /// ~15 MB job_complete frame of a 10^4-point job, far below what a peer
  /// that never sends a newline could otherwise make the reader buffer.
  static constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

  /// Receive the next framed document.  Returns nullopt on EOF, a dead
  /// peer, an unparseable frame (a truncated write from a killed peer
  /// reads as end-of-stream), or a frame longer than kMaxFrameBytes — the
  /// peer is then treated as dead and its buffered bytes are freed.
  std::optional<JsonValue> receive();

  /// Unblock a reader parked in receive() from another thread.
  void shutdown() { socket_.shutdown(); }

 private:
  Socket socket_;
  std::mutex send_mutex_;
  std::string read_buffer_;
  std::size_t scanned_ = 0;  ///< read_buffer_ prefix known to hold no '\n'
  bool peer_dead_ = false;
};

}  // namespace sramlp::io
