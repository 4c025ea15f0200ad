// Thin POSIX socket helpers for the network front end: non-blocking TCP
// listeners and the couple of fd chores (O_NONBLOCK, TCP_NODELAY,
// getsockname) the server and client both need. All functions report
// failure through a *error string rather than errno spelunking at call
// sites.
#ifndef LB2_NET_LISTENER_H_
#define LB2_NET_LISTENER_H_

#include <string>

namespace lb2::net {

/// Binds and listens on host:port (SO_REUSEADDR, non-blocking, CLOEXEC).
/// `port` 0 asks the kernel for an ephemeral port — read it back with
/// LocalPort. Returns the listening fd, or -1 with *error filled (also for
/// a port outside 0-65535, which is never truncated to 16 bits).
int ListenTcp(const std::string& host, int port, std::string* error);

/// Blocking connect to host:port (CLOEXEC, TCP_NODELAY). Returns the fd,
/// or -1 with *error filled.
int ConnectTcp(const std::string& host, int port, std::string* error);

/// The locally bound port of `fd`, or -1.
int LocalPort(int fd);

bool SetNonBlocking(int fd);
void SetTcpNoDelay(int fd);

}  // namespace lb2::net

#endif  // LB2_NET_LISTENER_H_
