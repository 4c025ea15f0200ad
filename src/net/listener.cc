#include "net/listener.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/str.h"

namespace lb2::net {

namespace {

bool FillAddr(const std::string& host, int port, sockaddr_in* addr,
              std::string* error) {
  if (port < 0 || port > 65535) {
    *error = StrPrintf("port %d out of range (0-65535)", port);
    return false;
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<uint16_t>(port));
  if (host.empty() || host == "0.0.0.0") {
    addr->sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    *error = "bad listen address '" + host + "' (IPv4 dotted quad required)";
    return false;
  }
  return true;
}

}  // namespace

int ListenTcp(const std::string& host, int port, std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return -1;
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = StrPrintf("socket(): %s", std::strerror(errno));
    return -1;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = StrPrintf("bind(%s:%d): %s", host.c_str(), port,
                       std::strerror(errno));
    close(fd);
    return -1;
  }
  if (listen(fd, 128) != 0) {
    *error = StrPrintf("listen(%s:%d): %s", host.c_str(), port,
                       std::strerror(errno));
    close(fd);
    return -1;
  }
  return fd;
}

int ConnectTcp(const std::string& host, int port, std::string* error) {
  sockaddr_in addr;
  std::string h = host.empty() ? "127.0.0.1" : host;
  if (!FillAddr(h, port, &addr, error)) return -1;
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = StrPrintf("socket(): %s", std::strerror(errno));
    return -1;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = StrPrintf("connect(%s:%d): %s", h.c_str(), port,
                       std::strerror(errno));
    close(fd);
    return -1;
  }
  SetTcpNoDelay(fd);
  return fd;
}

int LocalPort(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return -1;
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetTcpNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace lb2::net
