#include "telemetry/http_exporter.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace boss::telemetry
{

namespace
{

void
sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off,
                           data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return; // peer went away; nothing to salvage
        off += static_cast<std::size_t>(n);
    }
}

std::string
response(const char *status, const char *contentType,
         const std::string &body)
{
    std::ostringstream os;
    os << "HTTP/1.0 " << status << "\r\n"
       << "Content-Type: " << contentType << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    return os.str();
}

} // namespace

HttpExporter::HttpExporter(const Registry &registry,
                           const FlightRecorder *flight,
                           std::function<double()> clock,
                           Config config)
    : registry_(registry), flight_(flight),
      clock_(std::move(clock)), config_(config)
{
}

HttpExporter::~HttpExporter()
{
    stop();
}

bool
HttpExporter::start(std::string *error)
{
    auto fail = [&](const char *what) {
        if (error != nullptr)
            *error = std::string(what) + ": " +
                     std::strerror(errno);
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(config_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind");
    if (::listen(listenFd_, 8) != 0)
        return fail("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    boundPort_ = ntohs(addr.sin_port);

    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { serveLoop(); });
    return true;
}

void
HttpExporter::stop()
{
    if (!thread_.joinable())
        return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    boundPort_ = 0;
}

void
HttpExporter::serveLoop()
{
    for (;;) {
        if (stop_.load(std::memory_order_relaxed))
            return;
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        int r = ::poll(&pfd, 1, 100 /* ms */);
        if (r <= 0)
            continue; // timeout (re-check stop flag) or EINTR
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        handleConnection(fd);
        ::close(fd);
    }
}

void
HttpExporter::handleConnection(int fd)
{
    // Read the request head (we only need the request line; 4 KiB
    // bounds hostile input). A short read is fine — the line comes
    // first.
    char buf[4096];
    ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return;
    buf[n] = '\0';
    requests_.fetch_add(1, std::memory_order_relaxed);

    const char *lineEnd = std::strstr(buf, "\r\n");
    std::string line(buf, lineEnd != nullptr
                              ? static_cast<std::size_t>(lineEnd -
                                                         buf)
                              : static_cast<std::size_t>(n));
    std::istringstream req(line);
    std::string method;
    std::string path;
    req >> method >> path;
    if (method != "GET") {
        sendAll(fd, response("405 Method Not Allowed",
                             "text/plain", "GET only\n"));
        return;
    }
    // Strip any query string; routes carry no parameters.
    if (auto qpos = path.find('?'); qpos != std::string::npos)
        path.resize(qpos);

    if (path == "/metrics") {
        std::ostringstream body;
        registry_.renderPrometheus(body, clock_());
        sendAll(fd,
                response("200 OK",
                         "text/plain; version=0.0.4", body.str()));
    } else if (path == "/flight" && flight_ != nullptr) {
        std::ostringstream body;
        dumpChromeTrace(body, flight_->entries());
        sendAll(fd, response("200 OK", "application/json",
                             body.str()));
    } else if (path == "/healthz") {
        sendAll(fd, response("200 OK", "text/plain", "ok\n"));
    } else {
        sendAll(fd, response("404 Not Found", "text/plain",
                             "unknown route\n"));
    }
}

} // namespace boss::telemetry
