#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <system_error>

namespace slugger {

namespace {

Status IoFailure(const std::string& what, const std::string& path, int err) {
  return Status::IOError(what + " " + path + ": " +
                         std::generic_category().message(err));
}

}  // namespace

Status WriteFileAtomically(const std::string& path, std::string_view bytes) {
  // The sequence number keeps concurrent writers in one process apart;
  // the pid keeps processes apart.
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return IoFailure("cannot open", tmp, errno);
  auto fail = [&](const char* what) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return IoFailure(what, tmp, err);
  };
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write failed on");
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync failed on");
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return IoFailure("close failed on", tmp, err);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return IoFailure("cannot rename " + tmp + " to", path, err);
  }
  return Status::OK();
}

}  // namespace slugger
