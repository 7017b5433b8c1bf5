#include "lina/snap/io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lina::snap {

namespace {

[[noreturn]] void fail(const std::filesystem::path& path, const char* op,
                       const std::string& detail) {
  throw SnapIoError(path.string() + ": " + op + " failed: " + detail);
}

[[noreturn]] void fail_errno(const std::filesystem::path& path,
                             const char* op) {
  fail(path, op, std::strerror(errno));
}

/// RAII fd that closes on scope exit (double-close safe).
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  void reset() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_;
};

/// fsyncs the directory containing `path` so a just-committed rename
/// survives power loss.
void fsync_parent_dir(const std::filesystem::path& path) {
  const std::filesystem::path dir = path.parent_path().empty()
                                        ? std::filesystem::path(".")
                                        : path.parent_path();
  Fd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  if (fd.get() < 0) fail_errno(dir, "open directory");
  if (::fsync(fd.get()) != 0) fail_errno(dir, "fsync directory");
}

/// Post-commit corruption: what a torn write or decaying medium leaves
/// for the next reader to detect.
void corrupt_committed_file(const std::filesystem::path& path,
                            const FaultPlan& faults) {
  if (faults.truncate_to.has_value()) {
    if (::truncate(path.c_str(),
                   static_cast<off_t>(*faults.truncate_to)) != 0) {
      fail_errno(path, "injected truncate");
    }
  }
  if (!faults.flip_bits.empty()) {
    Fd fd(::open(path.c_str(), O_RDWR));
    if (fd.get() < 0) fail_errno(path, "open for injected bit flip");
    struct stat st {};
    if (::fstat(fd.get(), &st) != 0) fail_errno(path, "fstat");
    for (const std::uint64_t bit : faults.flip_bits) {
      const auto offset = static_cast<off_t>(bit >> 3);
      if (offset >= st.st_size) continue;  // flips past a truncation
      unsigned char byte = 0;
      if (::pread(fd.get(), &byte, 1, offset) != 1) {
        fail_errno(path, "pread for injected bit flip");
      }
      byte ^= static_cast<unsigned char>(1u << (bit & 7u));
      if (::pwrite(fd.get(), &byte, 1, offset) != 1) {
        fail_errno(path, "pwrite for injected bit flip");
      }
    }
  }
}

}  // namespace

void atomic_write_file(const std::filesystem::path& path,
                       const std::vector<char>& image,
                       const FaultPlan* faults) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) fail_errno(tmp, "open");

    std::size_t budget = image.size();
    if (faults != nullptr && faults->fail_write_after.has_value()) {
      budget = static_cast<std::size_t>(
          std::min<std::uint64_t>(*faults->fail_write_after, image.size()));
    }
    std::size_t written = 0;
    while (written < budget) {
      const ssize_t n =
          ::write(fd.get(), image.data() + written, budget - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail_errno(tmp, "write");
      }
      written += static_cast<std::size_t>(n);
    }
    if (budget < image.size()) {
      // Injected ENOSPC: the partial temp file stays on disk, exactly as
      // a full filesystem would leave it. The commit never happens.
      fail(tmp, "write", "injected ENOSPC after " + std::to_string(budget) +
                             " of " + std::to_string(image.size()) +
                             " bytes");
    }
    if (faults != nullptr && faults->fail_fsync) {
      fail(tmp, "fsync", "injected fsync failure");
    }
    if (::fsync(fd.get()) != 0) fail_errno(tmp, "fsync");
  }

  if (faults != nullptr && faults->crash_before_rename) {
    fail(tmp, "commit", "injected crash before rename (temp file left)");
  }
  if (faults != nullptr && faults->fail_rename) {
    fail(path, "rename", "injected rename failure");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail_errno(path, "rename");
  fsync_parent_dir(path);

  if (faults != nullptr) corrupt_committed_file(path, *faults);
}

}  // namespace lina::snap
