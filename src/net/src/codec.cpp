#include "lina/net/codec.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace lina::net {

void put_prologue(std::vector<char>& out, const Magic& magic,
                  std::uint16_t version) {
  out.insert(out.end(), magic.begin(), magic.end());
  put_u16(out, version);
  put_u16(out, kEndianMarker);
}

void put_footer(std::vector<char>& out, const Magic& magic,
                std::uint32_t crc, std::uint64_t total_bytes) {
  out.insert(out.end(), magic.begin(), magic.end());
  put_u32(out, crc);
  put_u64(out, total_bytes);
}

std::string detail::overrun_message(std::string_view context,
                                    const char* what, std::size_t offset,
                                    std::size_t size) {
  return std::string(context) + ": truncated while reading " + what +
         " at offset " + std::to_string(offset) + " of " +
         std::to_string(size);
}

std::string MappedFile::map(const std::filesystem::path& path) {
  const auto failed = [&](const char* call) {
    return path.string() + ": " + call + " failed: " + std::strerror(errno);
  };
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return failed("open");
  struct stat st {};
  std::string error;
  if (::fstat(fd, &st) != 0) {
    error = failed("fstat");
  } else if (st.st_size > 0) {
    void* mapped = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                          PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped == MAP_FAILED) {
      error = failed("mmap");
    } else {
      data_ = static_cast<const char*>(mapped);
      size_ = static_cast<std::uint64_t>(st.st_size);
    }
  }
  ::close(fd);
  return error;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

}  // namespace lina::net
