#include "common/file_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace mlcs {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Durability for the rename itself: without a directory fsync the new
/// directory entry may not survive a crash even though the file data does.
/// Best-effort — some filesystems refuse O_RDONLY fsync on directories.
void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size) {
  std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + tmp + "' for writing: " +
                           std::strerror(errno));
  }
  if (size > 0 && std::fwrite(data, 1, size, f.get()) != size) {
    f.reset();
    (void)std::remove(tmp.c_str());
    return Status::IoError("short write to '" + tmp + "'");
  }
  if (std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0) {
    f.reset();
    (void)std::remove(tmp.c_str());
    return Status::IoError("fsync of '" + tmp + "' failed: " +
                           std::strerror(errno));
  }
  f.reset();  // close before rename
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return Status::IoError("rename '" + tmp + "' -> '" + path +
                           "' failed: " + std::strerror(errno));
  }
  FsyncDir(ParentDir(path));
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  if (::fseeko(f.get(), 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek '" + path + "'");
  }
  off_t file_size = ::ftello(f.get());
  if (file_size < 0) return Status::IoError("cannot stat '" + path + "'");
  std::rewind(f.get());
  std::vector<uint8_t> bytes(static_cast<size_t>(file_size));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    return Status::IoError("short read from '" + path + "'");
  }
  return bytes;
}

Result<std::vector<uint8_t>> ReadFileRegion(const std::string& path,
                                            uint64_t offset,
                                            uint64_t length) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  // fseeko takes an off_t — never a (possibly 32-bit) long, which would
  // silently truncate offsets past 2 GiB and read the wrong region.
  if (offset > static_cast<uint64_t>(std::numeric_limits<off_t>::max())) {
    return Status::IoError("offset " + std::to_string(offset) +
                           " in '" + path +
                           "' exceeds the platform file-offset range");
  }
  if (::fseeko(f.get(), static_cast<off_t>(offset), SEEK_SET) != 0) {
    return Status::IoError("cannot seek to " + std::to_string(offset) +
                           " in '" + path + "'");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(length));
  if (length > 0 &&
      std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    return Status::IoError(
        "'" + path + "' is truncated: wanted " + std::to_string(length) +
        " bytes at offset " + std::to_string(offset));
  }
  return bytes;
}

Result<uint64_t> BytesLeft(std::FILE* f) {
  off_t pos = ftello(f);
  if (pos < 0 || fseeko(f, 0, SEEK_END) != 0) {
    return Status::IoError(std::string("cannot size file: ") +
                           std::strerror(errno));
  }
  off_t end = ftello(f);
  if (end < pos || fseeko(f, pos, SEEK_SET) != 0) {
    return Status::IoError(std::string("cannot size file: ") +
                           std::strerror(errno));
  }
  return static_cast<uint64_t>(end - pos);
}

Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("MakeDirs: empty path");
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    partial = path.substr(0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir '" + partial + "' failed: " +
                             std::strerror(errno));
    }
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IoError("'" + path + "' is not a directory");
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool RemoveFileIfExists(const std::string& path) {
  return std::remove(path.c_str()) == 0;
}

}  // namespace mlcs
