#ifndef MLCS_COMMON_FILE_UTIL_H_
#define MLCS_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/result.h"

namespace mlcs {

/// Crash-safe file replacement: writes `<path>.tmp`, fsyncs it, then
/// atomically renames it over `path` (and best-effort fsyncs the parent
/// directory). A crash at any point leaves either the old file or the new
/// one — never a torn mix — which is the durability contract every block
/// and manifest write in the storage layer relies on (DESIGN.md §12).
Status AtomicWriteFile(const std::string& path, const void* data,
                       size_t size);

/// Whole-file read into a byte vector.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Reads exactly `length` bytes starting at `offset`. A file too short for
/// the requested region is an IoError — torn or truncated writes surface
/// here as a clean Status, never as UB downstream.
Result<std::vector<uint8_t>> ReadFileRegion(const std::string& path,
                                            uint64_t offset,
                                            uint64_t length);

/// Bytes between `f`'s read position and its end (the position is kept).
/// Readers bound a length field read from the file by this before it
/// sizes an allocation.
Result<uint64_t> BytesLeft(std::FILE* f);

/// mkdir -p: creates `path` and any missing parents; existing directories
/// are success.
Status MakeDirs(const std::string& path);

[[nodiscard]] bool FileExists(const std::string& path);

/// Best-effort unlink. Returns true when a file was actually removed.
bool RemoveFileIfExists(const std::string& path);

}  // namespace mlcs

#endif  // MLCS_COMMON_FILE_UTIL_H_
