// Crash-safe whole-file replacement.
//
// Writing a file in place (open with truncate, then write) breaks every
// process that has the old file mapped: the truncate shrinks the inode
// under the mapping and the next access to a vanished page raises SIGBUS.
// WriteFileAtomically instead writes a temporary file in the same
// directory, fsyncs it and renames it over the target. The rename swaps
// the directory entry in one step, so readers of the old file keep its
// inode (and their mappings) until they close it, and new opens see
// either the old or the new file, never a partial one.
#ifndef SLUGGER_UTIL_ATOMIC_FILE_HPP_
#define SLUGGER_UTIL_ATOMIC_FILE_HPP_

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace slugger {

/// Replaces `path` with `bytes`: write `<path>.tmp.<pid>.<n>`, fsync,
/// rename. On failure the temporary file is removed and `path` is left
/// as it was.
Status WriteFileAtomically(const std::string& path, std::string_view bytes);

}  // namespace slugger

#endif  // SLUGGER_UTIL_ATOMIC_FILE_HPP_
