// Durable, atomic artifact writing.
//
// Reports, CSV exports, and checkpoints must never be observable half
// written: a crash mid-write has to leave either the complete previous
// artifact or no artifact at all. DurableWriteFile gets there the classic
// way — write to a temporary sibling, fsync it, then rename over the
// destination (rename(2) is atomic within a filesystem) and fsync the
// directory so the rename itself survives a power cut. Every stage has a
// failpoint ("io.tmp_write", "io.fsync", "io.rename") so tests can prove
// the no-torn-artifact property for a fault at any point.

#ifndef MDC_COMMON_DURABLE_IO_H_
#define MDC_COMMON_DURABLE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace mdc {

// Maps a C errno from a file operation to the closest Status code:
// ENOENT -> kNotFound, EACCES/EPERM/EROFS -> kFailedPrecondition,
// everything else -> kInternal. `context` names the operation and path.
Status ErrnoToStatus(int error_number, const std::string& context);

// Atomically replaces `path` with `contents`: temp write + fsync + rename
// + best-effort directory fsync. On any failure the temp file is removed
// and `path` is untouched (the previous artifact, if any, stays complete).
Status DurableWriteFile(const std::string& path, std::string_view contents);

// Verifies `path` is a writable directory, creating one level if missing.
// An existing non-directory or an unwritable directory is a clean
// kFailedPrecondition — callers (the CLI, the service core) use this to
// reject a bad --checkpoint-dir up front instead of failing mid-run.
// Writability is proved by creating and removing a probe file (failpoint
// "io.probe_dir").
Status EnsureWritableDir(const std::string& path);

}  // namespace mdc

#endif  // MDC_COMMON_DURABLE_IO_H_
