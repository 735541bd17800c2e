#ifndef MULTIGRAIN_COMMON_LOGGING_H_
#define MULTIGRAIN_COMMON_LOGGING_H_

#include <functional>
#include <string>

/// Minimal leveled logging to stderr.
///
/// Errors and warnings pass; info and debug lines are dropped. Tests
/// install a sink to capture lines instead of losing them to stderr.
namespace multigrain {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Receives every message that passes the threshold. The message is the
/// raw text, without the "[multigrain LEVEL]" framing the stderr default
/// adds.
using LogSink = std::function<void(LogLevel, const std::string &)>;

/// Installs `sink` as the destination for log lines and returns the
/// previously installed sink (empty when the stderr default was active).
/// Passing an empty function restores the stderr default. Not
/// thread-safe with concurrent log_message calls; install sinks at
/// startup or around single-threaded test sections.
LogSink set_log_sink(LogSink sink);

/// Emits one line if `level` is kWarn or more severe: to the installed
/// sink, or to stderr when none is set.
void log_message(LogLevel level, const std::string &message);

}  // namespace multigrain

#endif  // MULTIGRAIN_COMMON_LOGGING_H_
