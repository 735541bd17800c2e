#include "common/logging.h"

#include <iostream>
#include <utility>

namespace multigrain {

namespace {

/// Messages less severe than this are dropped.
constexpr LogLevel kThreshold = LogLevel::kWarn;

LogSink &
sink_slot()
{
    static LogSink *sink = new LogSink;  // Leaked: usable during exit.
    return *sink;
}

const char *
level_tag(LogLevel level)
{
    switch (level) {
      case LogLevel::kError:
        return "ERROR";
      case LogLevel::kWarn:
        return "WARN";
      case LogLevel::kInfo:
        return "INFO";
      case LogLevel::kDebug:
        return "DEBUG";
    }
    return "?";
}

}  // namespace

LogSink
set_log_sink(LogSink sink)
{
    LogSink previous = std::move(sink_slot());
    sink_slot() = std::move(sink);
    return previous;
}

void
log_message(LogLevel level, const std::string &message)
{
    if (static_cast<int>(level) > static_cast<int>(kThreshold)) {
        return;
    }
    const LogSink &sink = sink_slot();
    if (sink) {
        sink(level, message);
        return;
    }
    std::cerr << "[multigrain " << level_tag(level) << "] " << message
              << "\n";
}

}  // namespace multigrain
