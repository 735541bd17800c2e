#ifndef MULTIGRAIN_TESTS_TRACE_TEST_UTIL_H_
#define MULTIGRAIN_TESTS_TRACE_TEST_UTIL_H_

// Reads a Chrome trace back through the one exporter the library has,
// the file writer mgprof calls.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpusim/trace.h"

namespace multigrain::sim {

/// The trace document write_chrome_trace_file writes for `result`:
/// counter tracks against `device` and the given phase marks.
inline std::string
chrome_trace_json(const SimResult &result, const DeviceSpec &device,
                  const std::vector<PhaseMark> &phases = {})
{
    const ::testing::TestInfo *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = ::testing::TempDir() + "mg_" +
                             test->test_suite_name() + "." + test->name() +
                             "." + std::to_string(getpid()) + ".json";
    write_chrome_trace_file(result, path, device, phases);
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_TESTS_TRACE_TEST_UTIL_H_
